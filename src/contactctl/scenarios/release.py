"""Nested-object selective release gated by the tactile marker-motion signal.

The gripper holds two nested objects. Opening past the inner release width
drops the inner object; opening past the (larger) outer release width drops
both. The inner width varies per trial and is observable only through a
synthetic tactile stream whose marker-motion magnitude steps down when the
inner object separates. The tactile-gated controller opens slowly and stops
on that drop; the baseline opens to a fixed width. Inner widths are sampled
by stratified quantiles so the baseline's outcome split is an exact property
of the configured distribution, not sampling luck.
"""

import numpy as np

from ..episodes import Episode, StreamSpec
from ..sensing import MARKER_DIM
from .base import SCENARIO_KEYS, Criterion, Key, ScenarioConfig, build_report

TACTILE_SCHEMA = tuple(f"m{i}" for i in range(MARKER_DIM))
GRIP_SCHEMA = ("width", "inner_held", "outer_held")

KEYS = SCENARIO_KEYS + (
    Key("release", "dt", float, "0.01", "> 0"),
    Key("release", "duration_s", float, "6.0", ">= 0"),
    Key("release", "open_rate", float, "0.002", ">= 0"),      # m/s
    Key("release", "inner_width_lo", float, "0.06"),
    Key("release", "inner_width_hi", float, "0.07"),
    Key("release", "outer_gap", float, "0.006"),   # <= 0: degenerate, reported
    Key("release", "fixed_width", float, "0.062"),
    Key("release", "start_margin", float, "0.004"),
    Key("release", "tactile_inner", float, "6.0"),
    Key("release", "tactile_outer", float, "4.0"),
    Key("release", "tactile_sigma", float, "0.3", ">= 0"),
    Key("release", "tactile_rate_hz", float, "30.0", "> 0"),
    Key("release", "drop_fraction", float, "0.6"),
)
TICKS_SET_BY = (("release", "duration_s"), ("release", "dt"))
VARIANTS = {"with_tactile": "with tactile", "fixed_width": "fixed width"}
TABLE = ("selective release", {"selective success": "selective_rate",
                               "both retained": "both_retained_rate"})


def row_ticks(config: ScenarioConfig) -> int:
    return int(round(config.value("release", "duration_s") / config.value("release", "dt")))


def _tactile_vector(norm_target: float, rng: np.random.Generator) -> np.ndarray:
    """126-vector with the requested marker-motion magnitude, random direction."""
    direction = rng.normal(size=MARKER_DIM)
    direction /= np.linalg.norm(direction)
    return norm_target * direction


def run_selective_release(config: ScenarioConfig, out_dir=None) -> list:
    release, n_steps = config.values("release"), row_ticks(config)
    dt, open_rate, gap = release["dt"], release["open_rate"], release["outer_gap"]
    w_fixed, c_inner = release["fixed_width"], release["tactile_inner"]
    tactile_rate, drop = release["tactile_rate_hz"], release["drop_fraction"] * c_inner
    tactile_period = 1.0 / tactile_rate

    notes = ["synthetic tactile stream and scripted release controller stand "
             "in for policy output; not a learned policy"]
    if gap <= 0.0:
        # selective release is then impossible, so the declared criteria fail
        notes.append("degenerate config: inner and outer release widths "
                     "coincide; selective release is impossible")

    # stratified inner widths; trial order shuffled by seed
    quantiles = (np.arange(config.trials) + 0.5) / config.trials
    widths_inner = release["inner_width_lo"] + quantiles * (
        release["inner_width_hi"] - release["inner_width_lo"])
    order = np.random.default_rng(config.seed).permutation(config.trials)
    widths_inner = widths_inner[order]

    reports = []
    for variant in VARIANTS:
        tactile_gated = variant == "with_tactile"
        selective, both_retained = [], []
        episode = None
        for trial in range(config.trials):
            rng = np.random.default_rng(config.seed * 1000 + trial + 1)
            w_inner = float(widths_inner[trial])
            w_outer = w_inner + gap
            width = w_inner - release["start_margin"]
            inner_held = True
            outer_held = True
            holding = False
            baseline_norm = None
            next_tactile = 0.0
            norm_measured = None

            record = (trial == 0 and out_dir is not None)
            if record:
                tactile_t, tactile_rows = [], []
                grip_rows = np.empty((n_steps, len(GRIP_SCHEMA)))

            for i in range(n_steps):
                t = i * dt
                # plant: release thresholds on the opening width
                if inner_held and width >= w_inner:
                    inner_held = False
                if outer_held and width >= w_outer:
                    outer_held = False
                    inner_held = False

                if t >= next_tactile:
                    next_tactile += tactile_period
                    norm_true = c_inner * inner_held + release["tactile_outer"] * outer_held
                    norm_measured = max(0.0, norm_true
                                        + rng.normal(0.0, release["tactile_sigma"]))
                    if record:
                        # draws from rng, so it must stay in this order
                        tactile_t.append(t + dt)
                        tactile_rows.append(_tactile_vector(norm_measured, rng))
                    if baseline_norm is None:
                        baseline_norm = norm_measured

                if tactile_gated:
                    if not holding and baseline_norm is not None \
                            and norm_measured < baseline_norm - drop:
                        holding = True   # separation detected: stop opening
                    if not holding:
                        width += open_rate * dt
                elif width < w_fixed:
                    width = min(w_fixed, width + open_rate * dt)

                if record:
                    grip_rows[i] = (width, inner_held, outer_held)

            if record:
                episode = Episode(f"{config.scenario_id}_{variant}",
                                  [StreamSpec("tactile", tactile_rate, TACTILE_SCHEMA,
                                              "tactile"),
                                   StreamSpec("gripper", 1.0 / dt, GRIP_SCHEMA,
                                              "gripper")],
                                  config_hash=config.config_hash)
                episode.record_block("tactile", tactile_t,
                                     np.reshape(tactile_rows, (-1, MARKER_DIM)))
                episode.record_block("gripper", np.arange(n_steps) * dt + dt, grip_rows)
            selective.append((not inner_held) and outer_held)
            both_retained.append(inner_held and outer_held)

        metrics = {
            "selective_rate": float(np.mean(selective) * 100.0),
            "both_retained_rate": float(np.mean(both_retained) * 100.0),
            "both_released_rate": float(
                100.0 - np.mean(selective) * 100.0 - np.mean(both_retained) * 100.0),
        }
        if tactile_gated:
            criteria = [Criterion("selective_rate", "==", 100.0),
                        Criterion("both_retained_rate", "==", 0.0)]
        else:
            criteria = [Criterion("selective_rate", "<=", 30.0),
                        Criterion("both_retained_rate", ">=", 70.0)]
        reports.append(build_report(config, variant, metrics, criteria, notes,
                                    episode, out_dir))
    return reports


RUNNER = run_selective_release.__name__
