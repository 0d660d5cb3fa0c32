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
from .base import (Criterion, ScenarioConfig, ScenarioReport, evaluate_criteria,
                   export_report_episode)

TACTILE_SCHEMA = tuple(f"m{i}" for i in range(MARKER_DIM))
GRIP_SCHEMA = ("width", "inner_held", "outer_held")


def _tactile_vector(norm_target: float, rng: np.random.Generator) -> np.ndarray:
    """126-vector with the requested marker-motion magnitude, random direction."""
    direction = rng.normal(size=MARKER_DIM)
    direction /= np.linalg.norm(direction)
    return norm_target * direction


def run_selective_release(config: ScenarioConfig, use_tactile: bool,
                          out_dir=None) -> ScenarioReport:
    variant = "with_tactile" if use_tactile else "fixed_width"
    dt = config.get_float("release", "dt", 0.01)
    duration = config.get_float("release", "duration_s", 6.0)
    open_rate = config.get_float("release", "open_rate", 0.002)     # m/s
    w_lo = config.get_float("release", "inner_width_lo", 0.060)
    w_hi = config.get_float("release", "inner_width_hi", 0.070)
    gap = config.get_float("release", "outer_gap", 0.006)
    w_fixed = config.get_float("release", "fixed_width", 0.062)
    start_margin = config.get_float("release", "start_margin", 0.004)
    c_inner = config.get_float("release", "tactile_inner", 6.0)
    c_outer = config.get_float("release", "tactile_outer", 4.0)
    tactile_sigma = config.get_float("release", "tactile_sigma", 0.3)
    tactile_rate = config.get_float("release", "tactile_rate_hz", 30.0)
    drop_fraction = config.get_float("release", "drop_fraction", 0.6)

    degenerate = gap <= 0.0
    if use_tactile:
        criteria = [Criterion("selective_rate", "==", 100.0),
                    Criterion("both_retained_rate", "==", 0.0)]
    else:
        criteria = [Criterion("selective_rate", "<=", 30.0),
                    Criterion("both_retained_rate", ">=", 70.0)]

    # stratified inner widths; trial order shuffled by seed
    quantiles = (np.arange(config.trials) + 0.5) / config.trials
    widths_inner = w_lo + quantiles * (w_hi - w_lo)
    order = np.random.default_rng(config.seed).permutation(config.trials)
    widths_inner = widths_inner[order]

    selective, both_retained = [], []
    episode = None
    for trial in range(config.trials):
        rng = np.random.default_rng(config.seed * 1000 + trial + 1)
        w_inner = float(widths_inner[trial])
        w_outer = w_inner + gap
        width = w_inner - start_margin
        inner_held = True
        outer_held = True
        holding = False
        baseline_norm = None
        tactile_period = 1.0 / tactile_rate
        next_tactile = 0.0
        norm_measured = None

        record = (trial == 0 and out_dir is not None)
        if record:
            episode = Episode(f"{config.scenario_id}_{variant}",
                              [StreamSpec("tactile", tactile_rate, TACTILE_SCHEMA,
                                          "tactile"),
                               StreamSpec("gripper", 1.0 / dt, GRIP_SCHEMA,
                                          "gripper")],
                              config_hash=config.config_hash)

        n_steps = int(round(duration / dt))
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
                norm_true = c_inner * inner_held + c_outer * outer_held
                norm_measured = max(0.0, norm_true + rng.normal(0.0, tactile_sigma))
                if record:
                    episode.record("tactile", t + dt,
                                   _tactile_vector(norm_measured, rng))
                if baseline_norm is None:
                    baseline_norm = norm_measured

            if use_tactile:
                if not holding and baseline_norm is not None \
                        and norm_measured < baseline_norm - drop_fraction * c_inner:
                    holding = True   # separation detected: stop opening
                if not holding:
                    width += open_rate * dt
            elif width < w_fixed:
                width = min(w_fixed, width + open_rate * dt)

            if record:
                episode.record("gripper", t + dt,
                               [width, float(inner_held), float(outer_held)])

        selective.append((not inner_held) and outer_held)
        both_retained.append(inner_held and outer_held)

    metrics = {
        "selective_rate": float(np.mean(selective) * 100.0),
        "both_retained_rate": float(np.mean(both_retained) * 100.0),
        "both_released_rate": float(
            100.0 - np.mean(selective) * 100.0 - np.mean(both_retained) * 100.0),
    }
    notes = ["synthetic tactile stream and scripted release controller stand "
             "in for policy output; not a learned policy"]
    if degenerate:
        # selective release is then impossible, so the declared criteria fail
        notes.append("degenerate config: inner and outer release widths "
                     "coincide; selective release is impossible")
    report = ScenarioReport(config.scenario_id, config.kind, variant,
                            config.seed, config.trials, metrics,
                            {c.metric: c.describe() for c in criteria},
                            evaluate_criteria(metrics, criteria),
                            config.config_hash, notes=notes)
    export_report_episode(report, episode, out_dir)
    return report
