"""Scripted experiment scenarios: registry, paired runs, and summary tables."""

from pathlib import Path

from . import bilateral_quality, bottle, gravity, release, wiping
from .base import (Criterion, ScenarioConfig, ScenarioConfigError,
                   ScenarioReport, evaluate_criteria, load_report,
                   load_scenario_config, render_comparison)
from .bilateral_quality import run_bilateral_signal_quality
from .bottle import run_bottle_pick
from .gravity import run_gravity_verification
from .release import run_selective_release
from .wiping import run_wiping

# each kind's module declares its config KEYS, and the row_ticks of a config
# with the TICKS_SET_BY keys it reads; load_scenario_config checks both
KINDS = {"gravity_verification": gravity, "wiping": wiping, "bottle_pick": bottle,
         "selective_release": release, "bilateral_quality": bilateral_quality}


def run_scenario(config: ScenarioConfig, out_dir=None) -> list:
    """Run every variant a scenario kind defines; returns the reports."""
    out_dir = Path(out_dir) if out_dir is not None else None
    if config.kind == "gravity_verification":
        return [run_gravity_verification(config, out_dir)]
    if config.kind == "wiping":
        return run_wiping(config, (True, False), out_dir)
    if config.kind == "bottle_pick":
        return [run_bottle_pick(config, True, out_dir),
                run_bottle_pick(config, False, out_dir)]
    if config.kind == "selective_release":
        return [run_selective_release(config, True, out_dir),
                run_selective_release(config, False, out_dir)]
    if config.kind == "bilateral_quality":
        return [run_bilateral_signal_quality(config, out_dir)]
    raise ScenarioConfigError(
        f"unknown scenario kind {config.kind!r}; expected one of {tuple(KINDS)}")


_TABLE_LAYOUT = {
    "wiping": ("surface erasing", ["success@5% residual", "success@50% residual"],
               {"with_wrench": "with wrench", "no_wrench": "without wrench"},
               {"success@5% residual": "success_rate_5pct",
                "success@50% residual": "success_rate_50pct"}),
    "bottle_pick": ("force-sensitive pick-and-place", ["success rate", "slippage rate"],
                    {"with_force": "with grasping force",
                     "width_only": "width-only"},
                    {"success rate": "success_rate",
                     "slippage rate": "slippage_rate"}),
    "selective_release": ("selective release", ["selective success", "both retained"],
                          {"with_tactile": "with tactile",
                           "fixed_width": "fixed width"},
                          {"selective success": "selective_rate",
                           "both retained": "both_retained_rate"}),
}


def summary_table(reports: list) -> str:
    """Two-way percentage table for paired scenarios, plain metrics otherwise."""
    if not reports:
        return "(no reports)"
    kind = reports[0].kind
    if kind in _TABLE_LAYOUT:
        title, columns, labels, mapping = _TABLE_LAYOUT[kind]
        rows = []
        for rep in reports:
            label = labels.get(rep.variant, rep.variant)
            values = {col: rep.metrics.get(metric)
                      for col, metric in mapping.items()}
            rows.append((label, values))
        return render_comparison(title, columns, rows)
    lines = []
    for rep in reports:
        lines.extend(rep.summary_lines())
    return "\n".join(lines)


__all__ = [
    "Criterion", "ScenarioConfig", "ScenarioConfigError", "ScenarioReport",
    "KINDS", "evaluate_criteria", "load_report",
    "load_scenario_config", "render_comparison", "run_bilateral_signal_quality",
    "run_bottle_pick", "run_gravity_verification", "run_scenario",
    "run_selective_release", "run_wiping", "summary_table",
]
