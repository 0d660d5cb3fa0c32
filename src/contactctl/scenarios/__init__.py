"""Scripted experiment scenarios: registry, paired runs, and summary tables.

Every scenario kind is a module in KINDS that declares
- its config KEYS, and the row_ticks of a config with the TICKS_SET_BY keys
  it reads, which load_scenario_config checks;
- its VARIANTS, each name with its summary-table label, in run order;
- its summary TABLE, a title and its columns' metrics, or None for a kind
  summarised by its reports' metric lines;
- the name of its RUNNER, which takes (config, out_dir=None), runs every
  variant and returns their reports in VARIANTS order.
"""

from pathlib import Path

from . import bilateral_quality, bottle, gravity, release, wiping
from .base import (Criterion, ScenarioConfig, ScenarioConfigError,
                   ScenarioReport, load_report,
                   load_scenario_config, render_comparison)
from .bilateral_quality import run_bilateral_signal_quality
from .bottle import run_bottle_pick
from .gravity import run_gravity_verification
from .release import run_selective_release
from .wiping import run_wiping

KINDS = {"gravity_verification": gravity, "wiping": wiping, "bottle_pick": bottle,
         "selective_release": release, "bilateral_quality": bilateral_quality}


def run_scenario(config: ScenarioConfig, out_dir=None) -> list:
    """Run every variant a scenario kind defines; returns the reports."""
    kind = KINDS.get(config.kind)
    if kind is None:
        raise ScenarioConfigError(
            f"unknown scenario kind {config.kind!r}; expected one of {tuple(KINDS)}")
    # by name at call time, so that a runner rebound on its module (by a
    # tracer or a test) is the one called
    run = getattr(kind, kind.RUNNER)
    return run(config, Path(out_dir) if out_dir is not None else None)


def summary_table(reports: list) -> str:
    """The kind's comparison table, or its reports' metric lines, with the
    variants in the kind's declared order."""
    if not reports:
        return "(no reports)"
    kind = KINDS[reports[0].kind]
    order = list(kind.VARIANTS)
    reports = sorted(reports, key=lambda rep: order.index(rep.variant))
    if kind.TABLE is None:
        return "\n".join(line for rep in reports for line in rep.summary_lines())
    title, columns = kind.TABLE
    return render_comparison(title, list(columns), [
        (kind.VARIANTS[rep.variant],
         {col: rep.metrics.get(metric) for col, metric in columns.items()})
        for rep in reports])


__all__ = [
    "Criterion", "ScenarioConfig", "ScenarioConfigError", "ScenarioReport",
    "KINDS", "load_report",
    "load_scenario_config", "render_comparison", "run_bilateral_signal_quality",
    "run_bottle_pick", "run_gravity_verification", "run_scenario",
    "run_selective_release", "run_wiping", "summary_table",
]
