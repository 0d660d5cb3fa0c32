"""Scenario configuration, report structure, and success evaluation.

A scenario is reproducible bit-exact from (config file, seed): configs are
plain INI text, the config hash goes into every report and episode manifest,
and success is a pure function of the reported metrics and the thresholds
declared in the config (no hidden criteria).
"""

import configparser
import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from ..episodes import export_csv


class ScenarioConfigError(ValueError):
    pass


@dataclass
class ScenarioConfig:
    scenario_id: str
    kind: str
    seed: int
    trials: int
    sections: dict
    config_hash: str
    base_dir: Path
    path: Optional[Path] = None

    def get(self, section: str, key: str, default=None) -> str:
        value = self.sections.get(section, {}).get(key)
        if value is None:
            if default is None:
                raise ScenarioConfigError(f"missing [{section}] {key}")
            return default
        return value

    def get_float(self, section: str, key: str, default=None) -> float:
        text = self.get(section, key, None if default is None else repr(default))
        return _parse(float, text, section, key)

    def get_int(self, section: str, key: str, default=None) -> int:
        text = self.get(section, key, None if default is None else str(default))
        return _parse(int, text, section, key)

    def get_bool(self, section: str, key: str, default: bool = False) -> bool:
        return self.get(section, key, str(default)).strip().lower() in ("1", "true", "yes", "on")

    def get_vec(self, section: str, key: str, default: str = None) -> np.ndarray:
        text = self.get(section, key, default)
        return np.array([_parse(float, v, section, key)
                         for v in text.replace(",", " ").split()])

    def resolve_path(self, text: str) -> Path:
        p = Path(text)
        return p if p.is_absolute() else (self.base_dir / p).resolve()


def _parse(kind, text: str, section: str, key: str):
    """`kind(text)`, with a ValueError turned into a config error naming the key."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ScenarioConfigError(f"[{section}] {key}: {text!r} is not {what}") from None


def load_scenario_config(path, seed_override: Optional[int] = None,
                         trials_override: Optional[int] = None) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ScenarioConfigError(f"scenario config not found: {path}")
    text = path.read_text()
    cfg = configparser.ConfigParser()
    try:
        cfg.read_string(text)
    except configparser.Error as exc:
        raise ScenarioConfigError(f"{path}: {exc}") from exc
    if "scenario" not in cfg:
        raise ScenarioConfigError(f"{path}: missing [scenario] section")
    sec = cfg["scenario"]
    for key in ("id", "kind"):
        if key not in sec:
            raise ScenarioConfigError(f"{path}: [scenario] missing {key!r}")
    sections = {name: dict(cfg[name]) for name in cfg.sections()}
    seed = seed_override if seed_override is not None \
        else _parse(int, sec.get("seed", "0"), "scenario", "seed")
    trials = trials_override if trials_override is not None \
        else _parse(int, sec.get("trials", "10"), "scenario", "trials")
    if trials < 1:
        raise ScenarioConfigError(f"{path}: trials must be >= 1, got {trials}")
    config_hash = hashlib.sha256(
        text.encode() + f"|seed={seed}|trials={trials}".encode()).hexdigest()[:16]
    return ScenarioConfig(sec["id"], sec["kind"], seed, trials, sections,
                          config_hash, path.parent.resolve(), path)


@dataclass
class Criterion:
    """Declared threshold: metric <op> value."""

    metric: str
    op: str
    value: float

    _OPS = {"<=": lambda a, b: a <= b, ">=": lambda a, b: a >= b,
            "<": lambda a, b: a < b, ">": lambda a, b: a > b,
            "==": lambda a, b: a == b}

    def check(self, metrics: dict) -> bool:
        if self.metric not in metrics:
            return False
        return self._OPS[self.op](metrics[self.metric], self.value)

    def describe(self) -> str:
        return f"{self.op} {self.value:g}"


def evaluate_criteria(metrics: dict, criteria: list) -> bool:
    return all(c.check(metrics) for c in criteria)


@dataclass
class ScenarioReport:
    scenario_id: str
    kind: str
    variant: str
    seed: int
    trials: int
    metrics: dict
    thresholds: dict
    success: bool
    config_hash: str
    notes: list = field(default_factory=list)
    episode_dir: Optional[str] = None

    def summary_lines(self) -> list:
        lines = [f"scenario {self.scenario_id} [{self.variant}] "
                 f"seed={self.seed} trials={self.trials} hash={self.config_hash}"]
        for name in sorted(self.metrics):
            thr = f"   (required {self.thresholds[name]})" if name in self.thresholds else ""
            lines.append(f"  {name} = {self.metrics[name]:.6g}{thr}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append(f"  success: {self.success}")
        return lines

    def save(self, out_dir) -> Path:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"report_{self.variant}.json"
        payload = {
            "scenario_id": self.scenario_id, "kind": self.kind,
            "variant": self.variant, "seed": self.seed, "trials": self.trials,
            "metrics": self.metrics, "thresholds": self.thresholds,
            "success": self.success, "notes": self.notes,
            "config_hash": self.config_hash, "episode_dir": self.episode_dir,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(out_dir / f"metrics_{self.variant}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "value"])
            for name in sorted(self.metrics):
                writer.writerow([name, repr(self.metrics[name])])
        return path


def export_report_episode(report: ScenarioReport, episode, out_dir) -> None:
    """Export a recorded episode to out_dir/episode_<variant>, named in the report."""
    if episode is None or out_dir is None:
        return
    episode_dir = str(Path(out_dir) / f"episode_{report.variant}")
    export_csv(episode, episode_dir)
    report.episode_dir = episode_dir


def load_report(path) -> ScenarioReport:
    with open(path) as fh:
        data = json.load(fh)
    return ScenarioReport(data["scenario_id"], data["kind"], data["variant"],
                          data["seed"], data["trials"], data["metrics"],
                          data["thresholds"], data["success"],
                          data["config_hash"], data.get("notes", []),
                          data.get("episode_dir"))


def render_comparison(title: str, columns: list, rows: list) -> str:
    """Fixed-width two-way table: rows of (label, {column: value})."""
    width = max([len(r[0]) for r in rows] + [len("method")]) + 2
    col_w = [max(len(c), 12) + 2 for c in columns]
    out = [title, "-" * (width + sum(col_w))]
    out.append("method".ljust(width) + "".join(c.rjust(w) for c, w in zip(columns, col_w)))
    for label, values in rows:
        cells = []
        for c, w in zip(columns, col_w):
            v = values.get(c)
            cells.append(("-" if v is None else f"{v:.1f}").rjust(w))
        out.append(label.ljust(width) + "".join(cells))
    return "\n".join(out)
