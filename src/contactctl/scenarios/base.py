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
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from ..episodes import export_csv


class ScenarioConfigError(ValueError):
    pass


TICKS_MAX = 1_000_000   # control ticks one row may run: 1 000 s at 1 kHz
# control ticks of all rows of a run: a TICKS_MAX row at 10 trials of 2
# variants. The wiping rollout holds about 36.5 B per tick and row (traced at
# 10 and 20 trials), so its logs stay under about 0.75 GB.
RUN_TICKS_MAX = 20_000_000
DOF = "dof"             # type of a vector with one number per chain joint
_WHAT = {int: "an integer", float: "a number"}


@dataclass(frozen=True)
class Key:
    """A declared config key.

    `type` is float, int, str, a vector length, or DOF. `default` is INI
    text, an earlier key's (section, key) pair whose value an absent key
    takes, or None for a required key. `range` is "finite", "> a", ">= a" or
    an interval such as "(0, 0.005]"; every number must also be finite.
    """

    section: str
    name: str
    type: object
    default: object = None
    range: str = "finite"

    def parse(self, text: str):
        """The value `text` gives this key, checked; a vector is read-only."""
        where = f"[{self.section}] {self.name}"
        if self.type is str:
            return text
        scalar = self.type in (int, float)
        try:
            numbers = [self.type(text)] if scalar \
                else [float(v) for v in text.replace(",", " ").split()]
        except ValueError:
            what = _WHAT.get(self.type, "a list of numbers")
            raise ScenarioConfigError(f"{where}: {text!r} is not {what}") from None
        if not (scalar or numbers and self.type in (DOF, len(numbers))):
            raise ScenarioConfigError(f"{where} needs {self.type} numbers, got {len(numbers)}")
        if not all(_within(x, self.range) for x in numbers):
            words = f"in {self.range}" if self.range[0] in "([" else self.range
            raise ScenarioConfigError(f"{where} must be {words}, got {text!r}")
        if scalar:
            return numbers[0]
        vector = np.array(numbers)
        vector.flags.writeable = False
        return vector


SCENARIO_KEYS = (
    Key("scenario", "id", str),
    Key("scenario", "kind", str),
    Key("scenario", "seed", int, "0", ">= 0"),   # numpy seeds are nonnegative
    Key("scenario", "trials", int, "10", ">= 1"),
)


def field_keys(section: str, cls, skip=()) -> tuple:
    """One Key of `section` per field of dataclass `cls` not in `skip`, in
    field order: the field's type (an array field's length), and its default
    written by repr. `cls` checks the values itself."""
    keys = []
    for f in fields(cls):
        if f.name in skip:
            continue
        default = f.default if f.default_factory is MISSING else f.default_factory()
        if isinstance(default, np.ndarray):
            keys.append(Key(section, f.name, len(default),
                            " ".join(map(repr, default.tolist()))))
        else:
            keys.append(Key(section, f.name, f.type, repr(default)))
    return tuple(keys)


def _within(x, range_: str) -> bool:
    """Whether x is finite and in `range_` (see Key); NaN never is."""
    if not (isinstance(x, int) or math.isfinite(x)):   # an int of any size is finite
        return False
    if range_ == "finite":
        return True
    if range_[0] == ">":
        op, low = range_.split()
        return x >= float(low) if op == ">=" else x > float(low)
    low, high = (float(v) for v in range_[1:-1].split(","))
    return (x >= low if range_[0] == "[" else x > low) \
        and (x <= high if range_[-1] == "]" else x < high)


@dataclass(frozen=True)
class ScenarioConfig:
    """Every declared key's value, parsed and checked once at load."""

    settings: Mapping           # read-only: (section, key) -> parsed value
    config_hash: str
    base_dir: Path

    scenario_id = property(lambda self: self.settings["scenario", "id"])
    kind = property(lambda self: self.settings["scenario", "kind"])
    seed = property(lambda self: self.settings["scenario", "seed"])
    trials = property(lambda self: self.settings["scenario", "trials"])

    def value(self, section: str, key: str):
        """The value of a declared key."""
        return self.settings[section, key]

    def values(self, section: str) -> dict:
        """Every declared key of a section, by name."""
        return {key: v for (sec, key), v in self.settings.items() if sec == section}

    def build(self, make, *args, **kwargs):
        """make(*args, **kwargs), its ValueError turned into a config error."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            raise ScenarioConfigError(f"{self.scenario_id}: {exc}") from None

    def resolve_path(self, text: str) -> Path:
        p = Path(text)
        return p if p.is_absolute() else (self.base_dir / p).resolve()


def load_scenario_config(path, seed_override: Optional[int] = None,
                         trials_override: Optional[int] = None) -> ScenarioConfig:
    """Read a scenario config and check all of it against its kind's keys.

    Each declared key is parsed once, in declared order. An undeclared
    section or key, a missing required key, a value outside its type or
    range, a row of more than TICKS_MAX control ticks, or trials whose rows
    together run more than RUN_TICKS_MAX is a ScenarioConfigError, raised
    before anything runs.
    """
    from . import KINDS   # the scenario modules, which import this one

    path = Path(path)
    if not path.exists():
        raise ScenarioConfigError(f"scenario config not found: {path}")
    text = path.read_text()
    cfg = configparser.ConfigParser()
    try:
        cfg.read_string(text)
    except configparser.Error as exc:
        raise ScenarioConfigError(f"{path}: {exc}") from exc
    given = {(section, key): value for section in cfg.sections()
             for key, value in cfg[section].items()}
    kind_name = given.get(("scenario", "kind"))
    kind = KINDS.get(kind_name)
    if kind is None:
        raise ScenarioConfigError(
            f"[scenario] kind must be one of {', '.join(KINDS)}, got {kind_name!r}")
    for key, override in (("seed", seed_override), ("trials", trials_override)):
        if override is not None:
            given["scenario", key] = str(override)
    declared = {(entry.section, entry.name): entry for entry in kind.KEYS}
    for section, key in given:
        if (section, key) not in declared:
            raise ScenarioConfigError(f"[{section}] {key} is not a {kind_name} config key")
    settings = {}
    for (section, key), entry in declared.items():
        raw = given.get((section, key), entry.default)
        if raw is None:
            raise ScenarioConfigError(f"missing [{section}] {key}")
        settings[section, key] = settings[raw] if isinstance(raw, tuple) \
            else entry.parse(raw)
    seed, trials = settings["scenario", "seed"], settings["scenario", "trials"]
    config_hash = hashlib.sha256(
        text.encode() + f"|seed={seed}|trials={trials}".encode()).hexdigest()[:16]
    config = ScenarioConfig(MappingProxyType(settings), config_hash, path.parent.resolve())
    try:
        ticks = kind.row_ticks(config)
    except ArithmeticError:   # a step count that overflows
        ticks = math.inf
    if not 1 <= ticks <= TICKS_MAX:
        raise ScenarioConfigError(
            f"a row would run {ticks:.6g} control ticks, set by "
            f"{', '.join(f'[{s}] {k}' for s, k in kind.TICKS_SET_BY)}; "
            f"need 1 to {TICKS_MAX}")
    run_ticks = trials * len(kind.VARIANTS) * ticks
    if run_ticks > RUN_TICKS_MAX:
        raise ScenarioConfigError(
            f"[scenario] trials = {trials} would run {run_ticks:.6g} control "
            f"ticks ({len(kind.VARIANTS)} variants of {ticks} ticks per row); "
            f"need at most {RUN_TICKS_MAX}")
    return config


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
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(out_dir / f"metrics_{self.variant}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "value"])
            for name in sorted(self.metrics):
                writer.writerow([name, repr(self.metrics[name])])
        return path


def build_report(config: ScenarioConfig, variant: str, metrics: dict,
                 criteria: list, notes=(), episode=None, out_dir=None
                 ) -> ScenarioReport:
    """The report of one variant of a run.

    Success is that every declared criterion holds; a metric that is absent
    fails its criterion. A metric's threshold text joins its criteria with
    " and ". A recorded episode is exported to out_dir/episode_<variant> and
    named in the report.
    """
    thresholds = {}
    for c in criteria:
        thresholds.setdefault(c.metric, []).append(c.describe())
    report = ScenarioReport(config.scenario_id, config.kind, variant, config.seed,
                            config.trials, metrics,
                            {m: " and ".join(t) for m, t in thresholds.items()},
                            all(c.check(metrics) for c in criteria),
                            config.config_hash, list(notes))
    if episode is not None:
        report.episode_dir = str(Path(out_dir) / f"episode_{variant}")
        export_csv(episode, report.episode_dir)
    return report


def load_report(path) -> ScenarioReport:
    with open(path) as fh:
        return ScenarioReport(**json.load(fh))


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
