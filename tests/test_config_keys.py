"""Every scenario config key is declared once, checked at load, and read.

Each scenario kind declares its keys (section, key, type, default, range) in
its module's KEYS table. These tests put bad values into every declared
numeric key of every shipped config and load it, check that each declared
key is read by a run and each shipped key is declared, and check the tables
of docs/formats.md against the declared ones.
"""

import configparser
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from contactctl.bilateral import GripperParams
from contactctl.compliance import StiffnessSchedule
from contactctl.impedance import ImpedanceConfig
from contactctl.scenarios import KINDS, load_scenario_config, run_scenario
from contactctl.scenarios.base import (RUN_TICKS_MAX, SCENARIO_KEYS, TICKS_MAX, Key,
                                       ScenarioConfig, ScenarioConfigError)
from contactctl.scenarios.bottle import GRIPPER_KEYS, gripper_params
from contactctl.scenarios.wiping import wiping_setup
from conftest import load_edited

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted((ROOT / "configs").glob("*.ini"))


def _kind(path: Path) -> str:
    cfg = configparser.ConfigParser()
    cfg.read(path)
    return cfg["scenario"]["kind"]


def _numeric_keys():
    for path in SHIPPED:
        for key in KINDS[_kind(path)].KEYS:
            if key.type is not str:
                yield pytest.param(path, key, id=f"{path.stem}-{key.section}-{key.name}")


def _outside(key) -> list:
    """Values just outside a key's declared range, as INI text."""
    step = (lambda x, to: x + (1 if to > x else -1)) if key.type is int \
        else (lambda x, to: float(np.nextafter(x, to)))
    rng = key.range
    if rng == "finite":
        return []
    if rng[0] == ">":
        op, low = rng.split()
        low = key.type(float(low))
        return [repr(low if op == ">" else step(low, -math.inf))]
    low, high = (float(v) for v in rng[1:-1].split(","))
    return [repr(low if rng[0] == "(" else step(low, -math.inf)),
            repr(high if rng[-1] == ")" else step(high, math.inf))]


def _load_with(path: Path, tmp_path: Path, section: str, key: str, text: str):
    return load_edited(path, tmp_path, {(section, key): text})


@pytest.mark.parametrize("path, key", _numeric_keys())
def test_bad_value_of_every_numeric_key_fails_at_load(tmp_path, path, key):
    # NaN, both infinities and each value just outside the declared range
    # raise a config error naming the key, before anything is set up
    default = key.default if isinstance(key.default, str) else "1"
    rest = default.split()[1:] if key.type not in (int, float) else []
    for bad in ["nan", "inf", "-inf"] + _outside(key):
        with pytest.raises(ScenarioConfigError) as info:
            _load_with(path, tmp_path, key.section, key.name, " ".join([bad] + rest))
        assert f"[{key.section}] {key.name}" in str(info.value), bad


@pytest.mark.parametrize("name, section, key, text", [
    ("wiping", "wiping", "slide_s", "1e12"), ("wiping", "plant", "dt", "0"),
    ("bottle_pick", "bottle", "hold_s", "1e12"),
    ("selective_release", "release", "duration_s", "1e12"),
    ("selective_release", "release", "duration_s", "0"),
    ("bilateral_quality", "quality", "duration_s", "1e12"),
    ("bilateral_quality", "quality", "duration_s", "0"),
    ("gravity_verification", "gravity", "hold_s", "1e12")])
def test_run_length_is_bounded_at_load(tmp_path, name, section, key, text):
    # a row needs at least one control tick and at most TICKS_MAX, counted
    # before anything is allocated; the error names the keys that set it
    with pytest.raises(ScenarioConfigError, match="control ticks") as info:
        _load_with(ROOT / "configs" / f"{name}.ini", tmp_path, section, key, text)
    assert f"[{section}] {key}" in str(info.value)


@pytest.mark.parametrize("chunk_len, horizon, named", [
    ("25000", "25000", r"control ticks, set by .*\[compliance\] chunk_len"),
    ("16", "17", r"\[compliance\] horizon must be <= chunk_len")],
    ids=["chunks_past_ticks_max", "horizon_past_chunk"])
def test_wiping_chunks_that_cannot_run_fail_at_load(tmp_path, chunk_len, horizon,
                                                    named):
    # a row runs the first `horizon` commands of every chunk: chunks longer
    # than the script pad it to 25 000 commands, over TICKS_MAX at 50 ticks
    # each, and a horizon past its chunk has no rows to run
    text = (ROOT / "configs" / "wiping.ini").read_text()
    bad = tmp_path / "wiping.ini"
    bad.write_text(text.replace("chunk_len = 16\nhorizon = 16",
                                f"chunk_len = {chunk_len}\nhorizon = {horizon}"))
    with pytest.raises(ScenarioConfigError, match=named):
        load_scenario_config(bad)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_run_of_too_many_trials_fails_at_load(path):
    # all rows of a run together are bounded too, from the parsed values:
    # 10**9 trials fail at load, before any (ticks, rows) log is allocated;
    # bilateral_quality runs one trial, so its trials key allows only 1
    with pytest.raises(ScenarioConfigError, match=r"\[scenario\] trials") as info:
        load_scenario_config(path, trials_override=10**9)
    bound = "in [1, 1]" if _kind(path) == "bilateral_quality" else str(RUN_TICKS_MAX)
    assert bound in str(info.value)


def test_gravity_trials_come_only_from_scenario_trials(tmp_path):
    # the Monte-Carlo loop runs [scenario] trials, which RUN_TICKS_MAX
    # bounds; there is no second trial count to leave unbounded
    with pytest.raises(ScenarioConfigError, match=r"\[gravity\] mc_trials"):
        _load_with(ROOT / "configs" / "gravity_verification.ini", tmp_path,
                   "gravity", "mc_trials", "1000000000")


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_config_holds_only_declared_keys(path):
    cfg = configparser.ConfigParser()
    cfg.read(path)
    declared = {(key.section, key.name) for key in KINDS[_kind(path)].KEYS}
    held = {(section, key) for section in cfg.sections() for key in cfg[section]}
    assert held - declared == set()
    load_scenario_config(path)


class _Reads(dict):
    """A parsed section that logs the keys read from it."""

    def __init__(self, section, values, log):
        super().__init__(values)
        self.section, self.log = section, log

    def __getitem__(self, key):
        self.log.add((self.section, key))
        return super().__getitem__(key)

    def __iter__(self):   # makes `**section` read through __getitem__
        return super().__iter__()


def _log_reads(monkeypatch) -> set:
    """The set to which ScenarioConfig now adds each (section, key) read."""
    log = set()
    value = ScenarioConfig.value

    def logged_value(self, section, key):
        log.add((section, key))
        return value(self, section, key)

    def logged_values(self, section):
        return _Reads(section, {k: value(self, section, k)
                                for s, k in self.settings if s == section}, log)

    monkeypatch.setattr(ScenarioConfig, "value", logged_value)
    monkeypatch.setattr(ScenarioConfig, "values", logged_values)
    return log


def _short_run(path: Path, tmp_path: Path):
    """The config at `path` at one trial, loaded from a copy with fewer
    ticks and the same reads."""
    shorter = {("wiping", "slide_s"): "0.2", ("quality", "duration_s"): "0.5"}
    declared = {(key.section, key.name) for key in KINDS[_kind(path)].KEYS}
    return load_edited(path, tmp_path, {k: v for k, v in shorter.items() if k in declared},
                       trials_override=1)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_every_declared_key_is_read_by_a_run(monkeypatch, tmp_path, path):
    config = _short_run(path, tmp_path)
    log = _log_reads(monkeypatch)
    run_scenario(config)
    # [scenario] is read by the loader itself
    unread = {k for k in config.settings if k[0] != "scenario"} - log
    assert unread == set()


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_each_key_is_parsed_once_at_load_and_never_by_a_run(monkeypatch, tmp_path,
                                                           path):
    # a loaded config holds every value parsed and checked, in declared order:
    # a run only looks values up, and no vector it is handed can change
    parsed = []
    parse = Key.parse

    def logged_parse(key, text):
        parsed.append((key.section, key.name))
        return parse(key, text)

    monkeypatch.setattr(Key, "parse", logged_parse)
    config = _short_run(path, tmp_path)
    keys = KINDS[config.kind].KEYS
    assert parsed == [(key.section, key.name) for key in keys]
    for key in keys:
        if key.type not in (int, float, str):
            assert not config.value(key.section, key.name).flags.writeable, key.name
    run_scenario(config)
    assert len(parsed) == len(keys)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_row_ticks_reads_exactly_its_ticks_set_by_keys(monkeypatch, path):
    # a too-long row's error names TICKS_SET_BY as the keys that set it
    config = load_scenario_config(path)
    kind = KINDS[config.kind]
    log = _log_reads(monkeypatch)
    kind.row_ticks(config)
    assert log == set(kind.TICKS_SET_BY)


@pytest.mark.parametrize("name", ["bottle_pick", "bilateral_quality", "wiping"])
def test_omitted_keys_build_the_class_defaults(tmp_path, name):
    # the [gripper], [gains] and [compliance] keys and [plant] dt take their
    # defaults from the fields of the classes they build, so a config that
    # omits them builds each class as its no-argument construction does
    cfg = configparser.ConfigParser()
    cfg.read(ROOT / "configs" / f"{name}.ini")
    for section in ("gripper", "gains", "compliance"):
        cfg.remove_section(section)
    if cfg.has_section("plant"):
        cfg.remove_option("plant", "dt")
        cfg["plant"]["chain"] = str(ROOT / "configs" / cfg["plant"]["chain"])
    path = tmp_path / f"{name}.ini"
    with open(path, "w") as fh:
        cfg.write(fh)
    config = load_scenario_config(path)
    if name == "wiping":
        setup = wiping_setup(config)
        built = [(ImpedanceConfig(), setup.gains), (StiffnessSchedule(), setup.schedule)]
    else:
        built = [(GripperParams(), gripper_params(config))]
    for default, made in built:
        for f in fields(default):
            assert np.array_equal(getattr(made, f.name), getattr(default, f.name)), \
                f"{type(default).__name__}.{f.name}"


def _render(key) -> list:
    """A declared key as a docs/formats.md table row."""
    kind = {float: "float", int: "int", str: "string"}.get(key.type) \
        or f"{key.type} floats"
    if key.default is None:
        default = "required"
    elif isinstance(key.default, tuple):
        default = "= [{}] {}".format(*key.default)
    else:
        default = f"`{key.default}`"
    rng = "" if key.type is str else key.range
    return [f"`{key.section}`", f"`{key.name}`", kind, default, rng]


def _docs_tables() -> dict:
    """Heading text -> rows of the table that follows it in docs/formats.md."""
    tables, heading = {}, None
    for line in (ROOT / "docs" / "formats.md").read_text().splitlines():
        if line.startswith("#"):
            heading = line.lstrip("# ")
        elif line.startswith("| `") and heading is not None:
            tables.setdefault(heading, []).append(
                [cell.strip() for cell in line.strip("|").split("|")])
    return tables


def test_docs_tables_match_declared_keys():
    tables = _docs_tables()
    assert tables["Keys of every kind"] == [_render(k) for k in SCENARIO_KEYS]
    assert tables["Keys of `[gripper]`"] == [_render(k) for k in GRIPPER_KEYS]
    for kind, module in KINDS.items():
        assert tables[f"Keys of `{kind}`"] \
            == [_render(k) for k in module.KEYS
                if k not in SCENARIO_KEYS and k not in GRIPPER_KEYS], kind
    for bound in (TICKS_MAX, RUN_TICKS_MAX):
        assert f"{bound:_}".replace("_", " ") in (ROOT / "docs" / "formats.md").read_text()
