import csv
import io
import json
import math
import shutil
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import align_oracle
import episode_csv_oracle
from contactctl import episodes
from contactctl.cli import main
from contactctl.compliance import ACTION_SCHEMA
from contactctl.episodes import (Episode, EpisodeError, StreamSpec, export_csv,
                                 load_episode, replay_actions,
                                 validate_episode_dir, write_float_rows)


def basic_episode():
    return Episode("ep1", [StreamSpec("pose", 200.0, ("px", "py", "pz"), "pose"),
                           StreamSpec("wrench", 1000.0,
                                      ("fx", "fy", "fz", "tx", "ty", "tz"),
                                      "wrench")],
                   config_hash="abc123")


def action_episode(n_rows, rate=10.0):
    episode = Episode("acts", [StreamSpec("action", rate, ACTION_SCHEMA, "action")])
    rng = np.random.default_rng(0)
    for i in range(n_rows):
        row = np.zeros(13)
        row[0] = 0.01
        row[3:9] = [1, 0, 0, 0, 1, 0]
        row[9:12] = rng.normal(size=3)
        row[12] = 0.05
        episode.record("action", i / rate, row)
    return episode


# ---------------------------------------------------------------------------
# recording

def test_record_appends():
    episode = basic_episode()
    episode.record("pose", 0.001, [1.0, 2.0, 3.0])
    episode.record("pose", 0.002, [4.0, 5.0, 6.0])
    assert len(episode.rows("pose")) == 2


def test_record_rejects_non_monotonic():
    episode = basic_episode()
    episode.record("pose", 0.002, [1.0, 2.0, 3.0])
    with pytest.raises(EpisodeError, match="non-monotonic"):
        episode.record("pose", 0.001, [4.0, 5.0, 6.0])
    for t in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(EpisodeError, match="non-finite"):
            episode.record("pose", t, [4.0, 5.0, 6.0])
    assert episode.rows("pose") == [[1.0, 2.0, 3.0]]


def test_record_rejects_unknown_stream_and_bad_arity():
    episode = basic_episode()
    with pytest.raises(EpisodeError, match="unknown stream"):
        episode.record("depth", 0.0, [1.0])
    with pytest.raises(EpisodeError, match="expected 3 values"):
        episode.record("pose", 0.0, [1.0, 2.0])


def test_record_rate_counting_oracle():
    rates = {"pose": (200.0, 3, "pose"), "wrench": (1000.0, 6, "wrench"),
             "gripper": (500.0, 2, "gripper"), "tactile": (30.0, 126, "tactile"),
             "action": (10.0, 13, "action"), "frames": (30.0, 1, "image_ref")}
    specs = []
    for name, (rate, width, kind) in rates.items():
        schema = ACTION_SCHEMA if kind == "action" else \
            tuple(f"c{i}" for i in range(width))
        specs.append(StreamSpec(name, rate, schema, kind))
    episode = Episode("rates", specs)
    duration = 10.0
    for name, (rate, width, kind) in rates.items():
        n = int(round(rate * duration))
        for i in range(n):
            values = [f"img_{i}.png"] if kind == "image_ref" else [0.0] * width
            episode.record(name, i / rate, values)
    for name, (rate, _w, _k) in rates.items():
        assert abs(len(episode.rows(name)) - rate * duration) <= 1


_TIMES = st.one_of(st.sampled_from([0.0, 0.001, 0.002, 0.5, 1.0, -1.0,
                                     float("nan"), float("inf"), float("-inf")]),
                   st.floats(-2.0, 2.0))


@st.composite
def record_blocks(draw):
    """An earlier row or none, then a block: stream, times, values."""
    earlier = draw(st.lists(st.floats(-2.0, 2.0), max_size=1))
    stream = draw(st.sampled_from(["pose", "wrench", "no_such_stream"]))
    times = draw(st.lists(_TIMES, min_size=1, max_size=6))
    width = draw(st.sampled_from([3, 6, 2]))
    values = draw(st.lists(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                                    min_size=width, max_size=width),
                           min_size=len(times), max_size=len(times)))
    return earlier, stream, times, np.array(values, dtype=float).reshape(-1, width)


def _state(episode):
    # repr tells -0.0 from 0.0 and compares NaN equal to NaN
    return repr((episode._times, episode._rows))


@settings(max_examples=300, deadline=None)
@given(record_blocks())
def test_record_block_equals_record_loop(case):
    # a block leaves what a loop of record calls leaves, or raises the error
    # of the loop's first bad row and stores nothing
    earlier, stream, times, values = case

    def outcome(write):
        episode = basic_episode()
        for t in earlier:
            episode.record("pose", t, [0.0, 0.0, 0.0])
        before = _state(episode)
        try:
            write(episode)
        except EpisodeError as exc:
            return str(exc), before, _state(episode)
        return None, before, _state(episode)

    def loop(episode):
        for t, row in zip(times, values):
            episode.record(stream, t, row)

    want, _, loop_state = outcome(loop)
    got, before, block_state = outcome(
        lambda episode: episode.record_block(stream, times, values))
    assert got == want
    assert block_state == (before if want else loop_state)


def test_record_block_rejects_mismatched_and_reference_blocks():
    episode = basic_episode()
    with pytest.raises(EpisodeError, match="one row of values per timestamp"):
        episode.record_block("pose", [0.0, 0.1], np.zeros((3, 3)))
    with pytest.raises(EpisodeError, match="one row of values per timestamp"):
        episode.record_block("pose", [0.0, 0.1, 0.2], np.zeros(3))
    refs = Episode("refs", [StreamSpec("rgb", 30.0, ("path",), "image_ref")])
    with pytest.raises(EpisodeError, match="one row at a time"):
        refs.record_block("rgb", [0.0], [["a.png"]])
    episode.record_block("pose", [], np.zeros((0, 3)))
    assert episode.rows("pose") == []


def test_record_rejects_a_string_row():
    # a string is not a row of its characters: "12" is not [1.0, 2.0], as
    # record_block already rules for the same row
    episode = Episode("s", [StreamSpec("s", 10.0, ("a", "b"), "wrench"),
                            StreamSpec("cam", 30.0, ("path",), "image_ref")])
    for row in ("12", b"12"):
        with pytest.raises(EpisodeError, match="stream 's': a row is a sequence"):
            episode.record("s", 0.0, row)
    with pytest.raises(EpisodeError, match="stream 'cam': a row is a sequence"):
        episode.record("cam", 0.0, "a")
    with pytest.raises(EpisodeError, match="stream 's'"):
        episode.record_block("s", [0.1], ["34"])
    assert episode.rows("s") == [] and episode.rows("cam") == []


@pytest.mark.parametrize("how", ["record_block", "record"])
def test_a_recorded_stream_holds_about_its_float64_bytes(how):
    # 12 s of a 1 kHz wrench stream costs about 8 bytes a value, not a
    # Python float object in a per-row list for each
    t = np.arange(12000) / 1000.0
    values = np.random.default_rng(0).normal(size=(len(t), 6))
    tracemalloc.start()
    try:
        episode = Episode("mem", [StreamSpec("w", 1000.0, ("fx", "fy", "fz", "tx", "ty",
                                                           "tz"), "wrench")])
        if how == "record_block":
            episode.record_block("w", t, values)
        else:
            for tk, row in zip(t, values):
                episode.record("w", tk, row)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(episode.times("w")) == len(t)
    assert held <= 1.5 * (t.nbytes + values.nbytes)


# ---------------------------------------------------------------------------
# alignment

def test_align_exact_time_zero_staleness():
    episode = basic_episode()
    episode.record("pose", 0.10, [1.0, 2.0, 3.0])
    episode.record("pose", 0.20, [4.0, 5.0, 6.0])
    index, staleness = episode.align(0.20, ["pose"])["pose"]
    assert staleness == 0.0
    assert episode.rows("pose")[index] == [4.0, 5.0, 6.0]


def test_align_zero_order_hold_staleness_bound():
    episode = Episode("tac", [StreamSpec("tactile", 30.0, ("v",), "tactile")])
    period = 1.0 / 30.0
    n = 60
    for i in range(n):
        episode.record("tactile", i * period, [float(i)])
    # exhaustive 1 kHz query over the covered span, in one call
    t = np.arange(int((n - 1) * period * 1000)) / 1000.0
    index, staleness = episode.align(t, ["tactile"])["tactile"]
    assert np.all((0.0 <= staleness) & (staleness < period))
    assert np.all(episode.times("tactile")[index] <= t)


def test_align_single_stream_trivial():
    episode = Episode("one", [StreamSpec("pose", 10.0, ("x",), "pose")])
    episode.record("pose", 0.5, [7.0])
    index, _ = episode.align(0.9, ["pose"])["pose"]
    assert episode.rows("pose")[index] == [7.0]


def test_align_before_first_sample_errors():
    episode = basic_episode()
    episode.record("pose", 0.5, [1.0, 2.0, 3.0])
    with pytest.raises(EpisodeError, match="precedes"):
        episode.align(0.1, ["pose"])
    # an array names its first query before the first row
    with pytest.raises(EpisodeError, match=r"t=0\.2 precedes first sample of stream 'pose'"):
        episode.align([0.6, 0.2, 0.1], ["pose"])
    with pytest.raises(EpisodeError, match="unknown stream 'grip'"):
        episode.align(0.6, ["grip"])


def test_align_with_jittered_rates(rng):
    # +-20% timestamp jitter must still align with bounded staleness
    period = 0.01
    episode = Episode("jit", [StreamSpec("s", 100.0, ("v",), "wrench")])
    t = 0.0
    times = []
    for i in range(200):
        episode.record("s", t, [float(i)])
        times.append(t)
        t += period * (1.0 + rng.uniform(-0.2, 0.2))
    tq = np.arange(50, 1900) / 1000.0
    tq = tq[(tq >= times[0]) & (tq <= times[-1])]
    index, staleness = episode.align(tq, ["s"])["s"]
    assert np.all(episode.times("s")[index] <= tq)
    assert np.all(staleness < period * 1.2 + 1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-40, 40), max_size=12, unique=True), st.data())
def test_align_matches_a_per_query_bisect(ticks, data):
    # queries at sample times, between them, before the first, repeated:
    # the same rows and staleness bits as one query at a time, or the
    # error of the first query that precedes the stream
    times = sorted(k / 8.0 for k in ticks)
    episode = Episode("prop", [StreamSpec("s", 8.0, ("v",), "wrench")])
    episode.record_block("s", times, np.arange(len(times), dtype=float)[:, None])
    query = st.floats(-6.0, 6.0)
    if times:
        query = st.one_of(query, st.sampled_from(times))
    queries = data.draw(st.lists(query, min_size=1, max_size=16))
    queries += data.draw(st.lists(st.sampled_from(queries), max_size=4))
    try:
        want = [align_oracle.hold(times, t, "s") for t in queries]
    except EpisodeError as exc:
        with pytest.raises(EpisodeError) as info:
            episode.align(queries, ["s"])
        assert str(info.value) == str(exc)
        return
    index, staleness = episode.align(queries, ["s"])["s"]
    assert list(zip(index.tolist(), staleness.tolist())) == want


# ---------------------------------------------------------------------------
# replay

def test_replay_exact_division():
    chunks = replay_actions(action_episode(32), 16)
    assert len(chunks) == 2
    assert all(len(c) == 16 for c in chunks)


def test_replay_remainder_padded():
    chunks = replay_actions(action_episode(33), 16)
    assert len(chunks) == 3
    last = chunks[-1]
    assert np.array_equal(last.steps[0].as_array(), last.steps[-1].as_array())


def test_replay_conservation():
    for rows in (1, 7, 16, 17, 40):
        chunks = replay_actions(action_episode(rows), 16)
        total = sum(len(c) for c in chunks)
        padding = total - rows
        assert 0 <= padding < 16


def test_replay_missing_stream():
    episode = basic_episode()
    with pytest.raises(EpisodeError, match="action"):
        replay_actions(episode, 16)


def test_replay_rejects_wrong_schema():
    episode = Episode("bad", [StreamSpec("action", 10.0, ("a", "b"), "action")])
    episode.record("action", 0.0, [1.0, 2.0])
    with pytest.raises(EpisodeError, match="does not carry actions"):
        replay_actions(episode, 4)


# ---------------------------------------------------------------------------
# persistence

def test_export_load_value_exact(tmp_path, rng):
    episode = basic_episode()
    awkward = [0.1, 1.0 / 3.0, np.pi, 1e-17, -2.5e16, 7.0]
    for i in range(20):
        episode.record("pose", 0.005 * (i + 1), rng.normal(size=3))
        episode.record("wrench", 0.005 * (i + 1) + 0.0001,
                       rng.permutation(awkward))
    export_csv(episode, tmp_path / "ep")
    loaded = load_episode(tmp_path / "ep")
    assert loaded.episode_id == episode.episode_id
    assert loaded.config_hash == "abc123"
    for name in ("pose", "wrench"):
        assert np.array_equal(loaded.times(name), episode.times(name))
        assert np.array_equal(loaded.values(name), episode.values(name))


# values whose repr is easy to get wrong, then any float at all
AWKWARD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                  2.2250738585072014e-308 / 3.0, 1e16, -1e16, 1e-5, 1e22, 0.1]
CSV_FLOATS = st.one_of(st.sampled_from(AWKWARD_FLOATS), st.floats())
# csv must quote the comma, the quote and the line breaks
REF_TEXT = st.text(alphabet=st.sampled_from('ab/.0 ,"\n\r'), max_size=8)


@st.composite
def export_streams(draw):
    """(kind, schema, times, rows) of one stream to export."""
    kind = draw(st.sampled_from(["wrench", "tactile", "image_ref"]))
    columns = draw(st.sampled_from([1, 2, 6, 126]))
    # the header goes through csv quoting too
    schema = (draw(REF_TEXT),) + tuple(f"c{i}" for i in range(1, columns))
    times = sorted(draw(st.lists(st.floats(-1e6, 1e6), unique=True, max_size=12)))
    value = REF_TEXT if kind == "image_ref" else CSV_FLOATS
    rows = [draw(st.lists(value, min_size=columns, max_size=columns))
            for _ in times]
    return kind, schema, times, rows


@settings(max_examples=200, deadline=None)
@given(export_streams(), st.sampled_from([1, 2, 5, 1024]))
def test_export_csv_writes_the_csv_writer_bytes(tmp_path_factory, case, chunk):
    # the column-wise writer gives csv.writer's bytes for every stream, at
    # every chunk size, quoting included for reference strings
    kind, schema, times, rows = case
    spec = StreamSpec("s", 10.0, schema, kind)
    episode = Episode("oracle", [spec])
    for t, row in zip(times, rows):
        episode.record("s", t, row)
    out = tmp_path_factory.mktemp("export")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(episodes, "CSV_CHUNK_ROWS", chunk)
        export_csv(episode, out)
    assert (out / "s.csv").read_bytes() == episode_csv_oracle.stream_csv_bytes(
        spec, episode.times("s").tolist(), episode.rows("s"))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda k: st.lists(
    st.lists(CSV_FLOATS, min_size=k, max_size=k), max_size=9)),
    st.sampled_from([1, 4, 1024]))
def test_write_float_rows_writes_the_csv_writer_bytes(rows, chunk):
    buf = io.StringIO(newline="")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(episodes, "CSV_CHUNK_ROWS", chunk)
        write_float_rows(buf, np.array(rows).reshape(len(rows), -1 if rows else 0))
    assert buf.getvalue().encode() == episode_csv_oracle.rows_csv_bytes(rows)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


# exact through repr and float(): NaN only as the canonical quiet NaN
EXACT_FLOATS = st.one_of(st.sampled_from(AWKWARD_FLOATS), st.floats(allow_nan=False))


@st.composite
def recording_plans(draw):
    """Times and 3-column rows of one stream, cut into calls: (record or
    record_block, start, stop, what to read after the call)."""
    ticks = sorted(draw(st.lists(st.integers(-10 ** 6, 10 ** 6), unique=True,
                                 max_size=40)))
    rows = [draw(st.lists(EXACT_FLOATS, min_size=3, max_size=3)) for _ in ticks]
    calls, start = [], 0
    while start < len(ticks):
        stop = draw(st.integers(start + 1, len(ticks)))
        calls.append((draw(st.sampled_from(["record", "record_block"])), start, stop,
                      draw(st.sampled_from(["times", "values", "rows", "align"]))))
        start = stop
    return [k / 1000.0 for k in ticks], rows, calls


@settings(max_examples=50, deadline=None)
@given(recording_plans())
def test_interleaved_recording_equals_recording_row_by_row(tmp_path_factory, plan):
    # any mix of record and record_block, read between calls, stores what
    # one record per row stores, bit for bit through export and load; what
    # a read returned never changes, and no read blocks a later record
    times, rows, calls = plan
    spec = StreamSpec("s", 1000.0, ("a", "b", "c"), "wrench")
    one_by_one, episode = Episode("e", [spec]), Episode("e", [spec])
    for t, row in zip(times, rows):
        one_by_one.record("s", t, row)
    returned = []
    for how, start, stop, read in calls:
        if how == "record_block":
            episode.record_block("s", times[start:stop], np.array(rows[start:stop]))
        else:
            for t, row in zip(times[start:stop], rows[start:stop]):
                episode.record("s", t, row)
        got = episode.align(times[:stop], ["s"])["s"] if read == "align" \
            else getattr(episode, read)("s")
        returned.append((got, _bits(got)))
    for read in ("times", "values", "rows"):
        assert _bits(getattr(episode, read)("s")) \
            == _bits(getattr(one_by_one, read)("s"))
    assert all(type(v) is float for row in episode.rows("s") for v in row)
    assert all(_bits(got) == bits for got, bits in returned)
    out = tmp_path_factory.mktemp("export")
    export_csv(episode, out)
    assert (out / "s.csv").read_bytes() \
        == episode_csv_oracle.stream_csv_bytes(spec, times, rows)
    loaded = load_episode(out)
    assert _bits(loaded.times("s")) == _bits(times)
    assert _bits(loaded.values("s")) == _bits(np.reshape(rows, (-1, 3)))


def test_export_load_image_refs(tmp_path):
    episode = Episode("imgs", [StreamSpec("cam", 30.0, ("path",), "image_ref")])
    episode.record("cam", 0.0, ["frames/000.png"])
    episode.record("cam", 0.04, ["frames/001.png"])
    export_csv(episode, tmp_path / "ep")
    loaded = load_episode(tmp_path / "ep")
    assert loaded.rows("cam") == [["frames/000.png"], ["frames/001.png"]]


def test_load_missing_stream_file_names_stream(tmp_path):
    episode = basic_episode()
    episode.record("pose", 0.0, [1.0, 2.0, 3.0])
    episode.record("wrench", 0.0, [0.0] * 6)
    export_csv(episode, tmp_path / "ep")
    (tmp_path / "ep" / "wrench.csv").unlink()
    with pytest.raises(EpisodeError, match="wrench"):
        load_episode(tmp_path / "ep")


def test_load_corrupt_manifest(tmp_path):
    d = tmp_path / "ep"
    d.mkdir()
    (d / "manifest.json").write_text("{not json")
    with pytest.raises(EpisodeError, match="corrupt manifest"):
        load_episode(d)


def test_load_schema_mismatch(tmp_path):
    episode = basic_episode()
    episode.record("pose", 0.0, [1.0, 2.0, 3.0])
    episode.record("wrench", 0.0, [0.0] * 6)
    export_csv(episode, tmp_path / "ep")
    path = tmp_path / "ep" / "pose.csv"
    content = path.read_text().splitlines()
    content[0] = "t,wrong,schema,here"
    path.write_text("\n".join(content) + "\n")
    with pytest.raises(EpisodeError, match="schema mismatch"):
        load_episode(tmp_path / "ep")


def test_golden_episode_fixture():
    episode = load_episode("tests/data/golden_episode")
    assert episode.episode_id == "golden"
    assert set(episode.streams) == {"pose", "gripper"}
    assert len(episode.rows("pose")) == 3
    held = episode.align(0.015, ["pose", "gripper"])
    index, staleness = held["pose"]
    assert episode.rows("pose")[index] == [0.41, 0.0, 0.2]
    assert episode.times("pose")[index] == 0.01
    assert np.isclose(staleness, 0.005)
    index, staleness = held["gripper"]
    assert episode.rows("gripper")[index] == [0.08]
    assert np.isclose(staleness, 0.015)
    held = episode.align([0.0, 0.015, 0.02], ["pose", "gripper"])
    assert held["pose"][0].tolist() == [0, 1, 2]
    assert held["gripper"][0].tolist() == [0, 0, 1]


# ---------------------------------------------------------------------------
# validation

def test_validate_ok(tmp_path):
    episode = basic_episode()
    episode.record("pose", 0.0, [1.0, 2.0, 3.0])
    episode.record("wrench", 0.0, [0.0] * 6)
    export_csv(episode, tmp_path / "ep")
    assert validate_episode_dir(tmp_path / "ep") == []


def test_validate_reports_non_monotonic_row(tmp_path):
    episode = basic_episode()
    for i in range(3):
        episode.record("pose", 0.01 * (i + 1), [1.0, 2.0, 3.0])
        episode.record("wrench", 0.01 * (i + 1), [0.0] * 6)
    export_csv(episode, tmp_path / "ep")
    path = tmp_path / "ep" / "pose.csv"
    lines = path.read_text().splitlines()
    lines[2], lines[3] = lines[3], lines[2]   # swap rows: non-monotonic
    path.write_text("\n".join(lines) + "\n")
    violations = validate_episode_dir(tmp_path / "ep")
    assert any("pose" in v and "non-monotonic" in v for v in violations)


def test_validate_reports_missing_stream(tmp_path):
    episode = basic_episode()
    episode.record("pose", 0.0, [1.0, 2.0, 3.0])
    episode.record("wrench", 0.0, [0.0] * 6)
    export_csv(episode, tmp_path / "ep")
    (tmp_path / "ep" / "wrench.csv").unlink()
    violations = validate_episode_dir(tmp_path / "ep")
    assert any("wrench" in v and "missing" in v for v in violations)


def test_stream_spec_validation():
    with pytest.raises(EpisodeError):
        StreamSpec("x", 0.0, ("a",), "pose")
    with pytest.raises(EpisodeError):
        StreamSpec("x", 10.0, (), "pose")
    with pytest.raises(EpisodeError):
        StreamSpec("x", 10.0, ("a",), "video")
    with pytest.raises(EpisodeError):
        Episode("dup", [StreamSpec("a", 1.0, ("x",), "pose"),
                        StreamSpec("a", 1.0, ("x",), "pose")])


# ---------------------------------------------------------------------------
# one reader: load_episode raises exactly when validate_episode_dir reports

GOLDEN = "tests/data/golden_episode"


def _manifest_edit(change):
    def edit(d):
        path = d / "manifest.json"
        manifest = json.loads(path.read_text())
        change(manifest)
        path.write_text(json.dumps(manifest))
    return edit


def _pose_row_edit(index, text):
    """Replace line `index` of pose.csv (0 is the header) with `text`."""
    def edit(d):
        path = d / "pose.csv"
        lines = path.read_text().splitlines()
        lines[index] = text
        path.write_text("\n".join(lines) + "\n")
    return edit


def _set_stream(index, key, value):
    return _manifest_edit(lambda m: m["streams"][index].__setitem__(key, value))


MALFORMED = {
    "duplicate_stream_name": _manifest_edit(
        lambda m: m["streams"].append(dict(m["streams"][0]))),
    "stream_without_name": _manifest_edit(lambda m: m["streams"][0].pop("name")),
    "rate_not_a_number": _set_stream(0, "rate_hz", "fast"),
    "streams_not_a_list": _manifest_edit(lambda m: m.__setitem__("streams", 5)),
    "stream_entry_not_an_object": _manifest_edit(
        lambda m: m["streams"].__setitem__(0, "pose")),
    "unhashable_stream_name": _set_stream(0, "name", ["pose"]),
    "unknown_kind": _set_stream(0, "kind", "video"),
    "missing_manifest_key": _manifest_edit(lambda m: m.pop("episode_id")),
    "manifest_not_an_object": lambda d: (d / "manifest.json").write_text("[]"),
    "corrupt_json": lambda d: (d / "manifest.json").write_text("{not json"),
    "missing_stream_file": lambda d: (d / "pose.csv").unlink(),
    "header_mismatch": _pose_row_edit(0, "t,px,py,qz"),
    "bad_timestamp": _pose_row_edit(1, "zero,0.4,0.0,0.2"),
    "bad_value": _pose_row_edit(1, "0.0,abc,0.0,0.2"),
    "field_count": _pose_row_edit(2, "0.01,0.41,0.0"),
    "empty_row": _pose_row_edit(2, ""),
    "repeated_t": _pose_row_edit(2, "0.0,0.41,0.0,0.2"),
    "nan_timestamp": _pose_row_edit(2, "nan,0.41,0.0,0.2"),
    "inf_timestamp": _pose_row_edit(3, "inf,0.42,0.0,0.2"),
    # a field over csv.field_size_limit(), which csv.reader raises on
    "oversize_field": _pose_row_edit(2, "0.01," + "1" * 131073 + ",0.0,0.2"),
    "oversize_header_field": _pose_row_edit(0, "t,px,py," + "z" * 131073),
    # a truncated UTF-8 sequence
    "undecodable_stream": lambda d: (d / "pose.csv").write_bytes(
        (d / "pose.csv").read_bytes() + b"\xc3"),
}


@pytest.mark.parametrize("edit", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_episode_load_and_validate_agree(tmp_path, edit):
    episode_dir = tmp_path / "ep"
    shutil.copytree(GOLDEN, episode_dir)
    edit(episode_dir)
    violations = validate_episode_dir(episode_dir)
    assert violations
    with pytest.raises(EpisodeError) as raised:
        load_episode(episode_dir)
    assert str(raised.value) == violations[0]
    # the CLI reports an invalid episode as a validation failure, never a fault
    for command in (["validate"], ["inspect"],
                    ["plot-data", "--kind", "grasp-force", "--out", str(tmp_path / "plots")]):
        assert main(command + ["--episode", str(episode_dir)]) == 1


@pytest.mark.parametrize("edit, row", [("oversize_field", 3),
                                       ("oversize_header_field", 1)])
def test_oversize_field_is_a_violation_naming_its_row(tmp_path, edit, row):
    assert csv.field_size_limit() == 131072
    episode_dir = tmp_path / "ep"
    shutil.copytree(GOLDEN, episode_dir)
    MALFORMED[edit](episode_dir)
    assert validate_episode_dir(episode_dir) == [
        f"pose.csv row {row}: field larger than field limit (131072)"]


# over 8 KiB of rows, so the bytes after them are decoded after the header
MANY_ROWS = b"".join(b"%d.0,2.0\r\n" % i for i in range(1, 1000))


@pytest.mark.parametrize("kind, body", [
    ("image_ref", b"0.0,a.png\r\n0.1,b.png\xc3"),   # truncated UTF-8 at the end
    ("image_ref", MANY_ROWS + b"1000.0,\xe9.png\r\n1001.0,c.png\r\n"),   # invalid byte
    # a blank line sends the stream to the row reader before the block
    # parse decodes the end of the file
    ("wrench", b"0.0,1.0\r\n\r\n" + MANY_ROWS + b"\xc3"),
    # a bad row in the block the decoder fails in, and a file decoded whole
    ("wrench", MANY_ROWS + b"1000.0,x\r\n1001.0,2.0\r\n\xc3"),
    ("wrench", b"0.0,x\r\n1.0,2.0\r\n\xc3"),
], ids=["image_ref_truncated", "image_ref_invalid", "row_path_truncated",
        "block_path_bad_row_then_truncated", "small_truncated"])
def test_undecodable_stream_ends_the_read_as_in_the_oracle(tmp_path, kind, body):
    # a decode error is not a csv row error: once the decoder fails, every
    # later read fails the same way, so it ends the stream's read with one
    # violation naming the file, after those of the rows before it
    export_csv(Episode("bytes", [StreamSpec("s", 10.0, ("v",), kind)]), tmp_path)
    (tmp_path / "s.csv").write_bytes(b"t,v\r\n" + body)
    violations = []

    def fail(message):
        violations.append(message)
        assert len(violations) < 10, violations[:3]
    episodes._read_episode(tmp_path, fail)
    assert [v for v in violations if "UTF-8" in v] == violations[-1:]
    assert violations[-1].startswith("s.csv: not UTF-8 text: 'utf-8' codec can't decode")
    assert _read_outcome(tmp_path) == _oracle_outcome(tmp_path)


def test_golden_episode_load_and_validate_agree():
    assert validate_episode_dir(GOLDEN) == []
    load_episode(GOLDEN)


# ---------------------------------------------------------------------------
# block reader against the row-by-row oracle

FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def _edit_field(change, field=None):
    """A line edit that changes one field (the last one by default)."""
    def edit(line):
        fields = line.split(",")
        k = len(fields) - 1 if field is None else min(field, len(fields) - 1)
        fields[k] = change(fields[k])
        return [",".join(fields)]
    return edit


# line -> the lines that replace it; each is a way a hand-edited CSV can
# differ from an exported one
LINE_EDITS = {
    "blank_before": lambda line: ["", line],
    "blank": lambda line: [""],
    "spaces_only": lambda line: ["  "],
    "comment_line": lambda line: ["# a comment", line],
    "comment_tail": lambda line: [line + " # note"],
    "quoted": _edit_field(lambda f: f'"{f}"'),
    "underscore": _edit_field(lambda f: "1_000"),
    "digit_underscore": _edit_field(lambda f: f.replace("0", "0_0", 1)),
    "full_width": _edit_field(lambda f: f.translate(FULL_WIDTH)),
    "spaces": _edit_field(lambda f: f" {f} "),
    "unit_separator": _edit_field(lambda f: f + "\x1f"),
    "em_space": _edit_field(lambda f: "\u2003" + f),
    "trailing_comma": lambda line: [line + ","],
    "ragged_short": lambda line: [line.rsplit(",", 1)[0]],
    "ragged_long": lambda line: [line + ",1.0"],
    "value_nan": _edit_field(lambda f: "nan"),
    "value_inf": _edit_field(lambda f: "-inf"),
    "t_nan": _edit_field(lambda f: "nan", 0),
    "t_inf": _edit_field(lambda f: "inf", 0),
    "t_minus_inf": _edit_field(lambda f: "-inf", 0),
    "t_back": _edit_field(lambda f: "-1e300", 0),
    "t_text": _edit_field(lambda f: "zero", 0),
    "duplicate": lambda line: [line, line],
    "long_field": _edit_field(lambda f: "0" * 131072 + f),   # csv.reader rejects it
}


def _edit_stream(path, edits):
    """Apply (body line index, edit name) pairs to a stream CSV's body."""
    header, *body = path.read_bytes().decode().split("\r\n")[:-1]
    for index, name in edits:
        if body:
            i = index % len(body)
            body[i:i + 1] = LINE_EDITS[name](body[i])
    path.write_bytes("".join(line + "\r\n" for line in [header] + body).encode())


def _read_outcome(episode_dir):
    """What load_episode and validate_episode_dir make of a directory:
    the times and rows of each stream (float.hex) or the exception, and
    the violations or the exception."""
    try:
        episode = load_episode(episode_dir)
        loaded = {name: ([t.hex() for t in episode.times(name).tolist()],
                         [[v.hex() for v in row] for row in episode.rows(name)])
                  for name in episode.streams}
    except Exception as exc:   # the oracle's exception, whatever it is
        loaded = (type(exc).__name__, str(exc))
    try:
        violations = validate_episode_dir(episode_dir)
    except Exception as exc:
        violations = (type(exc).__name__, str(exc))
    return loaded, violations


def _oracle_outcome(episode_dir):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(episodes, "_read_stream", episode_csv_oracle.read_stream_rows)
        return _read_outcome(episode_dir)


@st.composite
def edited_episodes(draw):
    """(streams, edits): two numeric streams of exported rows, and the
    (stream, body line, edit) list to apply to their CSVs."""
    streams = []
    for name in ("s0", "s1"):
        columns = draw(st.sampled_from([1, 3]))
        n = draw(st.sampled_from([0, 1, 2, 3, 6, 9]))
        times = sorted(draw(st.lists(st.floats(-1e6, 1e6), unique=True,
                                     min_size=n, max_size=n)))
        rows = [draw(st.lists(CSV_FLOATS, min_size=columns, max_size=columns))
                for _ in times]
        streams.append((StreamSpec(name, 100.0, tuple(f"c{i}" for i in range(columns)),
                                   "wrench"), times, rows))
    edits = draw(st.lists(st.tuples(st.sampled_from(["s0", "s1"]), st.integers(0, 8),
                                    st.sampled_from(sorted(LINE_EDITS))), max_size=3))
    return streams, edits


@settings(max_examples=100, deadline=None)
@given(edited_episodes(), st.sampled_from([1, 2, 4, 256]))
def test_block_reader_matches_the_row_oracle(tmp_path_factory, case, chunk):
    # the block parse keeps the row reader's values, its first error and its
    # violation list, at every chunk size, on whatever a CSV's lines hold
    streams, edits = case
    episode = Episode("edited", [spec for spec, _, _ in streams])
    for spec, times, rows in streams:
        for t, row in zip(times, rows):
            episode.record(spec.name, t, row)
    out = tmp_path_factory.mktemp("edited")
    export_csv(episode, out)
    for name in ("s0", "s1"):
        _edit_stream(out / f"{name}.csv",
                     [(index, edit) for stream, index, edit in edits if stream == name])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(episodes, "CSV_CHUNK_ROWS", chunk)
        got = _read_outcome(out)
    assert got == _oracle_outcome(out)


@pytest.mark.parametrize("line", [257, 258])
@pytest.mark.parametrize("edit", ["blank", "quoted", "full_width", "unit_separator",
                                  "ragged_short", "t_nan", "t_back", "long_field"])
def test_block_reader_matches_the_row_oracle_at_the_chunk_edge(tmp_path, line, edit):
    # lines 2-257 are the first CSV_CHUNK_ROWS-line chunk of a body
    assert episodes.CSV_CHUNK_ROWS == 256
    episode = Episode("edge", [StreamSpec("s", 100.0, ("a", "b"), "wrench")])
    t = np.arange(300) / 100.0
    episode.record_block("s", t, np.column_stack([np.sin(t), t * 1e-3]))
    export_csv(episode, tmp_path)
    _edit_stream(tmp_path / "s.csv", [(line - 2, edit)])
    assert _read_outcome(tmp_path) == _oracle_outcome(tmp_path)


@pytest.mark.parametrize("body", ["", "\r\n", "\r\n\r\n", "0.0,1.0\r\n\r\n"])
def test_reading_a_stream_emits_no_warning(tmp_path, body):
    # numpy's loadtxt warns on a chunk without data; no warning may escape
    export_csv(Episode("quiet", [StreamSpec("pose", 10.0, ("x",), "pose")]), tmp_path)
    (tmp_path / "pose.csv").write_bytes(("t,x\r\n" + body).encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        violations = validate_episode_dir(tmp_path)
        if violations:
            with pytest.raises(EpisodeError):
                load_episode(tmp_path)
        else:
            assert load_episode(tmp_path).rows("pose") == []
    assert violations == _oracle_outcome(tmp_path)[1]
    assert bool(violations) == (body != "")   # every non-empty body has a blank line
