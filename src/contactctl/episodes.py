"""Timestamp-aligned multimodal episode recording, replay, and persistence.

An episode is a manifest (id, stream specs, config hash) plus one
timestamped table per stream. Alignment is zero-order hold: a query time
takes each stream's latest row at or before it, with its staleness, and
never looks into the future. Persistence is a JSON manifest plus one CSV
per stream with floats serialized via repr, so the round trip is
value-exact.
"""

import csv
import json
import math
from array import array
from dataclasses import dataclass
from itertools import count, islice
from pathlib import Path
from typing import Optional

import numpy as np

from .compliance import ACTION_SCHEMA, ActionChunk, ActionStep

FORMAT_VERSION = "1"

STREAM_KINDS = ("pose", "wrench", "gripper", "tactile", "action", "image_ref")

MANIFEST_NAME = "manifest.json"


class EpisodeError(ValueError):
    pass


@dataclass
class StreamSpec:
    name: str
    rate_hz: float
    schema: tuple
    kind: str

    def __post_init__(self):
        self.schema = tuple(self.schema)
        if self.rate_hz <= 0.0:
            raise EpisodeError(f"stream {self.name!r}: rate must be positive")
        if not self.schema:
            raise EpisodeError(f"stream {self.name!r}: empty schema")
        if self.kind not in STREAM_KINDS:
            raise EpisodeError(f"stream {self.name!r}: unknown kind {self.kind!r}")


class Episode:
    """Single-writer episode record; readers are safe after recording stops."""

    def __init__(self, episode_id: str, streams: list, start_time: float = 0.0,
                 config_hash: str = ""):
        names = [s.name for s in streams]
        if len(set(names)) != len(names):
            raise EpisodeError("duplicate stream names")
        self.episode_id = episode_id
        self.start_time = start_time
        self.config_hash = config_hash
        self.streams = {s.name: s for s in streams}
        # times and, for numeric streams, values row after row as float64;
        # an image_ref stream keeps a list of its rows of strings
        self._times = {s.name: array("d") for s in streams}
        self._rows = {s.name: [] if s.kind == "image_ref" else array("d")
                      for s in streams}

    def record(self, stream_name: str, t: float, values) -> None:
        """Append one row; timestamps must be finite and strictly increasing."""
        spec = self.streams.get(stream_name)
        if spec is None:
            raise EpisodeError(f"unknown stream {stream_name!r}")
        if isinstance(values, (str, bytes)):
            raise EpisodeError(f"stream {stream_name!r}: a row is a sequence of "
                               f"values, not {type(values).__name__}")
        values = list(values) if spec.kind == "image_ref" \
            else [float(v) for v in values]
        if len(values) != len(spec.schema):
            raise EpisodeError(
                f"stream {stream_name!r}: expected {len(spec.schema)} values, "
                f"got {len(values)}")
        t = float(t)
        if not math.isfinite(t):
            raise EpisodeError(f"non-finite timestamp on {stream_name!r}: {t}")
        times = self._times[stream_name]
        if times and t <= times[-1]:
            raise EpisodeError(
                f"non-monotonic timestamp on {stream_name!r}: {t} after {times[-1]}")
        times.append(t)
        if spec.kind == "image_ref":
            self._rows[stream_name].append(values)
        else:
            self._rows[stream_name].fromlist(values)

    def record_block(self, stream_name: str, t, values) -> None:
        """Append rows (n, columns) at times (n,) under `record`'s rules.

        The block is checked whole before any row is stored, and a bad block
        raises the EpisodeError that its first bad row would raise from
        `record`. Reference (image_ref) streams take one row at a time.
        """
        spec = self.streams.get(stream_name)
        if spec is None:
            raise EpisodeError(f"unknown stream {stream_name!r}")
        if spec.kind == "image_ref":
            raise EpisodeError(f"stream {stream_name!r} holds references; "
                               "record them one row at a time")
        t = np.asarray(t, dtype=float).reshape(-1)
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or len(values) != len(t):
            raise EpisodeError(f"stream {stream_name!r}: a block needs one row "
                               "of values per timestamp")
        if not len(t):
            return
        if values.shape[1] != len(spec.schema):
            raise EpisodeError(
                f"stream {stream_name!r}: expected {len(spec.schema)} values, "
                f"got {values.shape[1]}")
        times = self._times[stream_name]
        before = np.empty_like(t)   # the time each row must come after
        before[0] = times[-1] if times else -math.inf
        before[1:] = t[:-1]
        bad = ~(np.isfinite(t) & (t > before))
        if bad.any():
            i = int(np.argmax(bad))
            if not math.isfinite(t[i]):
                raise EpisodeError(
                    f"non-finite timestamp on {stream_name!r}: {float(t[i])}")
            raise EpisodeError(f"non-monotonic timestamp on {stream_name!r}: "
                               f"{float(t[i])} after {float(before[i])}")
        times.frombytes(t.tobytes())
        self._rows[stream_name].frombytes(values.tobytes())

    # times() and values() return copies: a view would see later rows, and
    # would keep the buffer from growing (BufferError)
    def times(self, stream_name: str) -> np.ndarray:
        return np.array(self._times[stream_name])

    def rows(self, stream_name: str) -> list:
        """A fresh list of the stream's rows, each a list of its values."""
        if self.streams[stream_name].kind == "image_ref":
            return [list(row) for row in self._rows[stream_name]]
        return self.values(stream_name).tolist()

    def values(self, stream_name: str) -> np.ndarray:
        """Numeric streams as a (rows, columns) array."""
        if self.streams[stream_name].kind == "image_ref":
            raise EpisodeError(f"stream {stream_name!r} holds references, not numbers")
        # reshaped so that a stream without rows is (0, columns) too
        return np.array(self._rows[stream_name], dtype=float).reshape(
            -1, len(self.streams[stream_name].schema))

    def span(self) -> tuple:
        starts = [t[0] for t in self._times.values() if t]
        ends = [t[-1] for t in self._times.values() if t]
        if not starts:
            raise EpisodeError("empty episode")
        return min(starts), max(ends)

    def align(self, t, stream_names: list) -> dict:
        """Zero-order hold at the query time or times t: stream name ->
        (index, staleness) arrays shaped like t, the row each query holds (the
        latest at or before it) and t minus that row's time, for each of the
        named streams."""
        t = np.asarray(t, dtype=float)
        held = {}
        for name in stream_names:
            if name not in self.streams:
                raise EpisodeError(f"unknown stream {name!r}")
            times = self.times(name)
            index = np.searchsorted(times, t, side="right") - 1
            early = index < 0
            if early.any():
                raise EpisodeError(f"t={float(t.flat[np.argmax(early)])} precedes "
                                   f"first sample of stream {name!r}")
            held[name] = (index, t - times[index])
        return held


def replay_actions(episode: Episode, chunk_len: int) -> list:
    """Partition the recorded "action" stream into fixed-length chunks.

    The final partial chunk is padded by repeating its last step.
    """
    if chunk_len < 1:
        raise EpisodeError("chunk_len must be >= 1")
    spec = episode.streams.get("action")
    if spec is None:
        raise EpisodeError("episode has no action stream 'action'")
    if spec.kind != "action" or spec.schema != ACTION_SCHEMA:
        raise EpisodeError("stream 'action' does not carry actions")
    rows = episode.values("action")
    if rows.size == 0:
        raise EpisodeError("empty action stream")
    chunks = []
    for start in range(0, len(rows), chunk_len):
        block = rows[start:start + chunk_len]
        if len(block) < chunk_len:
            pad = np.repeat(block[-1:], chunk_len - len(block), axis=0)
            block = np.vstack([block, pad])
        chunks.append(ActionChunk([ActionStep.from_array(r) for r in block]))
    return chunks


# ---------------------------------------------------------------------------
# persistence

def export_csv(episode: Episode, out_dir) -> list:
    """Write manifest + one CSV per stream; returns the files written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "episode_id": episode.episode_id,
        "start_time": episode.start_time,
        "config_hash": episode.config_hash,
        "streams": [{"name": s.name, "rate_hz": s.rate_hz, "kind": s.kind,
                     "schema": list(s.schema)} for s in episode.streams.values()],
    }
    files = [out_dir / MANIFEST_NAME]
    with open(files[0], "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    for name, spec in episode.streams.items():
        path = out_dir / f"{name}.csv"
        files.append(path)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("t",) + spec.schema)
            if spec.kind == "image_ref":
                # reference strings may need csv quoting
                writer.writerows([repr(t)] + [str(v) for v in row] for t, row
                                 in zip(episode._times[name], episode._rows[name]))
            else:
                write_float_rows(fh, episode.values(name), episode.times(name))
    return files


CSV_CHUNK_ROWS = 256   # rows formatted per write, and lines parsed per loadtxt


def write_float_rows(fh, rows, times=None) -> None:
    """Write a (rows, columns) float array as CSV lines, the bytes csv.writer
    writes for its rows of Python floats.

    A line is the repr of the row's time (when (rows,) `times` is given) and
    of each value, joined by "," and ended by "\r\n"; no repr of a float
    needs csv quoting. Rows are formatted column by column, CSV_CHUNK_ROWS at
    a time, so the text of a whole table is never held at once. The chunks
    go through tolist(), since numpy 2 reprs a float64 as "np.float64(...)".
    """
    for start in range(0, len(rows), CSV_CHUNK_ROWS):
        stop = start + CSV_CHUNK_ROWS
        columns = [map(repr, column) for column in rows[start:stop].T.tolist()]
        if times is not None:
            columns.insert(0, map(repr, times[start:stop].tolist()))
        fh.writelines([",".join(line) + "\r\n" for line in zip(*columns)])


def _read_episode(episode_dir, fail) -> Optional[Episode]:
    """The one reader of an exported episode directory.

    Each violation goes to `fail(message)`; if `fail` returns, the offending
    manifest entry, stream or row is skipped. Row rules belong to
    `Episode.record` and `Episode.record_block`.
    """
    episode_dir = Path(episode_dir)
    manifest_path = episode_dir / MANIFEST_NAME
    if not manifest_path.exists():
        fail(f"missing manifest: {manifest_path}")
        return None
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:
        fail(f"corrupt manifest {manifest_path}: {exc}")
        return None
    if not (isinstance(manifest, dict)
            and isinstance(manifest.get("streams", []), list)):
        fail("corrupt manifest: not an object with a 'streams' list")
        return None
    for key in ("format_version", "episode_id", "streams"):
        if key not in manifest:
            fail(f"corrupt manifest: missing {key!r}")
    specs = {}
    for i, entry in enumerate(manifest.get("streams", [])):
        try:
            spec = StreamSpec(entry["name"], entry["rate_hz"], entry["schema"],
                              entry["kind"])
            if spec.name in specs:   # TypeError for an unhashable name
                raise EpisodeError(f"duplicate stream name {spec.name!r}")
        except (KeyError, TypeError, ValueError) as exc:
            fail(f"corrupt manifest: stream entry {i}: {type(exc).__name__}: {exc}")
            continue
        specs[spec.name] = spec
    episode = Episode(manifest.get("episode_id", ""), list(specs.values()),
                      manifest.get("start_time", 0.0),
                      manifest.get("config_hash", ""))
    for name, spec in specs.items():
        path = episode_dir / f"{name}.csv"
        if not path.exists():
            fail(f"stream {name!r}: missing file {path.name}")
            continue
        _read_stream(episode, spec, path, fail)
    return episode


def _read_stream(episode: Episode, spec: StreamSpec, path: Path, fail) -> None:
    """Record the rows of one stream's CSV into `episode`.

    A numeric stream is parsed in blocks and stored with one `record_block`.
    A stream that fails that, and every `image_ref` stream, is read row by
    row through `record`, so each bad row goes to `fail` with its line; so
    does a row csv cannot read (say, a field over csv.field_size_limit()).
    Bytes that are not UTF-8 end the read with one violation naming the
    file, after the rows before them.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
            except csv.Error as exc:
                fail(f"{path.name} row 1: {exc}")
                return
            if header is None or tuple(header) != ("t",) + spec.schema:
                fail(f"stream {spec.name!r}: schema mismatch in {path.name}")
                return
            if spec.kind != "image_ref":
                try:
                    block = _parse_float_lines(fh, 1 + len(spec.schema))
                except UnicodeDecodeError:   # the row reader reports it in order
                    block = None
                if block is not None:
                    try:
                        episode.record_block(spec.name, block[:, 0], block[:, 1:])
                        return
                    except EpisodeError:
                        pass
                fh.seek(0)   # re-read the stream from its header, row by row
                reader = csv.reader(fh)
                next(reader)
            for lineno in count(2):
                try:
                    row = next(reader, None)
                except csv.Error as exc:
                    fail(f"{path.name} row {lineno}: {exc}")
                    continue
                if row is None:
                    return
                try:
                    # an empty line has no t and fails the field count
                    episode.record(spec.name, row[0] if row else "", row[1:])
                except ValueError as exc:   # EpisodeError included
                    fail(f"{path.name} row {lineno}: {exc}")
    except UnicodeDecodeError as exc:
        fail(f"{path.name}: not UTF-8 text: {exc}")


# loadtxt skips a blank line, and strips these as spaces where float() fails
_BLANK_LINES = frozenset(("\r\n", "\n", "\r"))
_LOADTXT_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


def _parse_float_lines(fh, columns: int) -> Optional[np.ndarray]:
    """The rest of `fh` as a (rows, columns) array, parsed CSV_CHUNK_ROWS
    lines at a time, or None unless each line is `columns` fields that
    csv.reader and float() read to the same values.

    A chunk that loadtxt could read differently from them is not parsed: one
    with a blank line, a space that float() rejects, or a line longer than
    csv's field limit (csv.reader raises on it).
    """
    limit = csv.field_size_limit()
    blocks = []
    while lines := list(islice(fh, CSV_CHUNK_ROWS)):
        text = "".join(lines)
        if not _BLANK_LINES.isdisjoint(lines) \
                or any(c in text for c in _LOADTXT_ONLY_SPACES) \
                or (len(text) > limit and max(map(len, lines)) > limit):
            return None
        try:
            block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:   # a field float() may still read, or a ragged row
            return None
        if block.shape != (len(lines), columns):
            return None
        blocks.append(block)
    return np.concatenate(blocks) if blocks else np.empty((0, columns))


def _raise(message: str):
    raise EpisodeError(message)


def load_episode(episode_dir) -> Episode:
    """Load an exported episode directory; raises EpisodeError if it is invalid."""
    return _read_episode(episode_dir, _raise)


def validate_episode_dir(episode_dir) -> list:
    """Structural check of an on-disk episode; returns violation strings."""
    violations = []
    _read_episode(episode_dir, violations.append)
    return violations
