"""Reference writer and reader for exported stream CSVs, one row at a time.

The writer is how `export_csv` wrote a stream before it formatted numeric
columns itself. Every row goes through csv.writer with the repr of its time
and the str of each value (for a float, str is its repr), so the bytes are
whatever the csv module's quoting and "\\r\\n" line ends make of them.

The reader is how `load_episode` and `validate_episode_dir` read a stream
before numeric streams were parsed in blocks: every csv.reader row goes
through `Episode.record`, and each row it rejects is reported with its line,
as is each line csv.reader itself cannot read (a field over its size limit).
"""

import csv
import io


def stream_csv_bytes(spec, times, rows) -> bytes:
    """The bytes of `<name>.csv` for a stream's spec, times and rows."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(("t",) + tuple(spec.schema))
    for t, row in zip(times, rows):
        writer.writerow([repr(t)] + [str(v) for v in row])
    return buf.getvalue().encode()


def rows_csv_bytes(rows) -> bytes:
    """csv.writer's bytes for rows of floats, each field its repr."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([repr(v) for v in row] for row in rows)
    return buf.getvalue().encode()


def float_table_bytes(header, rows) -> bytes:
    """csv.writer's bytes for a header and rows of numbers, each value
    written as repr(float(v))."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue().encode()


def read_stream_rows(episode, spec, path, fail) -> None:
    """Record a stream's CSV into `episode` row by row; a drop-in for
    `episodes._read_stream`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            fail(f"{path.name} row 1: {exc}")
            return
        if header is None or tuple(header) != ("t",) + spec.schema:
            fail(f"stream {spec.name!r}: schema mismatch in {path.name}")
            return
        lineno = 1
        while True:
            lineno += 1
            try:
                row = next(reader)
            except StopIteration:
                return
            except csv.Error as exc:
                fail(f"{path.name} row {lineno}: {exc}")
                continue
            try:
                # an empty line has no t and fails the field count
                episode.record(spec.name, row[0] if row else "", row[1:])
            except ValueError as exc:   # EpisodeError included
                fail(f"{path.name} row {lineno}: {exc}")
