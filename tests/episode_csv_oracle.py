"""Reference writer for exported stream CSVs: one csv.writer row per sample.

This is how `export_csv` wrote a stream before it formatted numeric columns
itself. Every row goes through csv.writer with the repr of its time and the
str of each value (for a float, str is its repr), so the bytes are whatever
the csv module's quoting and "\\r\\n" line ends make of them.
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
