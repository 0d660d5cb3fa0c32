"""Reference fz-wiping plotter: one wrench row at a time.

This is how `contactctl plot-data --kind fz-wiping` computed its rows before
it worked on whole streams: each `wrench_raw` row takes the pose that the
per-query reference hold (`align_oracle.hold`) gives at its time, decodes
that pose's 6D rotation once, and multiplies the rotation by the raw and the
compensated force of the row, pairing `wrench_ee` rows with `wrench_raw`
rows by index.
"""

import numpy as np

from align_oracle import hold
from contactctl.geometry import decode_rot6d_rows


def fz_wiping_rows(episode) -> list:
    """Rows [t, fz_raw, fz_compensated] of Python floats."""
    rows = []
    times = episode.times("wrench_raw").tolist()
    pose_times = episode.times("pose").tolist()
    raw = episode.values("wrench_raw")
    comp = episode.values("wrench_ee")
    decoded = {}   # pose row -> rotation; one pose serves several rows
    for i, t in enumerate(times):
        j, _ = hold(pose_times, t, "pose")
        if j not in decoded:
            r6 = np.asarray(episode.rows("pose")[j][3:9], dtype=float)
            decoded[j] = decode_rot6d_rows(r6[:3], r6[3:])
        r_ee = decoded[j]
        fz_raw = float((r_ee @ raw[i, :3])[2])
        fz_comp = float((r_ee @ comp[i, :3])[2])
        rows.append([t, fz_raw, fz_comp])
    return rows
