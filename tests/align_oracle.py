"""Reference zero-order hold: one query at a time, with bisect.

`Episode.align` answers a whole array of query times at once; this is the
rule it must keep for each of them: the latest row at or before t, with
staleness t minus that row's time, and an error for a t before every row.
"""

import bisect

from contactctl.episodes import EpisodeError


def hold(times: list, t: float, name: str) -> tuple:
    """(index, staleness) of the row of `times` that t holds."""
    if not times or t < times[0]:
        raise EpisodeError(f"t={t} precedes first sample of stream {name!r}")
    index = bisect.bisect_right(times, t) - 1
    return index, t - times[index]
