"""Independent pair enumerator for the reference routes of the tests.

The library lists subsets one list length at a time against an index
table; this fan-out forms the same pairs a different way, so the
references built on it (``pair_count_reference``, ``wedge_probe_counts``)
do not share a code path with what they check.
"""

import numpy as np


def group_pair_indices(group_sizes):
    """Flat-index pairs (i, j), i < j, within every contiguous group.

    For each element the fan of pairs it starts is materialized with one
    repeat/cumsum pass, so the cost is O(total pairs) with no Python
    loop.  Pairs come out in group-then-position order.
    """
    total = int(group_sizes.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    sizes = group_sizes.astype(np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    pos = np.arange(total, dtype=np.int64) - np.repeat(starts, sizes)
    fanout = np.repeat(sizes, sizes) - pos - 1
    pair_total = int(fanout.sum())
    if pair_total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    left = np.repeat(np.arange(total, dtype=np.int64), fanout)
    fan_starts = np.concatenate([[0], np.cumsum(fanout)[:-1]])
    right = np.arange(1, pair_total + 1, dtype=np.int64)
    right -= np.repeat(fan_starts, fanout)
    right += left
    return left, right
