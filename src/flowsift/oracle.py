"""Exact per-flow ground truth for all four statistics.

Linear-memory, evaluation-side only: these functions define the
"relevant" sets that recall and precision are scored against, and they
deliberately do what the sketches cannot afford to do. Maps carry only
flows with a nonzero statistic (the retransmission oracle is the
exception: it reports every data flow's packet/distinct counts).

Every oracle groups the trace by flow once with a stable sort
(``flow_groups``; ``oracle_rtt`` groups by canonical pair), so a flow's
records stay in stream order, then works on whole segments: ``reduceat``
per flow, a running max that restarts at each session start, and
per-flow ranks of requests and responses. No oracle loops over flows.
The grouping sort is a radix sort of the key bytes whose passes are
``traceio.stable_order`` packed-key sorts; its order is exactly the
stable argsort of the keys' bytes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .packets import PacketType, TypeFilter
from .reports import rank_order
from .traceio import Trace, run_starts, stable_order


def _groups(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable grouping of (n, w) uint8 key rows: (order, starts of each key's
    run, the distinct keys as void-w values in ascending byte order).

    ``order`` is the stable argsort of the rows' void view, found by a
    least-significant-digit radix sort: the key bytes are cut into
    big-endian digits narrow enough to pack beside the row index, and
    ``stable_order`` sorts by each digit in turn, the last digit first.
    """
    n, width = matrix.shape
    step = (64 - max(n - 1, 1).bit_length()) // 8       # digit bytes
    order = np.arange(n)
    for lo in reversed(range(0, width, step)):
        part = matrix[:, lo:lo + step]
        digit = np.zeros((n, 8), dtype=np.uint8)
        digit[:, 8 - part.shape[1]:] = part
        order = order[stable_order(digit.view(">u8").ravel()[order])]
    ordered = np.ascontiguousarray(matrix).view((np.void, width)).ravel()[order]
    starts = run_starts(ordered)
    return order, starts, ordered[starts]


def flow_groups(trace: Trace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DATA records grouped by flow key, stream order kept within a flow.

    Returns (order, starts, keys): ``order`` holds the trace's DATA row
    indices flow by flow, flow g's rows are ``order[starts[g]:starts[g+1]]``,
    and ``keys`` are the flows' void-13 keys in ascending byte order. The
    grouping is ``_groups``' radix sort of the DATA rows' key bytes, which
    are the only key bytes gathered.
    """
    data = np.flatnonzero(trace.ptype == int(PacketType.DATA))
    order, starts, keys = _groups(trace.key_matrix(data))
    return data[order], starts, keys


def _group_ids(starts: np.ndarray, n: int) -> np.ndarray:
    return np.repeat(np.arange(len(starts)), np.diff(starts, append=n))


def _earlier_in_group(mask: np.ndarray, starts: np.ndarray, gid: np.ndarray) -> np.ndarray:
    """Per row: how many rows of its group before it are set in ``mask``."""
    before = np.cumsum(mask) - mask
    return before - before[starts][gid]


def _by_key(keys: np.ndarray, values: np.ndarray) -> dict[bytes, int]:
    """{key bytes: int value} for the nonzero values."""
    hit = np.flatnonzero(values)
    return dict(zip(keys[hit].tolist(), values[hit].tolist()))


def top_keys(keys: np.ndarray, values: np.ndarray, k: int) -> list[bytes]:
    """The top k of the keys with a nonzero value, as bytes, in
    ``reports.rank_order``; ``keys`` are void values of one width. Only
    the top k become bytes."""
    hit = np.flatnonzero(values)
    keys, values = keys[hit], values[hit]
    matrix = keys.view(np.uint8).reshape(len(keys), keys.dtype.itemsize)
    return keys[rank_order(matrix, values)[:k]].tolist()


def oracle_rtt(trace: Trace, type_filter: TypeFilter = TypeFilter.syn_handshake(), *,
               time_unit_ns: int = 1000) -> dict[bytes, int]:
    """Round-trip time per canonical pair, summed over FIFO-matched
    request/response pairs only: unlike the sketch, an unmatched request
    adds nothing."""
    return _by_key(*rtt_totals(trace, type_filter, time_unit_ns=time_unit_ns))


def rtt_totals(trace: Trace, type_filter: TypeFilter = TypeFilter.syn_handshake(), *,
               time_unit_ns: int = 1000) -> tuple[np.ndarray, np.ndarray]:
    """``oracle_rtt`` as arrays: every pair's void-26 key and its total."""
    admitted = np.isin(trace.ptype,
                       [int(t) for t in (type_filter.requests | type_filter.responses)])
    sub = trace.select(admitted)
    order, starts, keys = _groups(sub.canonical_matrix()[0])
    t = (sub.ts.astype(np.int64) // time_unit_ns)[order]
    # FIFO matching: the i-th response of a pair answers its i-th request
    is_resp = np.isin(sub.ptype[order], [int(x) for x in type_filter.responses])
    gid = _group_ids(starts, len(order))
    pairs = np.minimum(np.add.reduceat(is_resp, starts),
                       np.add.reduceat(~is_resp, starts))
    rank = np.where(is_resp, _earlier_in_group(is_resp, starts, gid),
                    _earlier_in_group(~is_resp, starts, gid))
    paired = rank < pairs[gid]
    return keys, np.add.reduceat(np.where(paired, np.where(is_resp, t, -t), 0), starts)


def oracle_loss(trace: Trace) -> dict[bytes, int]:
    """Missing-id count per flow: ids below the max that never appear."""
    return _by_key(*loss_counts(trace))


def loss_counts(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """``oracle_loss`` as arrays: every data flow's void-13 key and count."""
    order, starts, keys = flow_groups(trace)
    seq = trace.seq[order].astype(np.int64)
    missing = np.maximum.reduceat(seq, starts) - _distinct_per_flow(seq, starts)
    return keys, np.maximum(missing, 0)


def _distinct_per_flow(seq: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Distinct ids per flow; flows are contiguous runs starting at ``starts``."""
    ordered = seq[np.lexsort((seq, _group_ids(starts, len(seq))))]
    new = np.zeros(len(seq), dtype=bool)
    new[run_starts(ordered)] = True
    new[starts] = True
    return np.add.reduceat(new, starts)


def oracle_ooo(trace: Trace, window_ns: int = 3_000_000,
               weight_mode: str = "bytes") -> dict[bytes, int]:
    """Out-of-order weight per flow under the recency-window semantics.

    A packet counts when its id is at or below the flow's max id seen
    since the last gap longer than the window; a gap resets the max.
    """
    return _by_key(*ooo_weights(trace, window_ns, weight_mode))


def ooo_weights(trace: Trace, window_ns: int = 3_000_000,
                weight_mode: str = "bytes") -> tuple[np.ndarray, np.ndarray]:
    """``oracle_ooo`` as arrays: every data flow's void-13 key and weight."""
    order, starts, keys = flow_groups(trace)
    seq = trace.seq[order].astype(np.int64)
    fresh = np.ones(len(seq), dtype=bool)
    fresh[1:] = np.diff(trace.ts[order].astype(np.int64)) > window_ns
    fresh[starts] = True
    # running max per session: sessions are consecutive and the max restarts
    # at each, so a global max over (session, id rank) pairs never crosses one
    distinct, ranks = np.unique(seq, return_inverse=True)
    pair = (np.cumsum(fresh) - 1) * len(distinct) + ranks
    late = np.zeros(len(seq), dtype=bool)
    late[1:] = pair[1:] <= np.maximum.accumulate(pair)[:-1]
    late &= ~fresh
    weight = trace.size[order] if weight_mode == "bytes" else 1
    return keys, np.add.reduceat(np.where(late, weight, 0).astype(np.int64), starts)


class RtxStats(NamedTuple):
    packets: int
    distinct: int
    avg_retransmissions: float


def oracle_rtx(trace: Trace) -> dict[bytes, RtxStats]:
    """Packet count, distinct-id count, and their ratio, for every data flow."""
    keys, packets, distinct = rtx_counts(trace)
    return {k: RtxStats(n, d, n / d)
            for k, n, d in zip(keys.tolist(), packets.tolist(), distinct.tolist())}


def rtx_counts(trace: Trace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``oracle_rtx`` as arrays: every data flow's void-13 key, packet
    count and distinct-id count."""
    order, starts, keys = flow_groups(trace)
    packets = np.diff(starts, append=len(order))
    return keys, packets, _distinct_per_flow(trace.seq[order].astype(np.int64), starts)
