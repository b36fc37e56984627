"""Fault injection: latency, loss, reorder, duplicate.

Every injector is measure-preserving outside the victim flows and
records ground truth in a manifest next to the modified trace. Victims
are drawn from the heaviest flows by data-packet count, ranked from one
``flow_groups`` pass; the pool size and draw count are plan parameters.
Injected latency is drawn once per flow, so a victim's delay is constant
across its packets. Victim selection makes no whole-trace key-byte copy
or float draw: the ranking and the victim index gather only the key
bytes of the rows they group or match, and the sampling draws its
uniforms ``DRAW_BLOCK`` records at a time.

An injector that moves or adds records merges them into its input
(``_merged``), which must be in ``traceio.time_order``, the order
``Trace.time_sorted`` gives; an input out of that order is a DataError.
The records the input keeps stay in their order, so only the placed
ones (the moved rows, or the added copies) are sorted, by ``time_order``
on their own. Each goes in after the kept records that precede it: a
``searchsorted`` of its new timestamp among the input's, and, where
kept records share that timestamp, one lexsort of the tied records by
the time-order columns and row. The output is gathered from the input
``MERGE_BLOCK`` records at a time, so besides the output a merge holds
only columns of the placed rows, the input's timestamps and one block;
no whole-trace sort or index is made. The reorder injector reads each
victim's true out-of-order weight from ``oracle_ooo`` run on the
victims' rows alone, placed by the same ``_merged`` that writes the
output trace: the oracle is per flow, and those rows keep their order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .oracle import flow_groups, oracle_ooo
from .packets import KEY_BYTES, FlowKey, PacketType
from .traceio import KEY_VOID, TIME_KEYS, Trace, run_starts, time_order, time_sorted_stamps

REORDER_DELAY_NS = 5_000_000
DUPLICATE_JITTER_NS = 1_000_000
DRAW_BLOCK = 1 << 16     # records per uniform draw of the victim sampling
MERGE_BLOCK = 1 << 16    # output records per gather of a merge


@dataclass(frozen=True)
class InjectionPlan:
    """One fault class applied to sampled heavy flows.

    ``magnitude`` is a delay in nanoseconds for latency, else a rate in
    [0, 1). ``magnitude_high`` turns a latency delay into a per-flow
    uniform draw from [magnitude, magnitude_high].
    """

    kind: str                      # latency | loss | reorder | duplicate
    magnitude: float
    magnitude_high: "float | None" = None
    victims: int = 100
    pool: int = 1000               # victims are drawn from the `pool` heaviest flows
    seed: int = 0

    def validate(self) -> None:
        if self.kind not in INJECTORS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == "latency":
            if self.magnitude < 0:
                raise ValueError("delay must be >= 0")
        elif not (0 <= self.magnitude < 1):
            raise ValueError(f"{self.kind} rate must lie in [0, 1), got {self.magnitude}")
        if self.victims < 1 or self.pool < self.victims:
            raise ValueError("need 1 <= victims <= pool")


def rank_flows(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """Distinct data-direction keys ranked by data-packet count.

    Returns (keys as a void-13 array, counts) in ``reports.rank_order``:
    heaviest first, ties by key bytes ascending. One lexsort over the void
    keys does it: they arrive byte-sorted from ``flow_groups``, which makes
    it ~3x faster here than a lexsort of the 13 byte columns.
    """
    order, starts, keys = flow_groups(trace)
    counts = np.diff(starts, append=len(order))
    heaviest = np.lexsort((keys, -counts))
    return keys[heaviest], counts[heaviest]


def select_victims(trace: Trace, plan: InjectionPlan) -> list[bytes]:
    keys, _ = rank_flows(trace)
    if len(keys) < plan.pool:
        raise ValueError(f"trace has {len(keys)} flows, pool of {plan.pool} requested")
    rng = np.random.default_rng(plan.seed)
    picks = rng.choice(plan.pool, size=plan.victims, replace=False)
    return [keys[i].tobytes() for i in sorted(picks)]


def _victim_index(trace: Trace, victims: list[bytes]) -> np.ndarray:
    """Per-record victim index, -1 where the record's key is not a victim.

    A table lookup on the first two key bytes (the low half of the
    little-endian ``src``) narrows the records to candidates, and only the
    candidates' key bytes are gathered and matched on all 13 bytes.
    """
    victim_keys = np.frombuffer(b"".join(victims), dtype=np.uint8).reshape(-1, KEY_BYTES)
    candidates = np.flatnonzero(np.isin(
        trace.src.astype(np.uint16), victim_keys[:, :2].copy().view("<u2"), kind="table"))
    view = trace.key_matrix(candidates).view(KEY_VOID).ravel()
    victim_view = victim_keys.view(KEY_VOID).ravel()
    order = np.argsort(victim_view)
    pos = np.clip(np.searchsorted(victim_view[order], view), 0, len(victims) - 1)
    hit = victim_view[order][pos] == view
    idx = np.full(len(trace), -1, dtype=np.int32)
    idx[candidates[hit]] = order[pos[hit]]
    return idx


def _manifest(plan: InjectionPlan, trace: Trace, victims: list[bytes],
              magnitudes, true_values) -> dict:
    return {
        "kind": plan.kind,
        "seed": plan.seed,
        "plan": asdict(plan),
        "victims": [
            {"key": key.hex(), "magnitude": float(m), "true_value": float(t)}
            for key, m, t in zip(victims, magnitudes, true_values)
        ],
        "trace_sha256": trace.sha256(),
    }


def _merged(trace: Trace, rows: np.ndarray, stamps: np.ndarray,
            copied: bool = False) -> Trace:
    """The time-ordered input with its records at ``rows`` (ascending)
    placed at the timestamps ``stamps``, the output in ``time_order``: each
    record is moved there, or, when ``copied``, a copy of it is added there
    and ties after every input record.

    The records the input keeps stay in their order, and only the placed
    ones are sorted, by ``time_order`` on their own. A placed record goes
    after the placed ones before it and after the kept records before it:
    those at an earlier timestamp (a ``searchsorted`` of its stamp in the
    input's timestamps, less the moved rows before that point), and those
    at its own timestamp that precede it by (src, dst, sport, dport, ptype,
    seq, row), from one lexsort of the tied records. The output is gathered
    ``MERGE_BLOCK`` records at a time. Raises DataError when the input is
    not in time order.
    """
    a, n = trace.arr, len(trace)
    ts = time_sorted_stamps(trace)

    def rows_at(sub: np.ndarray) -> np.ndarray:
        picked = np.take(a, rows[sub])
        picked["ts"] = stamps[sub]
        return picked

    order = time_order(stamps, rows_at)
    placed, new_ts = rows[order], stamps[order]
    gone = rows[:0] if copied else rows            # input rows that move, ascending
    dest, high = np.searchsorted(ts, new_ts, "left"), np.searchsorted(ts, new_ts, "right")
    del ts

    # the kept records at each tied stamp, and the placed ones there, in time order
    tied = np.flatnonzero(high > dest)
    stamp = tied[run_starts(dest[tied])]          # each tied stamp once
    span = high[stamp] - dest[stamp]
    del high
    kept = np.repeat(dest[stamp] - np.cumsum(span) + span, span) + np.arange(span.sum())
    kept = kept[~np.isin(kept, gone)]
    records = np.concatenate([np.take(a, kept), rows_at(order[tied])])
    rank = order[tied] + n if copied else placed[tied]     # the row each one ties as
    del order, rows_at, stamps      # only the sorted columns are kept for the output
    tie_order = np.lexsort([np.r_[kept, rank], *(records[c] for c in TIME_KEYS)])
    is_kept = tie_order < len(kept)
    kept_before = np.cumsum(is_kept) - is_kept
    tie_ts = records["ts"][tie_order]
    at = np.flatnonzero(~is_kept)
    at_stamp = kept_before[at] - kept_before[np.searchsorted(tie_ts, tie_ts[at], "left")]

    dest -= np.searchsorted(gone, dest)            # kept records at earlier stamps
    dest[tied[tie_order[at] - len(kept)]] += at_stamp
    dest += np.arange(len(dest))                   # the placed records' output rows
    out = np.empty(n + len(rows) if copied else n, dtype=a.dtype)
    gap = gone - np.arange(len(gone))              # kept records before each moved row
    for lo in range(0, len(out), MERGE_BLOCK):
        hi = min(lo + MERGE_BLOCK, len(out))
        pa, pb = np.searchsorted(dest, [lo, hi])
        # the block's kept records, ranked lo - pa to hi - pb: the input rows
        # from the first one's row to the next one's, less the moved rows
        ranks = np.array([lo - pa, hi - pb])
        start, stop = ranks + np.searchsorted(gap, ranks, side="right")
        ga, gb = np.searchsorted(gone, [start, stop])
        source = np.delete(np.arange(start, stop), gone[ga:gb] - start)
        source = np.insert(source, dest[pa:pb] - lo - np.arange(pb - pa), placed[pa:pb])
        np.take(a, source, out=out[lo:hi], mode="clip")    # "raise" would buffer it
    out["ts"][dest] = new_ts
    return Trace(out)


def inject_latency(trace: Trace, plan: InjectionPlan) -> tuple[Trace, dict]:
    """Shift every response packet of each victim by its per-flow delay."""
    plan.validate()
    victims = select_victims(trace, plan)
    rng = np.random.default_rng(plan.seed + 1)
    if plan.magnitude_high is None:
        delays = np.full(len(victims), int(plan.magnitude), dtype=np.int64)
    else:
        delays = rng.integers(int(plan.magnitude), int(plan.magnitude_high) + 1,
                              len(victims), dtype=np.int64)

    # a response's key is its victim's data-direction key reversed
    victim_idx = _victim_index(
        trace, [FlowKey.from_bytes(v).reversed().to_bytes() for v in victims])
    is_resp = np.isin(trace.ptype, [int(PacketType.ACK), int(PacketType.SYNACK)])
    rows = np.flatnonzero((victim_idx >= 0) & is_resp)
    shifted = victim_idx[rows]
    del victim_idx, is_resp
    shifted_counts = np.bincount(shifted, minlength=len(victims))
    out = _merged(trace, rows, trace.ts[rows] + delays[shifted].astype(np.uint64))
    true_values = delays * shifted_counts   # added round-trip ns per victim
    return out, _manifest(plan, out, victims, delays, true_values)


def _sample_victim_data(trace: Trace, plan: InjectionPlan):
    """Victims, each record's victim index (-1 for none), and the mask of
    victim DATA records drawn independently at the plan's rate.

    The uniform draws, one per record, are made ``DRAW_BLOCK`` records at
    a time: the same stream as one draw over the whole trace.
    """
    plan.validate()
    victims = select_victims(trace, plan)
    rng = np.random.default_rng(plan.seed + 1)
    victim_idx = _victim_index(trace, victims)
    sampled = (victim_idx >= 0) & (trace.ptype == int(PacketType.DATA))
    for lo in range(0, len(trace), DRAW_BLOCK):
        block = sampled[lo:lo + DRAW_BLOCK]
        block &= rng.random(len(block)) < plan.magnitude
    return victims, victim_idx, sampled


def inject_loss(trace: Trace, plan: InjectionPlan) -> tuple[Trace, dict]:
    """Drop each victim DATA packet independently at the plan's rate."""
    victims, victim_idx, drop = _sample_victim_data(trace, plan)
    dropped = np.bincount(victim_idx[drop], minlength=len(victims))
    del victim_idx
    out = trace.select(~drop)
    return out, _manifest(plan, out, victims, [plan.magnitude] * len(victims), dropped)


def inject_reorder(trace: Trace, plan: InjectionPlan) -> tuple[Trace, dict]:
    """Delay sampled victim DATA packets by 5 ms to break packet order."""
    victims, victim_idx, sampled = _sample_victim_data(trace, plan)
    is_victim = victim_idx >= 0
    del victim_idx
    weights = _victim_ooo(trace, is_victim, sampled)
    del is_victim
    rows = np.flatnonzero(sampled)
    out = _merged(trace, rows, trace.ts[rows] + np.uint64(REORDER_DELAY_NS))
    return out, _manifest(plan, out, victims, [plan.magnitude] * len(victims),
                          [weights.get(v, 0) for v in victims])


def _victim_ooo(trace: Trace, rows: np.ndarray, delayed: np.ndarray) -> dict:
    """``oracle_ooo`` of the victims' rows (the mask ``rows``) alone, the
    ``delayed`` ones placed ``REORDER_DELAY_NS`` later by ``_merged``, the
    merge that writes the output trace: the oracle is per flow, and those
    rows keep their order there."""
    stamps = trace.ts[rows & delayed] + np.uint64(REORDER_DELAY_NS)
    return oracle_ooo(_merged(trace.select(rows), np.flatnonzero(delayed[rows]), stamps))


def inject_duplicate(trace: Trace, plan: InjectionPlan) -> tuple[Trace, dict]:
    """Append a jittered copy of sampled victim DATA packets."""
    victims, victim_idx, sampled = _sample_victim_data(trace, plan)
    copied = np.bincount(victim_idx[sampled], minlength=len(victims))
    del victim_idx
    copies = np.flatnonzero(sampled)
    out = _merged(trace, copies, trace.ts[copies] + np.uint64(DUPLICATE_JITTER_NS),
                  copied=True)
    return out, _manifest(plan, out, victims, [plan.magnitude] * len(victims), copied)


INJECTORS = {"latency": inject_latency, "loss": inject_loss,
             "reorder": inject_reorder, "duplicate": inject_duplicate}
