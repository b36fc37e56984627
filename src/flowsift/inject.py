"""Fault injection: latency, loss, reorder, duplicate.

Every injector is measure-preserving outside the victim flows and
records ground truth in a manifest next to the modified trace. Victims
are drawn from the heaviest flows by data-packet count, ranked from one
``flow_groups`` pass; the pool size and draw count are plan parameters.
Injected latency is drawn once per flow, so a victim's delay is constant
across its packets. Victim selection makes no whole-trace key-byte copy
or float draw: the ranking and the victim index gather only the key
bytes of the rows they group or match, and the sampling draws its
uniforms ``DRAW_BLOCK`` records at a time. An injector that moves or
adds records builds only the new timestamp column (and the index of the
rows it copies), orders it with ``traceio.time_order``, the order
``Trace.time_sorted`` uses, and gathers its output from its input with
one ``np.take`` (``_placement``, then ``_gathered``): no whole copy of
the input is made besides the output, and the victim index and the new
timestamp column are dropped before the gather. The reorder injector reads
each victim's true out-of-order weight from ``oracle_ooo`` run on the
victims' rows alone: the oracle is per flow, and those rows, time-sorted
on their own, keep their order in the output trace.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .oracle import flow_groups, oracle_ooo
from .packets import KEY_BYTES, FlowKey, PacketType
from .traceio import KEY_VOID, Trace, time_order

REORDER_DELAY_NS = 5_000_000
DUPLICATE_JITTER_NS = 1_000_000
DRAW_BLOCK = 1 << 16     # records per uniform draw of the victim sampling


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


def _placement(trace: Trace, ts: np.ndarray, moved: np.ndarray,
               copies: "np.ndarray | None" = None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the output's records come from, when it holds the input's
    records, then copies of its rows ``copies``, at the timestamps ``ts``
    (one per record, the copies last), in ``time_order``.

    Returns (source, patch, stamps): each output record's input row, the
    output positions of the records that ``moved`` marks, and their new
    timestamps. Only the new timestamp column is built: ``time_order``
    fetches the few tied records from the input.
    """
    a, n = trace.arr, len(trace)

    def to_input(index: np.ndarray) -> np.ndarray:
        """Point each copy's index at the row it copies, in place."""
        if copies is not None:
            tail = np.flatnonzero(index >= n)
            index[tail] = copies[index[tail] - n]
        return index

    def rows_at(index: np.ndarray) -> np.ndarray:
        rows = np.take(a, to_input(index.copy()))
        rows["ts"] = ts[index]
        return rows

    order = time_order(ts, rows_at)
    patch = np.flatnonzero(moved[order])
    stamps = ts[order[patch]]
    return to_input(order), patch, stamps


def _gathered(trace: Trace, source: np.ndarray, patch: np.ndarray,
              stamps: np.ndarray) -> Trace:
    """The output of a ``_placement``: one ``np.take`` of the input's rows
    ``source``, the moved records restamped."""
    out = np.take(trace.arr, source)
    out["ts"][patch] = stamps
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
    shift = (victim_idx >= 0) & is_resp
    ts = trace.ts.copy()
    ts[shift] += delays[victim_idx[shift]].astype(np.uint64)
    shifted_counts = np.bincount(victim_idx[shift], minlength=len(victims))
    del victim_idx
    placement = _placement(trace, ts, shift)
    del ts
    out = _gathered(trace, *placement)
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


def inject_reorder(trace: Trace, plan: InjectionPlan,
                   delay_ns: int = REORDER_DELAY_NS,
                   window_ns: int = 3_000_000) -> tuple[Trace, dict]:
    """Delay sampled victim DATA packets by 5 ms to break packet order."""
    victims, victim_idx, sampled = _sample_victim_data(trace, plan)
    ts = trace.ts.copy()
    ts[sampled] += np.uint64(delay_ns)
    weights = _victim_ooo(trace, ts, victim_idx >= 0, window_ns)
    del victim_idx
    placement = _placement(trace, ts, sampled)
    del ts
    out = _gathered(trace, *placement)
    return out, _manifest(plan, out, victims, [plan.magnitude] * len(victims),
                          [weights.get(v, 0) for v in victims])


def _victim_ooo(trace: Trace, ts: np.ndarray, rows: np.ndarray, window_ns: int) -> dict:
    """``oracle_ooo`` of the victims' rows alone, restamped with ``ts``: the
    oracle is per flow, and those rows, time-sorted on their own, keep
    their order in the output trace. The restamped timestamps are put in
    ``time_order`` first, so the rows are gathered once, already sorted."""
    index = np.flatnonzero(rows)
    stamps = ts[index]

    def rows_at(sub: np.ndarray) -> np.ndarray:
        tied = np.take(trace.arr, index[sub])
        tied["ts"] = stamps[sub]
        return tied

    order = time_order(stamps, rows_at)
    victim = np.take(trace.arr, index[order])
    victim["ts"] = stamps[order]
    del index, stamps, order        # the oracle's own columns come next
    return oracle_ooo(Trace(victim), window_ns=window_ns)


def inject_duplicate(trace: Trace, plan: InjectionPlan,
                     jitter_ns: int = DUPLICATE_JITTER_NS) -> tuple[Trace, dict]:
    """Append a jittered copy of sampled victim DATA packets."""
    victims, victim_idx, sampled = _sample_victim_data(trace, plan)
    copied = np.bincount(victim_idx[sampled], minlength=len(victims))
    del victim_idx
    copies = np.flatnonzero(sampled)
    ts = np.concatenate([trace.ts, trace.ts[copies] + np.uint64(jitter_ns)])
    moved = np.zeros(len(ts), dtype=bool)
    moved[len(trace):] = True
    placement = _placement(trace, ts, moved, copies)
    del ts
    out = _gathered(trace, *placement)
    return out, _manifest(plan, out, victims, [plan.magnitude] * len(victims), copied)


INJECTORS = {"latency": inject_latency, "loss": inject_loss,
             "reorder": inject_reorder, "duplicate": inject_duplicate}
