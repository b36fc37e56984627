"""flowsift: sketch-based detection of problem flows in sublinear memory.

Detects the top-k flows contributing the most round-trip latency,
packet loss, out-of-order packets, and retransmissions, using sketches
whose memory does not grow with the number of flows. Includes a
synthetic-trace toolkit with fault injectors, exact oracles for
evaluation, and a CLI harness for reproducible recall/precision sweeps.
"""

from .countsketch import CountSketchTable
from .framework import FrameworkSketch, flow_id32, timestamp_weights
from .hashing import HashPair, derive_hash_pair
from .latency import LatencyDetector
from .loss import LossDetector, loss_count_estimate
from .ooo import OooDetector, RecencyCache, TopTable
from .packets import (CanonicalPair, FlowKey, PacketRecord, PacketType, TypeFilter,
                      canonicalize)
from .reporter import BloomGate, CandidateLog, ExactGate, controller_topk, maybe_report
from .reports import HeavyReport
from .retransmit import DistinctEstimator, RetransmitDetector
from .synth import SynthConfig, synthesize
from .traceio import Trace, load_trace, read_trace, write_trace

__version__ = "0.1.0"

__all__ = [
    "BloomGate", "CandidateLog", "CanonicalPair", "CountSketchTable",
    "DistinctEstimator", "ExactGate", "FlowKey", "FrameworkSketch",
    "HashPair", "HeavyReport", "LatencyDetector", "LossDetector",
    "OooDetector", "PacketRecord", "PacketType", "RecencyCache",
    "RetransmitDetector", "SynthConfig", "TopTable", "Trace", "TypeFilter",
    "canonicalize", "controller_topk", "derive_hash_pair", "flow_id32",
    "load_trace", "loss_count_estimate", "maybe_report", "read_trace",
    "synthesize", "timestamp_weights", "write_trace",
]
