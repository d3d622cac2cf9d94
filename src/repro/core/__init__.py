"""TACOS core: synthesizer, matching algorithm, and algorithm representation."""

from repro.core.algorithm import ChunkTransfer, CollectiveAlgorithm
from repro.core.config import SynthesisConfig
from repro.core.matching import MatchingState, run_matching_round
from repro.core.synthesizer import (
    FLAT_ENGINE,
    GuidedSynthesizer,
    SynthesisEngine,
    SynthesisResult,
    TacosSynthesizer,
    synthesize,
)
from repro.core.transfers import TransferTable
from repro.core.verification import verify_algorithm

__all__ = [
    "ChunkTransfer",
    "CollectiveAlgorithm",
    "FLAT_ENGINE",
    "GuidedSynthesizer",
    "MatchingState",
    "SynthesisConfig",
    "SynthesisEngine",
    "SynthesisResult",
    "TacosSynthesizer",
    "TransferTable",
    "run_matching_round",
    "synthesize",
    "verify_algorithm",
]
