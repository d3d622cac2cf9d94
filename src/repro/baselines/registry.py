"""Capability matrices of collective algorithms and synthesizers.

The paper's Tables I and II: the qualitative capability matrices of
collective algorithms (:data:`ALGORITHM_CAPABILITIES`, Table I) and
synthesizers (:data:`SYNTHESIZER_CAPABILITIES`, Table II), with tests
asserting the claims the paper makes about TACOS.  Baselines are built by
name through :data:`repro.api.registry.ALGORITHMS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["ALGORITHM_CAPABILITIES", "SYNTHESIZER_CAPABILITIES"]


@dataclass(frozen=True)
class AlgorithmCapability:
    """One row of Table I: which topologies an All-Reduce algorithm targets."""

    name: str
    ring: bool = False
    fully_connected: bool = False
    switch: bool = False
    multidim_homogeneous: bool = False
    multidim_heterogeneous: bool = False
    asymmetric: bool = False
    any_topology: bool = False


#: Table I — All-Reduce algorithms and their preferred physical topologies.
ALGORITHM_CAPABILITIES: Dict[str, AlgorithmCapability] = {
    "Ring": AlgorithmCapability(name="Ring", ring=True),
    "Direct": AlgorithmCapability(name="Direct", fully_connected=True),
    "RHD": AlgorithmCapability(name="RHD", switch=True),
    "DBT": AlgorithmCapability(name="DBT", switch=True),
    "BlueConnect": AlgorithmCapability(
        name="BlueConnect", ring=True, fully_connected=True, switch=True,
        multidim_homogeneous=True, multidim_heterogeneous=True,
    ),
    "Themis": AlgorithmCapability(
        name="Themis", ring=True, fully_connected=True, switch=True,
        multidim_homogeneous=True, multidim_heterogeneous=True,
    ),
    "TTO": AlgorithmCapability(name="TTO", multidim_homogeneous=True, asymmetric=True),
    "C-Cube": AlgorithmCapability(
        name="C-Cube", multidim_homogeneous=True, multidim_heterogeneous=True, asymmetric=True
    ),
    "TACOS": AlgorithmCapability(
        name="TACOS", ring=True, fully_connected=True, switch=True,
        multidim_homogeneous=True, multidim_heterogeneous=True,
        asymmetric=True, any_topology=True,
    ),
}


@dataclass(frozen=True)
class SynthesizerCapability:
    """One row of Table II: qualitative comparison of collective synthesizers."""

    name: str
    asymmetric: bool = False
    heterogeneous: bool = False
    autonomous: bool = False
    removes_congestion: bool = False
    scalable: bool = False


#: Table II — qualitative comparison of collective algorithm synthesizers.
SYNTHESIZER_CAPABILITIES: Dict[str, SynthesizerCapability] = {
    "SCCL": SynthesizerCapability(name="SCCL", autonomous=True),
    "Blink": SynthesizerCapability(name="Blink", asymmetric=True, autonomous=True),
    "MultiTree": SynthesizerCapability(
        name="MultiTree", asymmetric=True, autonomous=True, scalable=True
    ),
    "TACCL": SynthesizerCapability(
        name="TACCL", asymmetric=False, heterogeneous=False, autonomous=False
    ),
    "TACOS": SynthesizerCapability(
        name="TACOS", asymmetric=True, heterogeneous=True, autonomous=True,
        removes_congestion=True, scalable=True,
    ),
}
