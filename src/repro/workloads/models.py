"""DNN model descriptors used by the end-to-end training experiments.

The paper evaluates GNMT, ResNet-50, Turing-NLG, and MSFT-1T (Fig. 20 and
Fig. 21).  Reproducing their exact compute kernels is out of scope and not
needed: the figures report *normalized* training time, so only the ratio
between per-iteration compute time and the gradient bytes that must be
All-Reduced matters.  Each descriptor therefore records

* the parameter count (which determines the data-parallel All-Reduce size),
* synthetic forward and backward compute times per iteration per NPU, chosen
  so the compute:communication ratios qualitatively match the paper's
  breakdown (communication-dominated for GNMT/Turing-NLG/MSFT-1T,
  compute-heavier for ResNet-50).

The numbers are documented substitutions: they fix the
*scale* of the workload, while who-wins comparisons across collective
algorithms are driven entirely by the simulated communication time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import WorkloadError

__all__ = ["ModelConfig", "MODEL_ZOO", "get_model"]


@dataclass(frozen=True)
class ModelConfig:
    """Description of one DNN training workload.

    Attributes
    ----------
    name:
        Model name as used in the paper.
    parameter_count:
        Number of trainable parameters.
    bytes_per_parameter:
        Gradient element size in bytes (2 for fp16/bf16 gradients, 4 for fp32).
    forward_compute_time:
        Per-iteration forward-pass compute time per NPU, in seconds.
    backward_compute_time:
        Per-iteration backward-pass compute time per NPU, in seconds.
    """

    name: str
    parameter_count: float
    bytes_per_parameter: float
    forward_compute_time: float
    backward_compute_time: float

    def __post_init__(self) -> None:
        if self.parameter_count <= 0:
            raise WorkloadError(f"{self.name}: parameter count must be positive")
        if self.bytes_per_parameter <= 0:
            raise WorkloadError(f"{self.name}: bytes per parameter must be positive")
        if self.forward_compute_time < 0 or self.backward_compute_time < 0:
            raise WorkloadError(f"{self.name}: compute times must be non-negative")

    @property
    def gradient_bytes(self) -> float:
        """Bytes of gradients produced per iteration (the All-Reduce payload)."""
        return self.parameter_count * self.bytes_per_parameter

    @property
    def compute_time(self) -> float:
        """Total per-iteration compute time (forward + backward) per NPU."""
        return self.forward_compute_time + self.backward_compute_time


#: Models evaluated in the paper, with documented synthetic compute times.
MODEL_ZOO: Dict[str, ModelConfig] = {
    "GNMT": ModelConfig(
        name="GNMT",
        parameter_count=278e6,
        bytes_per_parameter=2.0,
        forward_compute_time=2.0e-3,
        backward_compute_time=4.0e-3,
    ),
    "ResNet-50": ModelConfig(
        name="ResNet-50",
        parameter_count=25.6e6,
        bytes_per_parameter=2.0,
        forward_compute_time=3.0e-3,
        backward_compute_time=6.0e-3,
    ),
    "Turing-NLG": ModelConfig(
        name="Turing-NLG",
        parameter_count=17.2e9,
        bytes_per_parameter=2.0,
        forward_compute_time=120.0e-3,
        backward_compute_time=240.0e-3,
    ),
    "MSFT-1T": ModelConfig(
        name="MSFT-1T",
        parameter_count=1.0e12,
        bytes_per_parameter=2.0,
        forward_compute_time=2.0,
        backward_compute_time=4.0,
    ),
}


def get_model(name: str) -> ModelConfig:
    """Look up a model descriptor by its paper name."""
    try:
        return MODEL_ZOO[name]
    except KeyError:
        raise WorkloadError(f"unknown model {name!r}; available: {sorted(MODEL_ZOO)}") from None
