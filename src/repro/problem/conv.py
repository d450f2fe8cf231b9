"""Convolution layers as workloads.

Uses the 7-dimensional CNN loopnest of the paper's Fig. 1:

* ``N`` — batch size
* ``C`` — input channels
* ``M`` — output channels
* ``P`` / ``Q`` — output feature-map height / width
* ``R`` / ``S`` — filter height / width

Operands: Weights ``[M, C, R, S]``, Inputs ``[N, C, H, W]`` with the
sliding-window projections ``H = stride_h*p + dilation_h*r`` (likewise W),
and Outputs ``[N, M, P, Q]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.exceptions import SpecError
from repro.problem.tensor import ProjectionTerm, TensorSpec, simple_tensor
from repro.problem.workload import Workload

CONV_DIMS = ("N", "C", "M", "P", "Q", "R", "S")


@dataclass(frozen=True)
class ConvLayer:
    """Shape of a convolution layer (output-size formulation).

    ``P`` and ``Q`` are the *output* spatial sizes; the implied input sizes
    are ``H = (P-1)*stride_h + (R-1)*dilation_h + 1`` (and similarly ``W``),
    i.e. padding is assumed already folded into the shape, matching how
    Timeloop problem files specify convs.
    """

    name: str
    n: int = 1
    c: int = 1
    m: int = 1
    p: int = 1
    q: int = 1
    r: int = 1
    s: int = 1
    stride_h: int = 1
    stride_w: int = 1
    dilation_h: int = 1
    dilation_w: int = 1

    def __post_init__(self) -> None:
        for field_name in ("n", "c", "m", "p", "q", "r", "s"):
            value = getattr(self, field_name)
            if value < 1:
                raise SpecError(
                    f"conv layer {self.name}: {field_name}={value} must be >= 1"
                )
        for field_name in ("stride_h", "stride_w", "dilation_h", "dilation_w"):
            value = getattr(self, field_name)
            if value < 1:
                raise SpecError(
                    f"conv layer {self.name}: {field_name}={value} must be >= 1"
                )

    @property
    def input_height(self) -> int:
        return (self.p - 1) * self.stride_h + (self.r - 1) * self.dilation_h + 1

    @property
    def input_width(self) -> int:
        return (self.q - 1) * self.stride_w + (self.s - 1) * self.dilation_w + 1

    @property
    def dim_sizes(self) -> Dict[str, int]:
        return {
            "N": self.n,
            "C": self.c,
            "M": self.m,
            "P": self.p,
            "Q": self.q,
            "R": self.r,
            "S": self.s,
        }

    def workload(self) -> Workload:
        """Materialize this layer as a :class:`Workload`."""
        return conv_workload(self)


def conv_workload(layer: ConvLayer) -> Workload:
    """Build the 7-loop convolution workload for ``layer``."""
    weights = simple_tensor("Weights", ("M", "C", "R", "S"))
    inputs = TensorSpec(
        name="Inputs",
        ranks=(
            (ProjectionTerm("N", 1),),
            (ProjectionTerm("C", 1),),
            (ProjectionTerm("P", layer.stride_h), ProjectionTerm("R", layer.dilation_h)),
            (ProjectionTerm("Q", layer.stride_w), ProjectionTerm("S", layer.dilation_w)),
        ),
    )
    outputs = simple_tensor("Outputs", ("N", "M", "P", "Q"), is_output=True)
    return Workload.create(
        name=layer.name,
        dims=layer.dim_sizes,
        tensors=[weights, inputs, outputs],
    )
