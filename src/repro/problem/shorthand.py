"""Workload shorthand: a GEMM or conv layer given as ``DIM: SIZE`` pairs.

The one parser behind the CLI's ``--gemm M=64,N=8,K=32`` /
``--conv C=64,M=128,...`` and the service's ``{"gemm": {...}}`` /
``{"conv": {...}}`` workloads, so both accept and reject the same shapes.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict, Mapping

from repro.exceptions import SpecError
from repro.problem.conv import ConvLayer
from repro.problem.gemm import GemmLayer
from repro.problem.workload import Workload

_LAYERS = {"gemm": GemmLayer, "conv": ConvLayer}


def split_shape(text: str) -> Dict[str, str]:
    """Split ``C=512,M=128`` into ``{"C": "512", "M": "128"}``."""
    shape: Dict[str, str] = {}
    for chunk in text.split(","):
        if not chunk:
            continue
        key, _, value = chunk.partition("=")
        if not value:
            raise SpecError(f"bad shape fragment {chunk!r}; expected DIM=SIZE")
        shape[key.strip()] = value.strip()
    return shape


def shorthand_workload(
    op: str, shape: Mapping[str, Any], name: str
) -> Workload:
    """Build the ``op`` ("gemm" or "conv") workload of ``shape``.

    Dim names are case-insensitive and any field of the layer dataclass
    (conv strides and dilations included); omitted dims default to 1.
    Sizes are integers or their decimal text. Unknown dims, booleans and
    other non-integer sizes raise :class:`SpecError`, as do sizes below 1.
    """
    layer = _LAYERS[op]
    allowed = [f.name for f in fields(layer) if f.name != "name"]
    dims = dict.fromkeys(allowed, 1)
    for key, value in shape.items():
        dim = str(key).lower()
        if dim not in allowed:
            raise SpecError(
                f"unknown {op} dim {key!r}; expected some of {allowed}"
            )
        if isinstance(value, str):
            try:
                value = int(value)
            except ValueError:
                pass
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(
                f"{op} dim {key!r}: size {value!r} is not an integer"
            )
        dims[dim] = value
    return layer(name=name, **dims).workload()
