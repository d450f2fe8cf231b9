"""Workload (problem) representation.

A :class:`~repro.problem.workload.Workload` describes a tensor-algebra
operation einsum-style: a set of named iteration dimensions with sizes, and a
set of operand tensors whose coordinates project onto those dimensions. Convs
and GEMMs are built through the helpers in :mod:`repro.problem.conv` and
:mod:`repro.problem.gemm`.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".tensor": ("ProjectionTerm", "TensorSpec"),
    ".workload": ("Workload",),
    ".conv": ("ConvLayer", "conv_workload"),
    ".depthwise": ("DepthwiseConvLayer", "depthwise_workload"),
    ".groupconv": ("GroupConvLayer", "group_conv_workload"),
    ".gemm": ("GemmLayer", "gemm_workload"),
    ".padding": ("PaddingResult", "pad_dimension", "pad_to_multiple"),
})
