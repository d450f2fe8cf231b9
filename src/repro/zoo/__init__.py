"""Workload zoo: the benchmark layers evaluated by the paper."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".resnet50": (
        "RESNET50_LAYERS",
        "resnet50_layer_types",
        "resnet50_representative",
        "resnet50_workloads",
    ),
    ".alexnet": ("ALEXNET_LAYERS", "alexnet_conv2"),
    ".deepbench": (
        "DEEPBENCH_CONV",
        "DEEPBENCH_GEMM",
        "deepbench_representative",
        "deepbench_workloads",
    ),
    ".toy": ("fig7_conv_workload", "fig7_matmul_workload", "table1_workload"),
    ".handcrafted": ("alexnet_conv2_strip_mined",),
    ".mobilenet": (
        "MOBILENET_V1_LAYERS",
        "mobilenet_representative",
        "mobilenet_workloads",
    ),
    ".vgg16": ("VGG16_LAYERS", "vgg16_workloads"),
    ".bert": ("BERT_BASE_LAYERS", "bert_base_workloads", "bert_representative"),
})
