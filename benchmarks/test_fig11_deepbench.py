"""E10 (Fig. 11): DeepBench on the Eyeriss-like baseline.

Claims checked:

* suite-wide, Ruby-S at least matches PFM (paper: ~10% average EDP
  reduction) — asserted as a geomean EDP ratio below 1.0;
* the best individual win is large (paper: up to 33-45%);
* vision workloads (ImageNet-style factor-7 shapes) see little change —
  Ruby-S "almost always matches" PFM there — while the non-vision domains
  (speech / speaker / face / ocr) supply the wins.
"""

from conftest import run_once

from repro.core.metrics import geometric_mean
from repro.experiments.fig11 import format_fig11, run_fig11


def test_fig11_deepbench(benchmark, bench_scale):
    result = run_once(
        benchmark,
        lambda: run_fig11(
            seeds=(1, 2),
            max_evaluations=2_500 * bench_scale,
            patience=800 * bench_scale,
        ),
    )
    print("\n" + format_fig11(result))

    # Suite-wide: Ruby-S wins on average (paper: ~10%).
    assert result.geomean_edp_ratio < 1.0

    # Largest single-workload improvement is substantial (paper: 33-45%).
    assert result.best_improvement_percent > 20.0

    # Non-vision domains supply bigger wins than vision on average.
    by_domain = result.ratios_by_domain()
    vision_geomean = geometric_mean(by_domain["vision"])
    non_vision = [
        ratio
        for domain, ratios in by_domain.items()
        if domain != "vision"
        for ratio in ratios
    ]
    assert geometric_mean(non_vision) < vision_geomean * 1.05


def test_fig11_latency_objective(benchmark, bench_scale):
    """The paper's latency variant: ~14% cycle reduction suite-wide.

    Runs on a per-domain subset to stay fast; the claim is the geomean
    cycles ratio under a delay objective.
    """
    subset = (
        "db_vision_28x28",
        "db_speech_conv2",
        "db_face_conv2",
        "db_speaker_conv2",
        "db_gemm_speaker",
        "db_gemm_ocr",
    )
    result = run_once(
        benchmark,
        lambda: run_fig11(
            objective="delay",
            seeds=(1, 2),
            max_evaluations=2_500 * bench_scale,
            patience=800 * bench_scale,
            subset=subset,
        ),
    )
    print("\n" + format_fig11(result, chart=False))
    # Ruby-S cuts cycles on average when latency is the objective.
    assert result.geomean_cycles_ratio < 0.95
