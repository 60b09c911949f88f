"""Figure 4 + Section 5.3 -- Scaleup at a fixed 1000 WIPS offered load.

Paper claims reproduced here:

* browsing scales ideally (a flat WIPS line);
* shopping and ordering decline only gently as replicas are added
  (paper: ~-0.85%/replica shopping, ~-2.1%/replica ordering);
* delivered WIPS and WIRT are strongly linearly correlated for the
  write-heavy profiles (paper: r^2 = 0.8788 browsing, 0.9976 shopping,
  0.9958 ordering).
"""

import pytest

from repro.harness.config import ClusterConfig
from repro.harness.report import format_table
from repro.harness.sweeps import scaleup_slope_pct, scaleup_sweep, wips_wirt_r2

from benchmarks.common import emit, run_once, scale, sweep_replicas

PAPER_R2 = {"browsing": 0.8788, "shopping": 0.9976, "ordering": 0.9958}
PAPER_SLOPE_PCT = {"browsing": 0.0, "shopping": -0.85, "ordering": -2.1}


@pytest.mark.benchmark(group="fig4")
def test_fig4_scaleup(benchmark):
    replicas_list = sweep_replicas()

    def run():
        return {profile: scaleup_sweep(
                    ClusterConfig(scale=scale(), profile=profile,
                                  offered_wips=1000.0),
                    replicas_list)
                for profile in ("browsing", "shopping", "ordering")}

    sweeps = run_once(benchmark, run)
    rows = []
    slopes = {}
    for profile, points in sweeps.items():
        slopes[profile] = scaleup_slope_pct(points)  # % per replica added
        r2 = wips_wirt_r2(points)
        for point in points:
            rows.append([point.label, f"{point.awips:.0f}",
                         f"{point.mean_wirt_ms:.0f}"])
        rows.append([f"{profile} slope %/replica",
                     f"{slopes[profile]:+.2f} (paper {PAPER_SLOPE_PCT[profile]:+.2f})",
                     f"r2={r2:.3f} (paper {PAPER_R2[profile]:.3f})"])
    emit("fig4_scaleup", format_table(
        "Figure 4: scaleup at 1000 offered WIPS",
        ["config", "WIPS", "WIRT ms / fit"], rows))

    # Shape assertions.
    assert abs(slopes["browsing"]) < 1.0       # near-ideal scaleup
    assert slopes["ordering"] <= slopes["browsing"] + 0.5
    for ordering, browsing in zip(sweeps["ordering"], sweeps["browsing"]):
        assert ordering.mean_wirt_ms > browsing.mean_wirt_ms
    # WIPS stays within a few percent of offered for every profile.
    offered = 1000.0 / scale().load_div
    for profile in ("browsing", "shopping"):
        for point in sweeps[profile]:
            assert point.awips > 0.93 * offered
