"""Figure 3 -- Speedup: saturated WIPS and WIRT vs. number of replicas.

Paper claims reproduced here (Section 5.2):

* browsing and shopping speed up almost identically, reaching ~2x at 12
  replicas (paper: S8~1.59, S12~1.97 for browsing; +11.3%/replica for
  shopping);
* the ordering profile "has by far crossed the threshold": its speedup
  collapses (paper: S8~1.29, ~+5.35%/replica);
* response time grows with the write ratio.
"""

import pytest

from repro.harness.config import ClusterConfig
from repro.harness.report import format_table
from repro.harness.sweeps import speedup_sweep, speedups

from benchmarks.common import emit, run_once, scale, sweep_replicas

#: Paper values read from Figure 3 / Section 5.2.
PAPER_SPEEDUP = {
    ("browsing", 8): 1.59, ("browsing", 12): 1.97,
    ("shopping", 8): 1.52, ("shopping", 12): 1.97,
    ("ordering", 8): 1.29, ("ordering", 12): 1.43,
}


@pytest.mark.benchmark(group="fig3")
def test_fig3_speedup(benchmark):
    replicas_list = sweep_replicas()

    def run():
        return {profile: speedup_sweep(
                    ClusterConfig(scale=scale(), profile=profile),
                    replicas_list)
                for profile in ("browsing", "shopping", "ordering")}

    sweeps = run_once(benchmark, run)
    s_k = {profile: speedups(points) for profile, points in sweeps.items()}
    rows = []
    for profile, points in sweeps.items():
        for point, speedup in zip(points, s_k[profile]):
            paper = PAPER_SPEEDUP.get((profile, point.replicas))
            rows.append([point.label, f"{point.awips:.0f}",
                         f"{point.mean_wirt_ms:.0f}", f"{speedup:.2f}",
                         "-" if paper is None else f"{paper:.2f}"])
    emit("fig3_speedup", format_table(
        "Figure 3: speedup (saturated load)",
        ["config", "WIPS", "WIRT ms", "S_k (measured)", "S_k (paper)"],
        rows))

    # Shape assertions: who wins at the largest cluster, by roughly what
    # factor.
    assert s_k["browsing"][-1] > 1.5
    assert s_k["shopping"][-1] > 1.4
    assert s_k["ordering"][-1] < s_k["shopping"][-1]
    assert s_k["ordering"][-1] < 1.4  # crossed the threshold
    for browsing, shopping, ordering in list(zip(
            sweeps["browsing"], sweeps["shopping"], sweeps["ordering"]))[1:]:
        assert ordering.mean_wirt_ms > shopping.mean_wirt_ms
        assert shopping.mean_wirt_ms > browsing.mean_wirt_ms
