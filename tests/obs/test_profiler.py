"""The event-kernel profiler."""

import pytest

from repro.obs.profiler import KernelProfiler, category_of_module
from repro.sim.core import Simulator


def test_category_of_module():
    assert category_of_module("repro.paxos.engine") == "paxos"
    assert category_of_module("repro.sim.core") == "sim"
    assert category_of_module("tests.obs.test_profiler") == "tests"
    assert category_of_module("") == "other"


def test_record_accumulates_by_category():
    profiler = KernelProfiler()

    def fake_fn():
        pass

    fake_fn.__module__ = "repro.paxos.engine"
    profiler.record(fake_fn, 0.25)
    profiler.record(fake_fn, 0.75)
    assert profiler.events == 2
    assert profiler.wall_s == pytest.approx(1.0)
    assert profiler.by_category["paxos"] == [2, pytest.approx(1.0)]


def test_summary_rates_and_ordering():
    profiler = KernelProfiler()

    def hot():
        pass

    def cold():
        pass

    hot.__module__ = "repro.paxos.engine"
    cold.__module__ = "repro.web.proxy"
    for _ in range(4):
        profiler.record(hot, 0.5)
    profiler.record(cold, 0.1)
    summary = profiler.summary(sim_elapsed_s=10.0)
    assert summary["events"] == 5
    assert summary["events_per_sim_s"] == pytest.approx(0.5)
    assert list(summary["by_category"]) == ["paxos", "web"]  # by wall desc
    assert summary["by_category"]["paxos"]["wall_us_per_event"] == \
        pytest.approx(0.5e6)


def test_kernel_hook_times_every_event():
    sim = Simulator()
    ticks = [0.0]
    profiler = KernelProfiler(clock=lambda: ticks.__setitem__(0, ticks[0] + 1e-3)
                              or ticks[0])
    sim.profiler = profiler

    def proc():
        for _ in range(5):
            yield sim.timeout(1.0)

    sim.spawn(proc(), name="p")
    sim.run(until=10.0)
    assert profiler.events > 0
    # the fake clock advances 1 ms per read; two reads bracket each event
    assert profiler.wall_s == pytest.approx(profiler.events * 1e-3)
    # every event here resumes ``proc``: the time is this module's, not
    # the kernel's
    assert set(profiler.by_category) == {"tests"}


def test_unprofiled_simulator_has_no_overhead_attributes():
    sim = Simulator()
    assert sim.profiler is None
    assert sim.metrics is None


def test_per_category_attribution_sums_to_totals():
    # Whatever the kernel dispatches, the per-category breakdown must
    # account for every event and every recorded wall-second exactly.
    sim = Simulator()
    ticks = [0.0]
    profiler = KernelProfiler(
        clock=lambda: ticks.__setitem__(0, ticks[0] + 1e-3) or ticks[0])
    sim.profiler = profiler

    def proc(delay):
        for _ in range(4):
            yield sim.timeout(delay)

    sim.spawn(proc(1.0), name="a")
    sim.spawn(proc(1.5), name="b")
    sim.run(until=10.0)
    events = sum(count for count, _wall in profiler.by_category.values())
    wall = sum(wall for _count, wall in profiler.by_category.values())
    assert events == profiler.events > 0
    assert wall == pytest.approx(profiler.wall_s)
    summary = profiler.summary(sim_elapsed_s=10.0)
    assert sum(row["events"] for row in summary["by_category"].values()) \
        == summary["events"]
    assert sum(row["wall_s"] for row in summary["by_category"].values()) \
        == pytest.approx(summary["wall_s"])


def test_detached_profiler_sees_nothing_from_step():
    # A profiler that is never attached as ``sim.profiler`` must stay
    # empty: the kernel's step loop takes the unprofiled path outright.
    sim = Simulator()
    bystander = KernelProfiler()

    def proc():
        for _ in range(5):
            yield sim.timeout(1.0)

    sim.spawn(proc(), name="p")
    sim.run(until=10.0)
    assert bystander.events == 0
    assert bystander.wall_s == 0.0
    assert bystander.by_category == {}
