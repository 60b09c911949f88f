"""SLO grammar and multi-window burn-rate alert arithmetic."""

import pytest

from repro.obs.recorder import FlightRecorder
from repro.obs.slo import BURN_WINDOWS, SloEngine, SloError, parse_slo
from repro.sim.core import Simulator
from repro.sim.trace import EventLog


class FakeCollector:
    """Just the ``samples`` list the engine reads: entries are
    ``(sent_at, done_at, interaction, ok, error_kind)``."""

    def __init__(self, samples=()):
        self.samples = list(samples)

    def ok(self, done_at, latency_s=0.1):
        self.samples.append((done_at - latency_s, done_at, "home", True, None))

    def err(self, done_at):
        self.samples.append((done_at - 0.1, done_at, "home",
                             False, "broken_connection"))


# ----------------------------------------------------------------- grammar

def test_parse_latency_objective():
    (obj,) = parse_slo("wirt_p99<2s")
    assert obj.kind == "latency"
    assert obj.budget == pytest.approx(0.01)
    assert obj.threshold_s == 2.0


def test_parse_accepts_ms_and_bare_seconds():
    assert parse_slo("wirt_p95<500ms")[0].threshold_s == 0.5
    assert parse_slo("wirt_p95<3")[0].threshold_s == 3.0
    assert parse_slo("wirt_p95<500ms")[0].budget == pytest.approx(0.05)


def test_parse_error_rate_and_availability_sugar():
    (err,) = parse_slo("error_rate<1%")
    assert err.kind == "error_rate" and err.budget == pytest.approx(0.01)
    (avail,) = parse_slo("availability>99.5%")
    assert avail.kind == "error_rate"
    assert avail.budget == pytest.approx(0.005)


def test_parse_combined_spec_tolerates_whitespace():
    objectives = parse_slo(" wirt_p99<2s , error_rate<1% ")
    assert [o.name for o in objectives] == ["wirt_p99<2s", "error_rate<1%"]


@pytest.mark.parametrize("bad_spec", [
    "",
    ",",
    "wirt_p99",                      # no comparison
    "latency<2s",                    # unknown objective
    "wirt_p100<2s",                  # percentile out of range
    "wirt_p99<0s",                   # non-positive threshold
    "wirt_p99<2h",                   # unknown unit
    "error_rate<1",                  # missing %
    "error_rate<0%",                 # budget out of range
    "error_rate<100%",
    "availability>100%",
    "uptime>99%",                    # only availability takes >
    "error_rate<1%,error_rate<1%",   # duplicate
])
def test_parse_rejects(bad_spec):
    with pytest.raises(SloError):
        parse_slo(bad_spec)


def test_slo_error_is_a_value_error():
    with pytest.raises(ValueError):
        parse_slo("nonsense")


# ------------------------------------------------------- window scaling

def test_burn_windows_scale_but_latency_thresholds_do_not():
    class Twenty:
        @staticmethod
        def t(seconds):
            return seconds / 20.0

    engine = SloEngine(None, FakeCollector(), "wirt_p99<2s", scale=Twenty())
    assert engine.windows == [("fast", 3.0, 0.25, 14.4),
                              ("slow", 30.0, 3.0, 6.0)]
    assert engine.tick_s == 0.25
    # the 2s latency bar is raw paper seconds, like wirt_compliance
    assert engine._thresholds_s == [2.0]
    engine._collector.ok(done_at=1.0, latency_s=0.5)  # 0.5s < 2s: good
    report = engine.report(0.0, 2.0)
    assert report["objectives"][0]["bad"] == 0
    assert report["pass"] is True


# ------------------------------------------------- exact alert fire times

def make_burst_collector():
    """50 good interactions at t=0..49, then one error per second at
    t=50..59 -- a crash-shaped error burst."""
    collector = FakeCollector()
    for t in range(50):
        collector.ok(done_at=float(t))
    for t in range(50, 60):
        collector.err(done_at=float(t))
    return collector


def test_alert_fire_times_are_exact():
    """Step the evaluator one second at a time and check the burn
    arithmetic picks the rising edge precisely.

    For ``error_rate<1%`` (budget 0.01) over the burst above, both
    pairs see the same [0, T] history while T < 60:

    * slow pair (thr 6): bad fraction first exceeds 0.06 at T=53
      (4 errors / 54 samples = 0.0741 -> burn 7.4)
    * fast pair (thr 14.4): first exceeds 0.144 at T=58
      (9 errors / 59 samples = 0.1525 -> burn 15.25), with the 5s
      short window all-bad (burn 100)
    """
    engine = SloEngine(None, make_burst_collector(), "error_rate<1%")
    for t in range(66):
        engine.evaluate_at(float(t))
    assert [(a["window"], a["t"]) for a in engine.alerts] == [
        ("slow", 53.0), ("fast", 58.0)]
    fast = engine.alerts[1]
    assert fast["burn_long"] == pytest.approx(15.254, abs=1e-3)
    assert fast["burn_short"] == 100.0
    assert fast["threshold"] == 14.4


def test_alerts_rearm_after_clearing():
    collector = make_burst_collector()
    sim = Simulator()  # only provides .now for recorder timestamps
    sim.event_log = EventLog(sim)
    recorder = FlightRecorder(sim)
    sim.event_log.subscribe(FlightRecorder.KINDS, recorder.take)
    engine = SloEngine(sim, collector, "error_rate<1%")
    for t in range(66):
        engine.evaluate_at(float(t))
    # recovery: a minute of clean traffic flushes both windows
    for t in range(60, 140):
        collector.ok(done_at=float(t) + 0.5)
    for t in range(66, 141):
        engine.evaluate_at(float(t))
    assert recorder.counts()["slo.alert"] == 2
    assert recorder.counts()["slo.alert_cleared"] == 2
    assert not any(engine._firing.values())
    # a second burst fires fresh alerts: the edge re-armed
    for t in range(141, 151):
        collector.err(done_at=float(t) - 0.5)
    for t in range(141, 151):
        engine.evaluate_at(float(t))
    assert len(engine.alerts) == 4
    assert engine.alerts[-1]["window"] == "fast"


def test_warmup_clamps_alert_windows():
    """Boot-transient errors inside the warmup never trip an alert --
    the windows are clamped to start at ``warmup_until``."""
    collector = FakeCollector()
    for t in range(5):
        collector.err(done_at=float(t))         # boot 503s
    for t in range(5, 120):
        collector.ok(done_at=float(t))
    hot = SloEngine(None, collector, "error_rate<1%")
    cold = SloEngine(None, collector, "error_rate<1%", warmup_until=30.0)
    for t in range(121):
        hot.evaluate_at(float(t))
        cold.evaluate_at(float(t))
    assert len(hot.alerts) > 0          # unclamped: boot errors fire
    assert cold.alerts == []            # clamped: warmup is ignored


def test_engine_loop_waits_out_the_warmup():
    sim = Simulator()
    collector = FakeCollector()
    for t in range(3):
        collector.err(done_at=float(t) * 0.1)
    for t in range(1, 40):
        collector.ok(done_at=float(t))
    engine = SloEngine(sim, collector, "error_rate<1%", warmup_until=10.0)
    engine.start()
    sim.run(until=35.0)
    assert engine.alerts == []
    assert engine._last_eval == 35.0    # ticked at 10, 15, ... 35


# --------------------------------------------------- report / window_burn

def test_report_mixed_verdict_and_total_burn():
    collector = FakeCollector()
    for t in range(98):
        collector.ok(done_at=float(t))
    collector.err(done_at=98.0)
    collector.err(done_at=99.0)
    engine = SloEngine(None, collector, "wirt_p95<2s,error_rate<1%")
    report = engine.report(0.0, 100.0)
    latency, errors = report["objectives"]
    # 2 bad of 100: under the 5% latency budget, over the 1% error budget
    assert latency["pass"] is True
    assert latency["budget_burn"] == pytest.approx(0.4)
    assert errors["pass"] is False
    assert errors["sli_bad_fraction"] == pytest.approx(0.02)
    assert errors["budget_burn"] == pytest.approx(2.0)
    assert report["pass"] is False
    assert report["total_budget_burn"] == pytest.approx(2.0)


def test_failed_interactions_are_never_fast():
    collector = FakeCollector()
    collector.ok(done_at=1.0, latency_s=0.1)
    collector.err(done_at=2.0)   # error counts against the latency SLO too
    engine = SloEngine(None, collector, "wirt_p50<2s")
    report = engine.report(0.0, 3.0)
    assert report["objectives"][0]["bad"] == 1


def test_window_burn_measures_against_the_whole_budget():
    collector = FakeCollector()
    for t in range(196):
        collector.ok(done_at=t * 0.5)
    for t in range(4):
        collector.err(done_at=50.0 + t)
    engine = SloEngine(None, collector, "error_rate<1%")
    (burn,) = engine.window_burn(50.0, 54.0, (0.0, 100.0))
    # whole window holds 200 interactions -> allowance = 0.01 * 200 = 2,
    # and the incident burned 4 errors = 2x the entire run's budget
    assert burn["bad"] == 4
    assert burn["budget_burn"] == pytest.approx(2.0)


def test_burn_windows_constant_shape():
    assert BURN_WINDOWS == (("fast", 60.0, 5.0, 14.4),
                            ("slow", 600.0, 60.0, 6.0))
