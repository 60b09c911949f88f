"""A result that lacks a per-layer source yields ``None`` with a reason."""

from types import SimpleNamespace

from ledger import extract
from ledger.metrics import PER_LAYER

E2E = {"attempted": 10, "failed": 0, "timeouts": 0, "error_share": 0.0,
       "recovery_s": None}


def bare_result(**extra):
    """What is left of a result when every optional source is gone."""

    def no_trace():
        raise ValueError("this run recorded no spans")

    return SimpleNamespace(collector=SimpleNamespace(samples=[None] * 10),
                           critical_path=no_trace, recovery_phases=no_trace,
                           **extra)


def test_every_traced_metric_is_present_and_none_has_a_reason():
    values, reasons = extract.traced_layers(bare_result(), E2E)
    traced = {spec.name for spec in PER_LAYER if spec.source == "T"}
    # obs.overhead_pct needs two runs; the parent computes it.
    assert set(values) == traced - {"obs.overhead_pct"}
    assert {name for name, value in values.items() if value is None} \
        == set(reasons)
    for name in ("sim.core.events", "sim.core.host_share", "paxos.host_share",
                 "sim.network.messages", "paxos.decisions", "wirt.disk_s",
                 "recovery.checkpoint_s", "obs.spans", "shard.txn_started"):
        assert values[name] is None and reasons[name]


def test_a_missing_kernel_profile_does_not_hide_the_other_sources():
    registry = {"counters": {"paxos.decisions": 7, "paxos.fast_proposals": 4,
                             "paxos.fast_rejected": 1},
                "histograms": {}}
    values, reasons = extract.traced_layers(
        bare_result(metrics=registry, kernel_profile=None,
                    nemesis=SimpleNamespace(messages_sent=70)), E2E)
    assert values["sim.core.host_us_per_event"] is None
    assert "kernel_profile" in reasons["sim.core.host_us_per_event"]
    assert values["paxos.decisions"] == 7
    assert values["paxos.fast_accept_ratio"] == 0.75
    assert values["paxos.msgs_per_decision"] == 10
    assert values["sim.network.msgs_per_interaction"] == 7
    assert reasons["shard.txn_started"] == "not a sharded deployment"
    assert reasons["paxos.cmds_per_batch"] == "no batch was flushed"
