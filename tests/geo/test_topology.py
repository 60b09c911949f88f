"""Unit tests for the geo topology, placement, and quorum-shape layer."""

import pytest

from repro.geo import (
    DEFAULT_INTRA,
    DEFAULT_WAN,
    DegradeWindow,
    GeoConfig,
    GeoDelayModel,
    LinkParams,
    Topology,
    paxos_geo_overrides,
    placement_dcs,
    quorum_sizes,
)
from repro.harness import ClusterConfig, tiny_scale
from repro.paxos import PaxosConfig, PaxosEngine
from repro.paxos.config import HEARTBEAT_INTERVAL_S
from repro.sim import Network, NetworkParams, Node, SeedTree, Simulator


def topo3(**kwargs):
    return Topology(("dc0", "dc1", "dc2"), **kwargs)


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------
def test_intra_defaults_match_flat_switch():
    flat = NetworkParams()
    assert DEFAULT_INTRA.latency_s == flat.base_latency_s
    assert DEFAULT_INTRA.bandwidth_mb_s == flat.bandwidth_mb_s
    assert DEFAULT_INTRA.jitter_mean_s == flat.jitter_mean_s


def test_link_intra_vs_wan():
    topo = topo3()
    assert topo.link("dc0", "dc0") == topo.intra
    assert topo.link("dc0", "dc1") == topo.wan
    assert topo.rtt_s("dc0", "dc1") == 2 * topo.wan.latency_s
    assert topo.max_rtt_s() == 2 * topo.wan.latency_s


def test_asymmetric_link_override():
    slow = LinkParams(latency_s=0.1, bandwidth_mb_s=10.0,
                      jitter_mean_s=0.005)
    topo = topo3(links=((("dc0", "dc1"), slow),))
    assert topo.link("dc0", "dc1") == slow
    assert topo.link("dc1", "dc0") == topo.wan  # other direction untouched
    assert topo.rtt_s("dc0", "dc1") == slow.latency_s + topo.wan.latency_s
    assert topo.max_rtt_s() == topo.rtt_s("dc0", "dc1")


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology(())
    with pytest.raises(ValueError):
        Topology(("dc0", "dc0"))
    with pytest.raises(ValueError):
        Topology(("dc zero",))
    with pytest.raises(ValueError):
        topo3(links=((("dc0", "nope"), DEFAULT_WAN),))


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------
def test_spread_placement_round_robins():
    geo = GeoConfig(topology=topo3())
    assert placement_dcs(geo, 5) == ("dc0", "dc1", "dc2", "dc0", "dc1")


def test_leader_local_placement_keeps_majority_home():
    geo = GeoConfig(topology=topo3(), placement="leader-local")
    dcs = placement_dcs(geo, 5)
    assert dcs.count("dc0") == 3  # replicas//2 + 1
    assert set(dcs) == {"dc0", "dc1", "dc2"}


def test_pinned_placement():
    geo = GeoConfig(topology=topo3(), placement="pinned",
                    pinned=("dc2", "dc2", "dc1"))
    assert placement_dcs(geo, 3) == ("dc2", "dc2", "dc1")
    with pytest.raises(ValueError):
        placement_dcs(geo, 5)  # pinned list must match the replica count


def test_geo_config_validation():
    with pytest.raises(ValueError):
        GeoConfig(topology=topo3(), placement="nope")
    with pytest.raises(ValueError):
        GeoConfig(topology=topo3(), quorum="nope")
    with pytest.raises(ValueError):
        GeoConfig(topology=topo3(), quorum="flex:0")
    with pytest.raises(ValueError):
        GeoConfig(topology=topo3(), client_dc="unknown")


# ----------------------------------------------------------------------
# quorum shapes
# ----------------------------------------------------------------------
def test_majority_shape_is_none():
    geo = GeoConfig(topology=topo3())
    assert quorum_sizes(geo, 5) is None


def test_leader_local_shape_shrinks_q2():
    geo = GeoConfig(topology=topo3(), placement="leader-local",
                    quorum="leader-local")
    q1, q2 = quorum_sizes(geo, 5)
    assert q2 == 3          # the leader DC's replica count
    assert q1 + q2 == 6     # FPaxos intersection: q1 + q2 > n


def test_flex_shape():
    geo = GeoConfig(topology=topo3(), quorum="flex:2")
    assert quorum_sizes(geo, 5) == (4, 2)


# ----------------------------------------------------------------------
# WAN-aware failure detection (the FD-timeout satellite)
# ----------------------------------------------------------------------
def test_no_geo_keeps_default_fd_timeout():
    config = ClusterConfig(scale=tiny_scale(), replicas=5)
    paxos = config.treplica_config().paxos
    base = PaxosConfig()
    assert paxos.failure_timeout_s == base.failure_timeout_s
    assert paxos.phase1_quorum is None and paxos.phase2_quorum is None


def test_lan_like_topology_keeps_default_fd_timeout():
    # Floor = 2*hb + 4*max_rtt = 0.7s < the 1.2s default: no override.
    geo = GeoConfig(topology=topo3())
    config = ClusterConfig(scale=tiny_scale(), replicas=5, geo=geo)
    assert (config.treplica_config().paxos.failure_timeout_s
            == PaxosConfig().failure_timeout_s)


def test_slow_wan_stretches_fd_timeout():
    from dataclasses import replace as dc_replace
    slow_wan = dc_replace(DEFAULT_WAN, latency_s=0.2)
    geo = GeoConfig(topology=topo3(wan=slow_wan))
    paxos = ClusterConfig(scale=tiny_scale(), replicas=5,
                          geo=geo).treplica_config().paxos
    expected = 2 * HEARTBEAT_INTERVAL_S + 4 * 0.4
    assert paxos.failure_timeout_s == pytest.approx(expected)


def test_probe_timeout_floors_above_wan_rtt():
    config = ClusterConfig(scale=tiny_scale(), replicas=5,
                           geo=GeoConfig(topology=topo3()))
    flat = ClusterConfig(scale=tiny_scale(), replicas=5)
    assert (config.proxy_params().probe_timeout_s
            >= 2 * config.geo.topology.max_rtt_s())
    # No geo: the scaled default, bit-for-bit.
    assert (flat.proxy_params().probe_timeout_s
            == tiny_scale().t(0.5))


def test_geo_overrides_set_flexible_quorums_and_disable_fast():
    geo = GeoConfig(topology=topo3(), placement="leader-local",
                    quorum="leader-local")
    overrides = paxos_geo_overrides(geo, 5, 1.2)
    assert overrides["phase1_quorum"] == 3
    assert overrides["phase2_quorum"] == 3
    assert overrides["enable_fast"] is False


# ----------------------------------------------------------------------
# engine: flexible quorum validation
# ----------------------------------------------------------------------
def standalone_engine(config, n=5):
    sim = Simulator()
    seed = SeedTree(0)
    network = Network(sim, NetworkParams(), seed=seed)
    nodes = [Node(sim, network, f"r{i}") for i in range(n)]
    return PaxosEngine(nodes[0], [node.name for node in nodes], 0,
                       config, seed)


def test_engine_accepts_intersecting_quorums():
    engine = standalone_engine(PaxosConfig(
        phase1_quorum=4, phase2_quorum=2, enable_fast=False))
    assert engine.q1 == 4 and engine.q2 == 2


def test_engine_rejects_non_intersecting_quorums():
    with pytest.raises(ValueError):
        standalone_engine(PaxosConfig(
            phase1_quorum=2, phase2_quorum=2, enable_fast=False))


def test_engine_rejects_fast_paxos_with_flexible_quorums():
    with pytest.raises(ValueError):
        standalone_engine(PaxosConfig(
            phase1_quorum=4, phase2_quorum=2, enable_fast=True))


# ----------------------------------------------------------------------
# delay model
# ----------------------------------------------------------------------
def test_degrade_windows_compose():
    # Windows come and go as the fault injector starts and heals them.
    model = GeoDelayModel(topo3(), {"a": "dc0", "b": "dc1"}, "dc0")
    assert model.degrade_factor("dc0", "dc1") == 1.0
    slow, slower = (DegradeWindow("dc0", "dc1", 4.0),
                    DegradeWindow("dc0", "dc1", 2.0))
    model.add_degrade(slow)
    assert model.degrade_factor("dc0", "dc1") == 4.0
    model.add_degrade(slower)
    assert model.degrade_factor("dc0", "dc1") == 8.0
    assert model.degrade_factor("dc1", "dc0") == 1.0  # directed
    _link, wan, factor = model.link_for("a", "b")
    assert wan and factor == 8.0
    _link, wan, factor = model.link_for("a", "a")
    assert not wan and factor == 1.0
    model.remove_degrade(slow)
    assert model.degrade_factor("dc0", "dc1") == 2.0
    model.remove_degrade(slower)
    assert model.link_for("a", "b")[1:] == (True, 1.0)
