"""Unit tests for the network nemesis (drop/dup/delay adversary)."""

import math

import pytest

from repro.sim import (
    Nemesis,
    NemesisParams,
    NemesisWindow,
    Network,
    NetworkParams,
    Node,
    SeedTree,
    Simulator,
)
from repro.sim.trace import EventLog, Tracer


NEMESIS_EVENTS = ("nemesis.dropped", "nemesis.duplicated", "nemesis.delayed")


def make_cluster(n=2, seed=1, windows=(), tracer=None, **net_params):
    sim = Simulator()
    if tracer is not None:
        sim.event_log = EventLog(sim)
        sim.event_log.subscribe(NEMESIS_EVENTS, tracer.take)
    nemesis = Nemesis(sim, seed=SeedTree(seed))
    for window in windows:
        nemesis.add_window(window)
    params = (NetworkParams(**net_params) if net_params
              else NetworkParams(jitter_mean_s=1e-9))
    network = Network(sim, params, seed=SeedTree(seed), nemesis=nemesis)
    nodes = [Node(sim, network, f"n{i}") for i in range(n)]
    return sim, network, nemesis, nodes


def hammer(sim, nodes, count=200, gap_s=0.01):
    """Send ``count`` spaced datagrams n0 -> n1; return the receive log."""
    received = []
    nodes[1].handle("p", lambda pl, src: received.append((sim.now, pl)))

    def sender():
        for i in range(count):
            nodes[0].send("n1", "p", i)
            yield sim.timeout(gap_s)

    nodes[0].spawn(sender())
    return received


# ----------------------------------------------------------------------
# parameter and window validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [{"drop_p": -0.1}, {"drop_p": 1.5},
                                 {"duplicate_p": 2.0}, {"delay_p": -1.0},
                                 {"delay_mean_s": 0.0},
                                 {"delay_mean_s": -0.5}])
def test_params_validation(bad):
    with pytest.raises(ValueError):
        NemesisParams(**bad)


def test_params_noop_detection():
    assert NemesisParams().is_noop
    assert NemesisParams(delay_mean_s=0.5).is_noop  # mean alone does nothing
    assert not NemesisParams(drop_p=0.1).is_noop


def test_window_rejects_backwards_interval():
    with pytest.raises(ValueError):
        NemesisWindow(10.0, 5.0, NemesisParams(drop_p=0.1))


def test_window_matching_time_and_pairs():
    window = NemesisWindow(10.0, 20.0, NemesisParams(drop_p=1.0),
                           pairs=frozenset({("a", "b")}))
    assert window.matches(10.0, "a", "b")
    assert window.matches(19.99, "a", "b")
    assert not window.matches(20.0, "a", "b")   # end is exclusive
    assert not window.matches(9.99, "a", "b")
    assert not window.matches(15.0, "b", "a")   # pairs are directed
    everyone = NemesisWindow(0.0, math.inf, NemesisParams(drop_p=1.0))
    assert everyone.matches(1e9, "x", "y")


def test_add_window_registers_windows_in_order():
    nemesis = Nemesis(Simulator())
    window = NemesisWindow(1.0, 2.0, NemesisParams(drop_p=0.5),
                           pairs=frozenset({("a", "b")}))
    open_ended = NemesisWindow(3.0, math.inf, NemesisParams(duplicate_p=0.1))
    nemesis.add_window(window)
    nemesis.add_window(open_ended)
    assert nemesis.windows == [window, open_ended]


# ----------------------------------------------------------------------
# fate behaviour on a live network
# ----------------------------------------------------------------------
def test_certain_drop_loses_everything():
    window = NemesisWindow(0.0, math.inf, NemesisParams(drop_p=1.0))
    sim, network, nemesis, nodes = make_cluster(windows=[window])
    received = hammer(sim, nodes, count=50)
    sim.run()
    assert received == []
    assert nemesis.dropped == 50
    assert network.messages_sent == 50
    assert network.messages_delivered == 0


def test_certain_duplication_doubles_delivery():
    window = NemesisWindow(0.0, math.inf, NemesisParams(duplicate_p=1.0))
    sim, network, nemesis, nodes = make_cluster(windows=[window])
    received = hammer(sim, nodes, count=20)
    sim.run()
    assert len(received) == 40
    assert nemesis.duplicated == 20
    assert sorted(pl for _t, pl in received) == sorted(
        list(range(20)) + list(range(20)))


def test_delay_spikes_reorder_messages():
    window = NemesisWindow(0.0, math.inf,
                           NemesisParams(delay_p=0.5, delay_mean_s=0.2))
    sim, network, nemesis, nodes = make_cluster(windows=[window])
    received = hammer(sim, nodes, count=100, gap_s=0.005)
    sim.run()
    assert len(received) == 100  # delayed, never lost
    assert nemesis.delayed > 0
    order = [pl for _t, pl in received]
    assert order != sorted(order)  # spikes actually reordered traffic


def test_window_gates_by_time():
    window = NemesisWindow(0.5, 1.0, NemesisParams(drop_p=1.0))
    sim, network, nemesis, nodes = make_cluster(windows=[window])
    received = hammer(sim, nodes, count=150, gap_s=0.01)  # t in [0, 1.5)
    sim.run()
    fates = [pl for _t, pl in received]
    assert 40 <= nemesis.dropped <= 60  # the [0.5, 1.0) stretch
    assert all(pl < 50 or pl >= 100 for pl in fates)


def test_pair_scoped_window_spares_other_traffic():
    window = NemesisWindow(0.0, math.inf, NemesisParams(drop_p=1.0),
                           pairs=frozenset({("n0", "n1")}))
    sim, network, nemesis, nodes = make_cluster(n=3, windows=[window])
    received = []
    nodes[1].handle("p", lambda pl, src: received.append(("n1", src)))
    nodes[2].handle("p", lambda pl, src: received.append(("n2", src)))
    nodes[0].send("n1", "p", None)  # eaten
    nodes[0].send("n2", "p", None)  # spared: different destination
    nodes[1].send("n0", "p", None)  # spared: reverse direction
    nodes[1].handle("p", lambda pl, src: None)
    nodes[0].handle("p", lambda pl, src: received.append(("n0", src)))
    sim.run()
    assert ("n1", "n0") not in received
    assert ("n2", "n0") in received
    assert ("n0", "n1") in received


def test_overlapping_windows_compose():
    """Two half-drop windows over the same traffic lose ~75%."""
    windows = [NemesisWindow(0.0, math.inf, NemesisParams(drop_p=0.5)),
               NemesisWindow(0.0, math.inf, NemesisParams(drop_p=0.5))]
    sim, network, nemesis, nodes = make_cluster(windows=windows)
    received = hammer(sim, nodes, count=400)
    sim.run()
    assert 0.65 <= nemesis.dropped / 400 <= 0.85


def test_no_windows_is_transparent():
    sim, network, nemesis, nodes = make_cluster()
    received = hammer(sim, nodes, count=30)
    sim.run()
    assert [pl for _t, pl in received] == list(range(30))
    assert nemesis.counters == {"dropped": 0, "duplicated": 0, "delayed": 0}


def test_fate_is_seed_deterministic():
    def run(seed):
        window = NemesisWindow(0.0, math.inf, NemesisParams(
            drop_p=0.3, duplicate_p=0.2, delay_p=0.3, delay_mean_s=0.05))
        sim, network, nemesis, nodes = make_cluster(seed=seed,
                                                    windows=[window])
        received = hammer(sim, nodes, count=100)
        sim.run()
        return nemesis.counters, received

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_nemesis_emits_trace_events():
    window = NemesisWindow(0.0, math.inf, NemesisParams(
        drop_p=0.4, duplicate_p=0.3, delay_p=0.3))
    tracer = Tracer()
    sim, network, nemesis, nodes = make_cluster(windows=[window],
                                                tracer=tracer)
    hammer(sim, nodes, count=200)
    sim.run()
    histogram = tracer.counts()
    assert histogram["nemesis.dropped"] == nemesis.dropped
    assert histogram["nemesis.duplicated"] == nemesis.duplicated
    assert histogram["nemesis.delayed"] == nemesis.delayed
    event = tracer.select(*NEMESIS_EVENTS)[0]
    assert event.node == "n0->n1"
