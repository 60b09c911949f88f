"""Remote browser emulator: closed loop, sessions, timeouts."""

import pytest

from repro.faults.metrics import MetricsCollector
from repro.sim import Network, NetworkParams, Node, SeedTree, Simulator
from repro.load.closed_loop import RemoteBrowserEmulator
from repro.tpcw.workload import Interaction, SHOPPING
from repro.web.http import Request, Response
from repro.web.proxy import CLIENT_IN_PORT


class StubProxy:
    """Answers every request after a fixed delay (or swallows them)."""

    def __init__(self, node, delay=0.05, swallow=False, data=None):
        self.node = node
        self.delay = delay
        self.swallow = swallow
        self.data = data or {}
        self.requests = []
        node.handle(CLIENT_IN_PORT, self._on_request)

    def _on_request(self, request, src):
        self.requests.append(request)
        if self.swallow:
            return

        def respond():
            yield self.node.sim.timeout(self.delay)
            self.node.send(request.reply_to, request.reply_port,
                           Response(request.req_id, ok=True, data=dict(self.data)))

        self.node.spawn(respond())


def make_rbe(think=0.5, timeout=2.0, swallow=False, data=None, seed=9):
    sim = Simulator()
    tree = SeedTree(seed)
    network = Network(sim, NetworkParams(), seed=tree)
    client = Node(sim, network, "client")
    proxy_node = Node(sim, network, "proxy")
    proxy = StubProxy(proxy_node, swallow=swallow, data=data)
    collector = MetricsCollector()
    rbe = RemoteBrowserEmulator(client, "proxy", SHOPPING, collector,
                                tree.fork_random("rbe"), rbe_id=1,
                                think_time_s=think, timeout_s=timeout)
    rbe.start()
    return sim, proxy, collector, rbe


def test_closed_loop_rate_is_bounded_by_think_time():
    sim, proxy, collector, _rbe = make_rbe(think=0.5)
    sim.run(until=30.0)
    completed = len(collector.samples)
    # rate ~ 1/(think+delay) = ~1.8/s; allow generous slack both ways.
    assert 30 <= completed <= 70


def test_interactions_follow_the_profile_mix():
    sim, proxy, collector, _rbe = make_rbe(think=0.02)
    sim.run(until=60.0)
    kinds = [interaction for _s, _d, interaction, _ok, _e in collector.samples]
    assert len(kinds) > 400
    home_share = kinds.count(Interaction.HOME) / len(kinds)
    assert 0.10 <= home_share <= 0.25  # shopping mix: 16%


def test_timeout_recorded_as_error():
    sim, proxy, collector, _rbe = make_rbe(timeout=1.0, swallow=True)
    sim.run(until=10.0)
    assert collector.samples, "requests must have been attempted"
    assert all(not ok for _s, _d, _i, ok, _e in collector.samples)
    assert all(e == "timeout" for _s, _d, _i, _ok, e in collector.samples)


def test_session_adopts_customer_and_cart_ids():
    sim, proxy, collector, rbe = make_rbe(
        think=0.05, data={"c_id": 77, "sc_id": 12})
    sim.run(until=10.0)
    assert rbe.session.get("c_id") == 77
    # sc_id is adopted, then dropped whenever a BUY_CONFIRM completes.
    kinds = [interaction for _s, _d, interaction, _ok, _e in collector.samples]
    if Interaction.BUY_CONFIRM not in kinds[-1:]:
        assert rbe.session.get("sc_id") in (12, None)


def test_session_picks_item_from_result_lists():
    sim, proxy, collector, rbe = make_rbe(think=0.05,
                                          data={"items": [4, 5, 6]})
    sim.run(until=5.0)
    assert rbe.session.get("i_id") in (4, 5, 6)


def test_requests_carry_stable_client_id():
    sim, proxy, collector, rbe = make_rbe(think=0.05)
    sim.run(until=5.0)
    client_ids = {request.client_id for request in proxy.requests}
    assert client_ids == {rbe.rbe_id}


def test_stale_response_after_timeout_is_dropped():
    sim, proxy, collector, rbe = make_rbe(think=0.2, timeout=0.01)
    # delay (0.05) > timeout (0.01): every response arrives late.
    sim.run(until=5.0)
    errors = [e for _s, _d, _i, ok, e in collector.samples if not ok]
    assert errors and set(errors) == {"timeout"}
    # The late responses never get mis-attributed to newer requests:
    oks = [ok for _s, _d, _i, ok, _e in collector.samples]
    assert True not in oks


def test_straggler_at_the_deadline_loses_no_later_answer():
    """A straggler that lands exactly at a wait's deadline, ahead of the
    wait's own timer, ends the wait as a timeout and must leave no
    getter queued behind it: the next wait still gets its answer."""
    sim = Simulator()
    tree = SeedTree(9)
    client = Node(sim, Network(sim, NetworkParams(), seed=tree), "client")
    rbe = RemoteBrowserEmulator(client, "proxy", SHOPPING, MetricsCollector(),
                                tree.fork_random("rbe"), rbe_id=1,
                                timeout_s=1.0)
    # Both put before the first wait arms its timer, so at t=1 the
    # straggler fires first.
    sim.call_at(1.0, rbe._responses.put, Response("r1-1", ok=True))
    sim.call_at(1.5, rbe._responses.put, Response("r1-3", ok=True))
    got = []

    def waits():
        got.append((yield from rbe._await("r1-2")))
        got.append((yield from rbe._await("r1-3")))

    sim.spawn(waits())
    sim.run()
    assert got[0] is None
    assert got[1] is not None and got[1].req_id == "r1-3"
