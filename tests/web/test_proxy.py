"""Reverse-proxy behaviour: probing, hashing, redispatch, broken pipes."""

import pytest

from repro.sim import Network, NetworkParams, Node, SeedTree, Simulator
from repro.web.http import Request, Response
from repro.web.proxy import (CLIENT_IN_PORT, CPU_REQUEST_S, CPU_RESPONSE_S,
                             ProxyParams, ReverseProxy)
from repro.web.server import HTTP_PORT, PROBE_PORT, PROBE_REPLY_PORT
from repro.tpcw.workload import Interaction


class StubBackend:
    """A backend that answers probes and echoes requests after a delay."""

    def __init__(self, node, ready=True, delay=0.005):
        self.node = node
        self.ready = ready
        self.delay = delay
        self.served = 0
        node.handle(PROBE_PORT, self._on_probe)
        node.handle(HTTP_PORT, self._on_request)

    def rebind(self):
        self.node.handle(PROBE_PORT, self._on_probe)
        self.node.handle(HTTP_PORT, self._on_request)

    def _on_probe(self, probe_id, src):
        self.node.send(src, PROBE_REPLY_PORT,
                       (probe_id, self.node.name, self.ready))

    def _on_request(self, request, src):
        if not self.ready:
            self.node.send(src, "proxy-resp",
                           Response(request.req_id, ok=False, refused=True))
            return

        def respond():
            yield self.node.sim.timeout(self.delay)
            self.node.send(src, "proxy-resp",
                           Response(request.req_id, ok=True,
                                    data={"served_by": self.node.name}))

        self.served += 1
        self.node.spawn(respond())


class ProxyHarness:
    def __init__(self, n_backends=3, **params):
        self.sim = Simulator()
        self.network = Network(self.sim, NetworkParams(), seed=SeedTree(3))
        self.backend_nodes = [Node(self.sim, self.network, f"b{i}")
                              for i in range(n_backends)]
        self.backends = [StubBackend(node) for node in self.backend_nodes]
        self.proxy_node = Node(self.sim, self.network, "proxy")
        self.proxy = ReverseProxy(self.proxy_node,
                                  [n.name for n in self.backend_nodes],
                                  ProxyParams(**params) if params else ProxyParams())
        self.proxy.start()
        self.client = Node(self.sim, self.network, "client")
        self.responses = []
        self.client.handle("resp", lambda payload, src: self.responses.append(payload))
        self._seq = 0

    def send(self, client_id=1):
        self._seq += 1
        request = Request(f"q{self._seq}", client_id, "client", "resp",
                          Interaction.HOME, {}, sent_at=self.sim.now)
        self.client.send("proxy", CLIENT_IN_PORT, request)
        return request.req_id

    def run(self, seconds):
        self.sim.run(until=self.sim.now + seconds)


def test_request_forwarded_and_answered():
    harness = ProxyHarness()
    harness.send()
    harness.run(1.0)
    assert len(harness.responses) == 1
    assert harness.responses[0].ok


def test_hash_balancing_is_deterministic_per_client():
    harness = ProxyHarness()
    for _ in range(6):
        harness.send(client_id=7)
    harness.run(1.0)
    served = [b.served for b in harness.backends]
    assert sorted(served) == [0, 0, 6]  # same client -> same backend


def test_different_clients_spread_over_backends():
    harness = ProxyHarness()
    for client_id in range(9):
        harness.send(client_id=client_id)
    harness.run(1.0)
    served = [b.served for b in harness.backends]
    assert served == [3, 3, 3]


def test_refused_connection_redispatched_silently():
    harness = ProxyHarness()
    harness.backends[1].ready = False  # recovering server
    harness.send(client_id=1)  # hashes to backend 1
    harness.run(1.0)
    assert len(harness.responses) == 1
    assert harness.responses[0].ok
    assert harness.proxy.stats["redispatched"] >= 1


def test_dead_backend_request_redispatched_instantly():
    harness = ProxyHarness()
    harness.backend_nodes[1].crash()
    harness.send(client_id=1)
    harness.run(1.0)
    assert harness.responses and harness.responses[0].ok


def test_inflight_requests_error_on_backend_crash():
    harness = ProxyHarness()
    harness.backends[1].delay = 5.0  # slow response window
    harness.send(client_id=1)
    harness.run(0.1)  # request now in flight on backend 1
    harness.backend_nodes[1].crash()
    harness.run(0.5)
    assert len(harness.responses) == 1
    assert not harness.responses[0].ok
    assert "reset" in harness.responses[0].error
    assert harness.proxy.stats["broken_connections"] == 1


def test_probe_removes_dead_backend_after_fall_threshold():
    harness = ProxyHarness(probe_interval_s=1.0, probe_timeout_s=0.2)
    harness.backend_nodes[2].crash()
    harness.run(3.0)
    assert "b2" in harness.proxy.active  # fewer than 4 failures so far
    harness.run(3.0)
    assert "b2" not in harness.proxy.active
    assert harness.proxy.stats["removals"] == 1


def test_probe_readds_backend_after_rise_threshold():
    harness = ProxyHarness(probe_interval_s=1.0, probe_timeout_s=0.2)
    harness.backend_nodes[2].crash()
    harness.run(7.0)
    assert "b2" not in harness.proxy.active
    harness.backend_nodes[2].restart()
    harness.backends[2].rebind()
    harness.run(4.0)
    assert "b2" in harness.proxy.active
    assert harness.proxy.stats["readds"] == 1


def test_all_backends_down_gives_503():
    harness = ProxyHarness()
    for node in harness.backend_nodes:
        node.crash()
    harness.send()
    harness.run(1.0)
    assert len(harness.responses) == 1
    assert "503" in harness.responses[0].error


def test_not_ready_backend_fails_probe():
    harness = ProxyHarness(probe_interval_s=1.0, probe_timeout_s=0.2)
    harness.backends[0].ready = False
    harness.run(10.0)
    assert "b0" not in harness.proxy.active


def test_dead_backend_redispatch_is_charged_proxy_cpu():
    """A redispatch re-enters the work queue and costs ``CPU_REQUEST_S``
    like a fresh forward -- a redispatch storm must show up in the
    proxy's own queueing station, not ride for free."""
    harness = ProxyHarness()
    harness.backend_nodes[1].crash()  # client 1 hashes to b1
    harness.send(client_id=1)
    harness.run(1.0)
    assert harness.responses and harness.responses[0].ok
    assert harness.proxy.stats["redispatched"] == 1
    # initial forward + one redispatch, each a full request's worth of
    # CPU, plus relaying the single response.
    expected = 2 * CPU_REQUEST_S + CPU_RESPONSE_S
    assert harness.proxy_node.cpu.total_busy_time == pytest.approx(expected)
