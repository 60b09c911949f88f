"""The client contract both load drivers share (``repro.load.client``).

Each case runs once over the closed-loop browser and once over the
open-loop source, against a stub proxy on a two-node network.
"""

from collections import Counter

import pytest

from repro.faults.metrics import MetricsCollector
from repro.load import OpenLoopLoadSource, RemoteBrowserEmulator
from repro.resilience.retry import parse_retry
from repro.sim import Network, NetworkParams, Node, SeedTree, Simulator
from repro.tpcw.workload import SHOPPING
from repro.web.http import Response
from repro.web.proxy import CLIENT_IN_PORT

MODES = ("closed", "open")


class StubProxy:
    """Answers each request after ``delay(request)`` with
    ``answer(request)``, and keeps every request it received."""

    def __init__(self, node, delay, answer):
        self.node = node
        self.delay = delay
        self.answer = answer
        self.requests = []
        node.handle(CLIENT_IN_PORT, self._on_request)

    def _on_request(self, request, src):
        self.requests.append(request)
        delay, response = self.delay(request), self.answer(request)

        def respond():
            yield self.node.sim.timeout(delay)
            self.node.send(request.reply_to, request.reply_port, response)

        self.node.spawn(respond())


def run_driver(mode, delay, answer, *, timeout_s, retry=None, until=10.0):
    """Run one driver against a stub proxy; returns (driver, proxy,
    samples).  The open-loop source emulates a single user, so its
    session is as observable as the browser's."""
    sim = Simulator()
    tree = SeedTree(9)
    network = Network(sim, NetworkParams(), seed=tree)
    client = Node(sim, network, "client")
    proxy = StubProxy(Node(sim, network, "proxy"), delay, answer)
    collector = MetricsCollector()
    policy = parse_retry(retry)
    if mode == "closed":
        driver = RemoteBrowserEmulator(
            client, "proxy", SHOPPING, collector, tree.fork_random("rbe"),
            rbe_id=1, think_time_s=0.2, timeout_s=timeout_s, retry=policy,
            retry_rng=tree.fork_random("retry"))
    else:
        driver = OpenLoopLoadSource(
            client, "proxy", SHOPPING, collector, tree, source_id=0,
            wips=5.0, population=1, timeout_s=timeout_s, retry=policy)
    driver.start()
    sim.run(until=until)
    return driver, proxy, collector.samples


@pytest.mark.parametrize("mode", MODES)
def test_stale_response_neither_corrupts_session_nor_double_records(mode):
    """An answer that arrives after the client timeout is a straggler:
    it must not be mis-attributed to a newer request, must not update
    the session, and must not add a second sample for an interaction
    that was already recorded as a timeout."""
    def first(request):
        return request.req_id.endswith("-1")

    # The poisoned answer lands at ~2.0 s -- long after the 0.5 s
    # timeout, while later interactions are in flight.
    driver, proxy, samples = run_driver(
        mode, lambda r: 2.0 if first(r) else 0.01,
        lambda r: Response(r.req_id, ok=True,
                           data={"c_id": 666 if first(r) else 7}),
        timeout_s=0.5)

    assert len(samples) >= 5
    # One sample per interaction: no first-send instant is recorded twice
    # or recorded without having been sent.
    recorded = Counter(sent for sent, _d, _i, _ok, _e in samples)
    assert max(recorded.values()) == 1
    assert not recorded - Counter(r.sent_at for r in proxy.requests)
    # Exactly the first interaction timed out; everything else succeeded.
    poisoned = next(r for r in proxy.requests if first(r))
    assert [(sent, e) for sent, _d, _i, ok, e in samples if not ok] \
        == [(poisoned.sent_at, "timeout")]
    # The poisoned c_id from the stale body never reached the session.
    assert all(r.session.get("c_id") != 666 for r in proxy.requests)
    assert proxy.requests[-1].session.get("c_id") == 7


@pytest.mark.parametrize("mode", MODES)
def test_dry_budget_gives_up_and_records_the_failure(mode):
    """Every answer is an error, so every interaction wants all three
    retries.  Once the bucket is dry the client records the failure and
    sends nothing more for that interaction."""
    driver, proxy, samples = run_driver(
        mode, lambda r: 0.01,
        lambda r: Response(r.req_id, ok=False, error="boom"),
        timeout_s=1.0, retry="immediate:attempts=3,budget=10%", until=30.0)
    budget = driver.budget

    assert budget.denied > 0
    # A retry goes out only when the bucket grants one.
    tries = Counter(r.sent_at for r in proxy.requests)
    assert len(proxy.requests) - len(tries) == budget.spent
    # Each interaction's failure is recorded once, after its last try,
    # and every denial ended an interaction short of its retries.
    assert len({sent for sent, _d, _i, _ok, _e in samples}) == len(samples)
    assert all(not ok and e == "boom" for _s, _d, _i, ok, e in samples)
    short = [sent for sent, _d, _i, _ok, _e in samples if tries[sent] < 4]
    assert len(short) == budget.denied
