"""The Paxos dispatcher's CPU charge for a group of messages.

The dispatcher prices a message by its class: ``cpu_per_message_s``,
plus ``cpu_per_command_s`` per command when the class carries a
:class:`Batch` as its ``value`` (``messages.BATCH_CARRIERS``).  A new
message class whose ``value`` is a batch must join that set, or the
dispatcher would under-charge it without any test noticing.
"""

import inspect
import typing

from repro.paxos import PaxosConfig, PaxosEngine
from repro.paxos import messages
from repro.paxos.messages import (BATCH_CARRIERS, Ballot, Batch, Command,
                                  Message)
from repro.sim import Network, NetworkParams, Node, SeedTree, Simulator


def message_classes():
    return [cls for _name, cls in inspect.getmembers(messages, inspect.isclass)
            if issubclass(cls, Message) and cls is not Message]


def batch(size):
    return Batch(tuple(Command(f"c{k}", None) for k in range(size)))


def example(cls, commands):
    """One instance of ``cls``, every field filled from its annotation;
    a batch holds ``commands`` commands."""
    samples = {Ballot: Ballot(2, 1), int: 7, Batch: batch(commands),
               typing.Optional[Batch]: batch(commands),
               Command: Command("fwd", None)}
    hints = typing.get_type_hints(cls)
    return cls(*(samples.get(hints[name], ()) for name in cls.__slots__))


def charge(group, config):
    """What the dispatcher bills for ``group``: one CPU grant."""
    sim = Simulator()
    network = Network(sim, NetworkParams(), seed=SeedTree(1))
    node = Node(sim, network, "r0")
    engine = PaxosEngine(node, ["r0", "r1", "r2"], 0, config, SeedTree(1))
    engine._HANDLERS = {}  # price only; handle nothing
    for message in group:
        engine._inbox.put((message, 1))
    node.spawn(engine._dispatcher())
    sim.run()
    assert node.cpu.jobs_served == 1
    return node.cpu.total_busy_time


def test_every_class_whose_value_is_a_batch_is_priced_per_command():
    carriers = {cls for cls in message_classes()
                if typing.get_type_hints(cls).get("value") is Batch}
    assert carriers == BATCH_CARRIERS
    assert {cls.__name__ for cls in carriers} == {
        "Phase2a", "FastPropose", "Accepted"}


def test_each_message_costs_one_message_plus_its_commands():
    config = PaxosConfig()
    for cls in message_classes():
        message = example(cls, commands=5)
        per_command = 5 if cls in BATCH_CARRIERS else 0
        assert charge([message], config) == (
            0.0 + config.cpu_per_message_s
            + config.cpu_per_command_s * per_command), cls.__name__


def test_a_group_is_summed_message_by_message():
    # cpu_per_message_s x n + cpu_per_command_s x commands, added in
    # group order: per message, then its commands.
    config = PaxosConfig(cpu_per_message_s=0.00013, cpu_per_command_s=0.00007)
    group = [example(cls, commands=k % 4 + 1)
             for k, cls in enumerate(message_classes() * 3)]
    expected = 0.0
    for message in group:
        expected += config.cpu_per_message_s
        if message.__class__ in BATCH_CARRIERS:
            expected += config.cpu_per_command_s * len(message.value)
    assert len(group) <= 64  # one group: the dispatcher drains up to 64
    assert charge(group, config) == expected
