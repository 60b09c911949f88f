"""API-stability tests: the advertised public surface exists and stays.

The paper highlights that Treplica's programming interface is tiny ("based
on only 8 methods"); this pins our equivalent surface so refactors cannot
silently break downstream users.
"""

import inspect

import repro
import repro.faults
import repro.harness
import repro.paxos
import repro.sim
import repro.tpcw
import repro.treplica
import repro.web


def test_version():
    assert repro.__version__


def test_top_level_lazy_surface():
    """`repro.X` resolves the advertised names without import cycles."""
    assert set(repro.__all__) >= {"Experiment", "ExperimentScale",
                                  "ClusterConfig", "MetricsRegistry"}
    from repro.harness.experiment import Experiment
    from repro.obs.registry import MetricsRegistry
    assert repro.Experiment is Experiment
    assert repro.MetricsRegistry is MetricsRegistry
    assert {"Experiment", "MetricsRegistry"} <= set(dir(repro))
    try:
        repro.NoSuchThing
    except AttributeError as error:
        assert "NoSuchThing" in str(error)
    else:  # pragma: no cover
        raise AssertionError("expected AttributeError")


def test_obs_public_surface():
    from repro.obs import (KernelProfiler, MetricsRegistry, NullRegistry,
                           StreamingHistogram, Timeline, TimelineSampler,
                           registry_of)
    registry = MetricsRegistry()
    for method in ("register_counts", "gauge", "histogram", "snapshot"):
        assert callable(getattr(registry, method))
        assert callable(getattr(NullRegistry, method, None))
    for method in ("record", "rate", "to_dict", "from_dict", "to_csv"):
        assert callable(getattr(Timeline, method))
    assert callable(TimelineSampler.sample)
    assert callable(KernelProfiler.summary)
    assert callable(StreamingHistogram.quantile)
    assert callable(registry_of)


def test_treplica_core_interface():
    """The paper's two programming abstractions, methods pinned."""
    from repro.treplica import PersistentQueue, TreplicaRuntime
    for method in ("enqueue", "dequeue", "dequeue_batch", "start",
                   "truncate_below"):
        assert callable(getattr(PersistentQueue, method))
    for method in ("execute", "get_state", "read"):
        assert callable(getattr(TreplicaRuntime, method))
    assert callable(TreplicaRuntime.start)


def test_action_and_application_contracts():
    from repro.treplica import Action, Application, InMemoryApplication
    assert callable(Action.apply)
    for method in ("snapshot", "restore", "state_size_mb"):
        assert callable(getattr(Application, method))
    assert issubclass(InMemoryApplication, Application)


def test_paxos_public_surface():
    from repro.paxos import (Command, PaxosConfig, PaxosEngine,
                             classic_quorum, fast_quorum)
    for method in ("start", "submit", "truncate_below", "fast_forward"):
        assert callable(getattr(PaxosEngine, method))
    assert isinstance(PaxosEngine.mode, property)
    signature = inspect.signature(Command)
    assert list(signature.parameters)[:2] == ["uid", "payload"]


def test_sim_public_surface():
    from repro.sim import (Channel, Disk, Event, Network, Node,
                           ServiceStation, Simulator, WriteAheadLog)
    for method in ("call_at", "call_after", "run", "spawn", "timeout",
                   "event", "channel"):
        assert callable(getattr(Simulator, method))
    for method in ("crash", "restart", "reboot", "spawn", "handle", "send"):
        assert callable(getattr(Node, method))


def test_tpcw_public_surface():
    from repro.tpcw import (BookstoreApplication, BookstoreState,
                            PopulationParams, TPCWDatabase, populate,
                            profile_by_name)
    assert callable(populate)
    assert profile_by_name("shopping").update_fraction() > 0
    read_methods = ("get_book", "get_customer", "do_subject_search",
                    "do_title_search", "do_author_search",
                    "get_new_products", "get_best_sellers", "get_related",
                    "get_most_recent_order", "get_cart")
    write_methods = ("create_empty_cart", "do_cart", "refresh_session",
                     "create_new_customer", "buy_confirm", "admin_confirm")
    for method in read_methods + write_methods:
        assert callable(getattr(TPCWDatabase, method))


def test_harness_public_surface():
    from repro.harness import (ClusterConfig, Experiment, ExperimentScale,
                               MissingWindowError, RobustStoreCluster,
                               bench_scale, paper_scale, tiny_scale)
    assert bench_scale().time_div > paper_scale().time_div
    assert tiny_scale().time_div > bench_scale().time_div
    for method in ("baseline", "faults", "nemesis", "observe",
                   "check_safety", "one_crash", "two_crashes",
                   "sequential_crashes", "partition", "delayed_recovery",
                   "run"):
        assert callable(getattr(Experiment, method))
    assert issubclass(MissingWindowError, ValueError)


def test_faults_public_surface():
    from repro.faults import (FaultEvent, FaultInjector, Faultload,
                              MetricsCollector, Watchdog, WindowStats)
    assert callable(MetricsCollector.record)


def test_every_public_module_has_a_docstring():
    import pkgutil
    import importlib
    for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(module_info.name)
        assert module.__doc__, f"{module_info.name} lacks a docstring"
