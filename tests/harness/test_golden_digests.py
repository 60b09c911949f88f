"""Golden digests: the determinism contract, pinned.

Same config + seed must give the same run.  Each case below is a
tiny-scale experiment; between them the cases use every fault kind,
through ``faults()`` or ``nemesis()``.  The first seven cases' digests
were computed before the flat and sharded cluster classes were merged,
the last four before the fault-kind registry replaced the per-kind
dispatch.  Each case has three digests:

* ``result`` -- sha256 of ``ExperimentResult.to_dict()`` minus the
  observer-dependent keys (the same definition as the ledger's
  ``extract.digest``, re-stated here on purpose: the pin must not move
  when the ledger does);
* ``trace`` -- sha256 of the safety audit (the event-log kinds
  ``SafetyChecker.AUDIT_KINDS``);
* ``flight`` -- sha256 of the flight-recorder stream.

Every case must also reproduce its ``result`` digest with no observer
attached at all (no event log), which pins that observing is free of
side effects for every fault kind.

One more pin is the ledger's ``crash_failover`` workload at seed 2009,
digested exactly as the ledger digests it (``CRASH_FAILOVER_2009``).

A digest that moves means the simulation changed.  If that is
deliberate (a model change), regenerate with::

    PYTHONPATH=src python tests/harness/test_golden_digests.py

and say so in CHANGES.md; a refactor must leave every line untouched.
"""

import hashlib
import json

import pytest

from repro.faults.faultload import ALL_KINDS, Faultload
from repro.harness import Experiment, tiny_scale

#: to_dict() keys that depend on which observers were attached.
DIGEST_SKIP = ("kernel_profile", "timeline", "metrics", "safety_violations",
               "flight_recorder", "slo")

DCS = ("dc0", "dc1", "dc2")


def _flat():
    return (Experiment(tiny_scale(), replicas=3, num_ebs=30, seed=20090629)
            .load("closed", wips=400.0))


def _sharded():
    return _flat().shards(2)


CASES = {
    "flat-one-crash": lambda: _flat().one_crash(replica=1),
    "flat-nemesis": lambda: _flat().nemesis(
        "drop@10-60:p=0.1,oneway@30-90:0>1,torn@100-300:1").one_crash(1),
    "flat-geo-dcfail": lambda: _flat().geo(dcs=DCS).faults(
        "dcfail@240-400:dc1"),
    "flat-retrystorm": lambda: _flat().faults("retrystorm@240-270:factor=8"),
    "sharded-crash-random": lambda: _sharded().faults("crash@240:1.*"),
    "sharded-oneway-corrupt": lambda: _sharded().faults(
        "oneway@30-90:0.1>1.2,corrupt@240:1.0"),
    "sharded-geo-wanpart": lambda: _sharded().geo(dcs=DCS).faults(
        "wanpart@240-400:dc0|dc1"),
    "flat-partition-reboot": lambda: _flat().faults(
        "partition@240:1,heal@300:1,crash@330:2,reboot@390:2"),
    "flat-message-faults": lambda: _flat().faults(
        "dup@10-60:p=0.1,delay@60-120:0>1:p=0.3:m=0.05,"
        "drop@120-180:1>2:p=0.5"),
    "flat-storage-windows": lambda: _flat().faults(
        "fsynclie@200-300:1,failslow@200-300:2:m=4,crash@250:1"),
    "flat-geo-wandegrade": lambda: _flat().geo(dcs=DCS).faults(
        "wandegrade@240-400:dc0>dc1,x5"),
}

GOLDEN = {
    "flat-one-crash": {
        "result": "01f1fa100b9fe29a5e1ad006b31ad6d3756711fbc5ea91cba5aa02026270269f",
        "trace": "a9a28e2f7f26a9858a252e5784c693db8533dfe93e7f21ebee83889d40520816",
        "flight": "0b867b22fcdceaeb850c9006a0d7ee56b05cce5d240535bd4e1537bd3c3530b0"
    },
    "flat-nemesis": {
        "result": "03b1e7c295fe4810bdfd0a024eee0cb34b514b9eabf1d80d5beae7663367e9f1",
        "trace": "91a6204cf3e9954e7cdee773bd02aa43ddea82594775e0f6f6988ad8cf201029",
        "flight": "866d7a261bef2a33a2029aa49af9c2aa18505c1021c1600635fefcb5bce68a2d"
    },
    "flat-geo-dcfail": {
        "result": "51d0a62d6f885e712b0265020cecae6ffd517b9b5b4d10b55179c5eab69b6b4f",
        "trace": "306972b915e8fd688d8c062af42001f6381a3d6b3b7d227fbd21087fc54301b2",
        "flight": "5dae4ae645e9b770dcbd33d59bc7bfda27a039a3a0d51329251ff2e9df5f31d7"
    },
    "flat-retrystorm": {
        "result": "1b8b7fa85107763bbbf3a36f333eba6dcf723208fd602d69b57dab4f5403393e",
        "trace": "4b13162b8d04af9c68991a54736b7f1e658ce72c04a12b1ebdfb9177ee3db13a",
        "flight": "5804ce800f14bd311e8e25b9d79985b459fa81032d45351a0e1ecdb2b6ac422c"
    },
    "sharded-crash-random": {
        "result": "7e3a970a59c9ed9454089773e9b2cc536f3315de29ed5efab2a4d52e85bff016",
        "trace": "71c1c06cb2e6c4aae2593d61ce1c866e8a07fae93c36aa0922e2d07ab28300a1",
        "flight": "f134a200c84de58408ad0d837a685d5e4afcfa4ab2736ffa01e9dd42564b282e"
    },
    "sharded-oneway-corrupt": {
        "result": "ebe63983227604b3d04b642e4a2cb68a40b4f918255db0a50acb372ec76bf4a5",
        "trace": "b4555955e4437a9a5ca425d2687a49211a79c548c0545b6fac375bc56bf393bc",
        "flight": "840062d172445d8e3ffd537e0b50bccfbf12c952478e28d1e453f8cc8668d6d2"
    },
    "sharded-geo-wanpart": {
        "result": "45797c59af7a3486c7ebc6b01e9ff00acd1c83de731df94d9cc35f77ba53ef26",
        "trace": "02aba8d333e76ddbd3cc6820b87bdbe71270f207a04f656c4227c14939efb0e7",
        "flight": "4227cf15a7c87321567d9659e540b20ee1caff21728ff032d4eb77920af6cdd1"
    },
    "flat-partition-reboot": {
        "result": "c9ec1acf15492d505711aaf7a55cfe348fb4e11b5dcc3471d4a6fff263c11484",
        "trace": "934a04e9932c03c2912600898bc2b204f0e8477f3740cfe921ba756424d75eac",
        "flight": "75b8322969bdf021723f83a4217abe1379bf004e67358bd3dc86ded797904543"
    },
    "flat-message-faults": {
        "result": "0a54a756ce7a10af76f5f5531d24890437685479feffa52f64ebe25f0d204862",
        "trace": "53be303f80d829ec24015ac977a9aa7d1d4efe1b168c4c987f97701176feeec3",
        "flight": "dc73a4b2eda57451982a1bd71a622cec13ccb44b51cb736e38158ab1f9741371"
    },
    "flat-storage-windows": {
        "result": "0aed2c4d155134f70565b8ca18537a2638c8c7fedc5c273f6cbe3bb51b712f9c",
        "trace": "e200136e0c4c4ec5c1ffbb202c0f48f1859219be09ddd04f936a02c1430e9781",
        "flight": "ac6338e57910353a8bced487e565aa5a3ab2903cd0a2c0e96299697d3334ac7e"
    },
    "flat-geo-wandegrade": {
        "result": "33a23ee909cc80485878f7ced5adc6f5966a6cd0d881dab9fc174057b26398a4",
        "trace": "3eabca280895063a2eaeb91abd391847f9c61e941260740cf923c63b5ad4f0b6",
        "flight": "0b703abf1e59d8d7b33b6383097cc69fca8e7aa834f7e19cc3748682c2b54c20"
    },
}


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _result_digest(result) -> str:
    return _sha({key: value for key, value in result.to_dict().items()
                 if key not in DIGEST_SKIP})


def digests(name: str) -> dict:
    result = CASES[name]().check_safety().record().keep_cluster().run()
    trace = [(e.time, e.kind, e.node, e.fields)
             for e in result.cluster.audit.events]
    assert trace and result.flight.recorded
    return {"result": _result_digest(result), "trace": _sha(trace),
            "flight": _sha(list(result.flight.iter_dicts()))}


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_golden_digests(name):
    assert digests(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_unobserved_run_matches_golden_result(name):
    result = CASES[name]().keep_cluster().run()
    assert result.cluster.sim.event_log is None
    assert _result_digest(result) == GOLDEN[name]["result"]


def test_every_fault_kind_has_a_golden_case():
    kinds = set()
    for build in CASES.values():
        experiment = build()
        config = experiment.build_config()
        faultload = experiment._resolve_faultload(config)
        kinds.update(event.kind for event in faultload.events)
        if config.nemesis_spec:
            kinds.update(event.kind for event in
                         Faultload.parse(config.nemesis_spec).events)
    assert kinds == set(ALL_KINDS)


#: The ledger's ``crash_failover`` workload at seed 2009, digested as
#: ``ledger.extract.digest`` does.  The ledger's own CI check compares
#: this workload with its baseline only to nine digits (the baseline
#: predates the pure-Python CBMG fit), so this pin is its bit-exact gate.
CRASH_FAILOVER_2009 = (
    "6b0c997705643c1f69f29e43d9b330e8569a1caa1d23e324eb4f90d75249687c")


def test_ledger_crash_failover_digest_is_pinned():
    from ledger import extract, workloads  # read-only: the workload's definition

    result = workloads.experiment("crash_failover", 2009).run()
    assert extract.digest(result.to_dict()) == CRASH_FAILOVER_2009


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{case}": {json.dumps(digests(case), indent=8)[:-1]}    }},')
