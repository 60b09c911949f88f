"""Golden digests: the determinism contract, pinned.

Same config + seed must give the same run.  Each case below is a
tiny-scale experiment; between them the cases use every fault kind,
through ``faults()`` or ``nemesis()``.  The first seven cases' digests
were computed before the flat and sharded cluster classes were merged,
the next four before the fault-kind registry replaced the per-kind
dispatch, and the last three -- client retries, navigation, deadline
propagation and the open loop -- before the two load drivers were
put on one client core.  Each case has four digests:

* ``result`` -- sha256 of ``ExperimentResult.to_dict()`` minus the
  observer-dependent keys (the same definition as the ledger's
  ``extract.digest``, re-stated here on purpose: the pin must not move
  when the ledger does);
* ``trace`` -- sha256 of the safety audit (the event-log kinds
  ``SafetyChecker.AUDIT_KINDS``);
* ``flight`` -- sha256 of the flight-recorder stream;
* ``counters`` -- sha256 of the final registry counters
  (``result.metrics["counters"]``, the run being observed), zero
  values left out: which counters exist at 0 depends on when their
  component registered, the non-zero counts do not.

Every case must also reproduce its ``result`` digest with no observer
attached at all (no event log), which pins that observing is free of
side effects for every fault kind; ``RETRY_NONE`` cases must reproduce
it with the no-retry client spelled out.

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

#: Client retries under a storm and a crash, with every defense on.
RETRY = "expo:base=0.5,cap=4,attempts=3,budget=5%"
RETRY_FAULTS = "retrystorm@240-270:factor=8,crash@270:1"


def _base():
    return Experiment(tiny_scale(), replicas=3, num_ebs=30, seed=20090629)


def _flat(retry=None):
    return _base().load("closed", wips=400.0, retry=retry)


def _open(retry=None):
    return _base().load("open", wips=400.0, population=5000, retry=retry)


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
    "closed-retry-defended": lambda: _base().load(
        "closed", wips=400.0, timeout_s=0.5, use_navigation=True,
        retry=RETRY).defend().faults(RETRY_FAULTS),
    "open-retry-defended": lambda: _base().load(
        "open", wips=400.0, population=5000, arrival="deterministic",
        timeout_s=0.5, retry=RETRY).defend().faults(RETRY_FAULTS),
    "open-one-crash": lambda: _open().faults("crash@270:1"),
}

#: Cases rebuilt with an explicit ``retry="none"``: the no-retry client
#: must be bit-for-bit the default one, in either load model.
RETRY_NONE = {
    "flat-one-crash": lambda: _flat(retry="none").one_crash(replica=1),
    "open-one-crash": lambda: _open(retry="none").faults("crash@270:1"),
}

GOLDEN = {
    "flat-one-crash": {
        "result": "01f1fa100b9fe29a5e1ad006b31ad6d3756711fbc5ea91cba5aa02026270269f",
        "trace": "a9a28e2f7f26a9858a252e5784c693db8533dfe93e7f21ebee83889d40520816",
        "flight": "0b867b22fcdceaeb850c9006a0d7ee56b05cce5d240535bd4e1537bd3c3530b0",
        "counters": "0164001de98b89f6b81edd1a99c870524f1ed11fed44ea13619041a16ea3728a"
    },
    "flat-nemesis": {
        "result": "03b1e7c295fe4810bdfd0a024eee0cb34b514b9eabf1d80d5beae7663367e9f1",
        "trace": "91a6204cf3e9954e7cdee773bd02aa43ddea82594775e0f6f6988ad8cf201029",
        "flight": "866d7a261bef2a33a2029aa49af9c2aa18505c1021c1600635fefcb5bce68a2d",
        "counters": "33e9f48fdbd5108ac4cbe04526637c09b12d8965cb16cb21486f28c769b8e756"
    },
    "flat-geo-dcfail": {
        "result": "51d0a62d6f885e712b0265020cecae6ffd517b9b5b4d10b55179c5eab69b6b4f",
        "trace": "306972b915e8fd688d8c062af42001f6381a3d6b3b7d227fbd21087fc54301b2",
        "flight": "5dae4ae645e9b770dcbd33d59bc7bfda27a039a3a0d51329251ff2e9df5f31d7",
        "counters": "27f272db600ebc64b8d140f2030170e56ebb7cff3e41d347fb48be2b4ce47b05"
    },
    "flat-retrystorm": {
        "result": "1b8b7fa85107763bbbf3a36f333eba6dcf723208fd602d69b57dab4f5403393e",
        "trace": "4b13162b8d04af9c68991a54736b7f1e658ce72c04a12b1ebdfb9177ee3db13a",
        "flight": "5804ce800f14bd311e8e25b9d79985b459fa81032d45351a0e1ecdb2b6ac422c",
        "counters": "46c34e6b0884b18c5727a425ff62c27c77d665d6cf644d4655229e8568dd66b1"
    },
    "sharded-crash-random": {
        "result": "7e3a970a59c9ed9454089773e9b2cc536f3315de29ed5efab2a4d52e85bff016",
        "trace": "71c1c06cb2e6c4aae2593d61ce1c866e8a07fae93c36aa0922e2d07ab28300a1",
        "flight": "f134a200c84de58408ad0d837a685d5e4afcfa4ab2736ffa01e9dd42564b282e",
        "counters": "fdcc6bed31d904e68d2b7f3c42df34e7417341f743fca27f615d2651ef5831cb"
    },
    "sharded-oneway-corrupt": {
        "result": "ebe63983227604b3d04b642e4a2cb68a40b4f918255db0a50acb372ec76bf4a5",
        "trace": "b4555955e4437a9a5ca425d2687a49211a79c548c0545b6fac375bc56bf393bc",
        "flight": "840062d172445d8e3ffd537e0b50bccfbf12c952478e28d1e453f8cc8668d6d2",
        "counters": "acc49d2927ca5679cceed6098e5a91b20261ffcbdc13ffb3376c568f7bcc53ff"
    },
    "sharded-geo-wanpart": {
        "result": "45797c59af7a3486c7ebc6b01e9ff00acd1c83de731df94d9cc35f77ba53ef26",
        "trace": "02aba8d333e76ddbd3cc6820b87bdbe71270f207a04f656c4227c14939efb0e7",
        "flight": "4227cf15a7c87321567d9659e540b20ee1caff21728ff032d4eb77920af6cdd1",
        "counters": "7fe94e97fb4bf7c03b3f802aa0d8df7f93c1cdc3490bee6d7d4b24fd89c6036b"
    },
    "flat-partition-reboot": {
        "result": "c9ec1acf15492d505711aaf7a55cfe348fb4e11b5dcc3471d4a6fff263c11484",
        "trace": "934a04e9932c03c2912600898bc2b204f0e8477f3740cfe921ba756424d75eac",
        "flight": "75b8322969bdf021723f83a4217abe1379bf004e67358bd3dc86ded797904543",
        "counters": "d80fdae90c563536180057fda11091284b3022c1a5e6414e9157c81d757c7219"
    },
    "flat-message-faults": {
        "result": "0a54a756ce7a10af76f5f5531d24890437685479feffa52f64ebe25f0d204862",
        "trace": "53be303f80d829ec24015ac977a9aa7d1d4efe1b168c4c987f97701176feeec3",
        "flight": "dc73a4b2eda57451982a1bd71a622cec13ccb44b51cb736e38158ab1f9741371",
        "counters": "41e51fab4fd4473bcf81e1d222c0175b4335a3ecca1f2c5f637216e7be8f1859"
    },
    "flat-storage-windows": {
        "result": "0aed2c4d155134f70565b8ca18537a2638c8c7fedc5c273f6cbe3bb51b712f9c",
        "trace": "e200136e0c4c4ec5c1ffbb202c0f48f1859219be09ddd04f936a02c1430e9781",
        "flight": "ac6338e57910353a8bced487e565aa5a3ab2903cd0a2c0e96299697d3334ac7e",
        "counters": "a55f1ccfe555757ed5c2ca4d6f3e561c53b4b46ced4cd4647ecbf9a2921d0142"
    },
    "flat-geo-wandegrade": {
        "result": "33a23ee909cc80485878f7ced5adc6f5966a6cd0d881dab9fc174057b26398a4",
        "trace": "3eabca280895063a2eaeb91abd391847f9c61e941260740cf923c63b5ad4f0b6",
        "flight": "0b703abf1e59d8d7b33b6383097cc69fca8e7aa834f7e19cc3748682c2b54c20",
        "counters": "6c4364a31e135e82dfe80f7b6a4c945136309da073ebe23f27e7879c740acf8e"
    },
    "closed-retry-defended": {
        "result": "adc625d061bc6faf16916cb7f234b3d881553e64fb37b6490ae39d25403aa04b",
        "trace": "7b472bc570a0fccf1922ed7b137e2a9410a26c4e45539618f5b8849f54fcc91a",
        "flight": "67ef7b505c1b1d42cb9ce332c3f8c331e9846d4bfae00c739caf6cea6b3feff7",
        "counters": "b0a17efea23e67c620415380300b81f2d6bf1d8e4821a03d21ad8569835d9aa9"
    },
    "open-retry-defended": {
        "result": "cf764694aa8e223264fdfe836db76dd0738b3373e1a4e4858bc69dee3287d67d",
        "trace": "5f926e7cf1c5bb73e038870e3dbc7bb2f38cd41b43d3e007da5d70a12a03ce40",
        "flight": "bbb4d528d17f5ff13c8d6b8a7a6008d75fb41cfd9c520de16b92a9b54bab4330",
        "counters": "4307b0b70240c086d47cda7b6e513fbd3a85f1e02f9e766b3622db786f1441a6"
    },
    "open-one-crash": {
        "result": "bdbd4f8437eba0bf66acfdaa49453cd20e5e6b779ac61cc94c4e7e290b6d06b3",
        "trace": "d2b4cd75a764bcc257a1e4b3493bd5d381b69b1f34ae4248c14bfa85bb82f52f",
        "flight": "7a204de537fd69ee3c735991baec291f92de6a3a2de698ac27b6b1772eed1a80",
        "counters": "791f14b5b3e0b7a50f93e3e36fd64fc71051e29159c30ab078fb26897bfe432c"
    },
}


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _result_digest(result) -> str:
    return _sha({key: value for key, value in result.to_dict().items()
                 if key not in DIGEST_SKIP})


def digests(name: str) -> dict:
    result = (CASES[name]().check_safety().record().observe()
              .keep_cluster().run())
    trace = [(e.time, e.kind, e.node, e.fields)
             for e in result.cluster.audit.events]
    assert trace and result.flight.recorded
    counters = {key: value for key, value
                in result.metrics["counters"].items() if value}
    assert counters
    return {"result": _result_digest(result), "trace": _sha(trace),
            "flight": _sha(list(result.flight.iter_dicts())),
            "counters": _sha(counters)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_golden_digests(name):
    assert digests(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_unobserved_run_matches_golden_result(name):
    result = CASES[name]().keep_cluster().run()
    assert result.cluster.sim.event_log is None
    assert _result_digest(result) == GOLDEN[name]["result"]


@pytest.mark.parametrize("name", sorted(RETRY_NONE))
def test_retry_none_matches_golden_result(name):
    result = RETRY_NONE[name]().keep_cluster().run()
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
