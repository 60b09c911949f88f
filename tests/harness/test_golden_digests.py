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
* ``trace`` -- sha256 of the structured safety trace;
* ``flight`` -- sha256 of the flight-recorder stream.

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
        "trace": "aa060ecba8e10d09a482a890d8cea5b5f6ab1028444529bd0c999f1ca097448a",
        "flight": "284d9908a25f2825a885ee4c9e8cd75b9ab9a4c11c91329fe3fdc61ffc097bc5"
    },
    "flat-nemesis": {
        "result": "03b1e7c295fe4810bdfd0a024eee0cb34b514b9eabf1d80d5beae7663367e9f1",
        "trace": "63d64a46781e93a3d43191c360175a6a4b12c9baa7a688ed07c0b5e0b41450bd",
        "flight": "21bcc1b6ef2ab94404a90e35fab8d9419844c3738ac772922af9d4d22572f18a"
    },
    "flat-geo-dcfail": {
        "result": "51d0a62d6f885e712b0265020cecae6ffd517b9b5b4d10b55179c5eab69b6b4f",
        "trace": "f180af6d445ebdedc7fb097f72d5c5f2f13dbfa208f264888c3b99c442d869a6",
        "flight": "0cc3c8001d7bdc338e1afd7da203290e0fd4b7ff1fb440734ac35989fff79a72"
    },
    "flat-retrystorm": {
        "result": "1b8b7fa85107763bbbf3a36f333eba6dcf723208fd602d69b57dab4f5403393e",
        "trace": "679e032b3c20daf314249054d63a2562cca4e5a56a8a8c79757cc483ef0fee80",
        "flight": "ebecb03aee65c798082811873d6345b97be13e158c66c01eb6514a29e7d83b03"
    },
    "sharded-crash-random": {
        "result": "7e3a970a59c9ed9454089773e9b2cc536f3315de29ed5efab2a4d52e85bff016",
        "trace": "70b1764d23c77e5f5020e751ce7d2cd05d4b55d2a3e4d06750b2ed8b8549f0e6",
        "flight": "48012f17e2165ecb8de1c2b1c4d833fcf598da7171224a52b48412512ba119e4"
    },
    "sharded-oneway-corrupt": {
        "result": "ebe63983227604b3d04b642e4a2cb68a40b4f918255db0a50acb372ec76bf4a5",
        "trace": "a4816271e15727c5f121fe8f36912e5e0d8b1d728c6b9602a0ea64150f9d6510",
        "flight": "6a0fb83ff8075bcd76f3e469e429e2e9f34bde3fc548b9ca790ff33b3f1c6768"
    },
    "sharded-geo-wanpart": {
        "result": "45797c59af7a3486c7ebc6b01e9ff00acd1c83de731df94d9cc35f77ba53ef26",
        "trace": "c45c7681d04154aad1d785b11855664256ab5c5dab716071b6d6e05b2af887cd",
        "flight": "d7170ee9c173f231f7360b605662525282298a7cc5a80b61c475b86f7ee8fa07"
    },
    "flat-partition-reboot": {
        "result": "c9ec1acf15492d505711aaf7a55cfe348fb4e11b5dcc3471d4a6fff263c11484",
        "trace": "6f3ba440685e3fbe3605b51b89f82e6e5889655dec7b190b3f6e3955fc2c1391",
        "flight": "54b4a98e23a540127be3cc7cf20ee175a1036251fa9db625c0eeda0b91c22498"
    },
    "flat-message-faults": {
        "result": "0a54a756ce7a10af76f5f5531d24890437685479feffa52f64ebe25f0d204862",
        "trace": "6d86470b3f19d827441fd2f2d553b3eac19a5f50dfb3b0e3ed2d768333cc98ba",
        "flight": "131cac8beca9fc0a5fe1bc900556517fe6175608bdb88c13b7bd15e708adc382"
    },
    "flat-storage-windows": {
        "result": "0aed2c4d155134f70565b8ca18537a2638c8c7fedc5c273f6cbe3bb51b712f9c",
        "trace": "1dda302910b50b4ff189fb25e6c9069ef132500fc4443e1d2ba6de51c560c6cf",
        "flight": "540eaaecdd5e284bc972d6acf6f6a6dd982ee3b116b0e0c3ceef47bfead6554d"
    },
    "flat-geo-wandegrade": {
        "result": "33a23ee909cc80485878f7ced5adc6f5966a6cd0d881dab9fc174057b26398a4",
        "trace": "70c944a29baf9765b06a18e280b112b5b8aec8144e93fe6dee9624f8bacee23c",
        "flight": "7195256b95962965e89d9adb649a81d0906bd9db8be35813d0fdbd06d1d1ed36"
    },
}


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(name: str) -> dict:
    result = CASES[name]().check_safety().record().keep_cluster().run()
    summary = {key: value for key, value in result.to_dict().items()
               if key not in DIGEST_SKIP}
    trace = [(e.time, e.category, e.source, e.fields)
             for e in result.cluster.sim.tracer.events]
    assert trace and result.flight.recorded
    return {"result": _sha(summary), "trace": _sha(trace),
            "flight": _sha(list(result.flight.iter_dicts()))}


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_golden_digests(name):
    assert digests(name) == GOLDEN[name]


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
