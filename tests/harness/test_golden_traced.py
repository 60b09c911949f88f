"""Golden digests of the traced analyses.

Four of the golden cases (``test_golden_digests.CASES``), run with
``.trace()``, and one sha256 each of what the span analyses read off
them: ``critical_path().to_dict()`` (the WIRT attribution),
``recovery_phases()`` and ``injection_points()`` (the explorer's fault
candidates).  Between them they cover a crash and recovery, duplicated
datagrams (one hop however many copies land), cross-shard 2PC and a
WAN split.

A digest that moves means what the analyses report changed: a change
to how spans are recorded must leave every line untouched.  If the
change is deliberate, regenerate with::

    PYTHONPATH=src python tests/harness/test_golden_traced.py

and say so in CHANGES.md.
"""

import dataclasses
import json

import pytest

from repro.obs.trace import injection_points
from tests.harness.test_golden_digests import CASES, _sha

TRACED = ("flat-one-crash", "flat-message-faults", "sharded-crash-random",
          "sharded-geo-wanpart")

GOLDEN_TRACED = {
    "flat-one-crash": {
        "critical_path": "1c543e0c06b84c64dbe17e8789715e5f99bf9239b10522da6dcb841090535d70",
        "recovery_phases": "2257ca25b93d9da8c970e48218c4dc854a81a83f161ac3364da4412efd498e06",
        "injection_points": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
    },
    "flat-message-faults": {
        "critical_path": "3611903c60707084c6be47fce0ad7682bb47f001d0786064ac96c0fdbd77b0fd",
        "recovery_phases": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "injection_points": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
    },
    "sharded-crash-random": {
        "critical_path": "9fde7b958882f491748ff9bab6f52c82e3f3c884d37f9248dacf6f97957ba425",
        "recovery_phases": "8a04d595f26bec76202fad77f55d6995959f99c1e90a24c648095f80df8c83b6",
        "injection_points": "5f5e85bce5ca869335f16875b2470db9b8ce35d7e172f4d77b369d93439fae5a"
    },
    "sharded-geo-wanpart": {
        "critical_path": "98b0e3f7e02fe9c308d0212c476840f1e92f671cdedbe1c83768d85027c5fa9e",
        "recovery_phases": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "injection_points": "deb9693efe4f73086b3d22c0eb0dc79a525edc7f89266747c12870f0ec4a7dcf"
    }
}


def traced_digests(name: str) -> dict:
    result = CASES[name]().trace().run()
    points = [dataclasses.asdict(point)
              for point in injection_points(result.spans)]
    return {"critical_path": _sha(result.critical_path().to_dict()),
            "recovery_phases": _sha(result.recovery_phases()),
            "injection_points": _sha(points)}


@pytest.mark.parametrize("name", TRACED)
def test_traced_analyses_match_golden_digests(name):
    assert traced_digests(name) == GOLDEN_TRACED[name]


if __name__ == "__main__":
    for case in TRACED:
        print(f'    "{case}": '
              f'{json.dumps(traced_digests(case), indent=8)[:-1]}    }},')
