"""Each probe runs at a tiny N and fills exactly the metrics it owns."""

import pytest

from ledger import probes
from ledger.metrics import PER_LAYER


@pytest.mark.parametrize("layer,probe,operations", probes.PROBES,
                         ids=[row[0] for row in probes.PROBES])
def test_probe_smoke(layer, probe, operations):
    measured = probe(max(1, operations // 100))
    assert set(measured) == set(probes.owned(layer))
    assert all(value > 0 for value in measured.values())


def test_every_source_p_metric_has_a_probe():
    assert {spec.layer for spec in PER_LAYER if spec.source == "P"} == {
        layer for layer, _probe, _n in probes.PROBES}


def test_a_probe_that_raises_reports_none_with_the_reason(monkeypatch):
    def broken(_n):
        raise ImportError("cannot import name 'Gone' from 'repro.sim'")

    monkeypatch.setattr(probes, "PROBES", (("tpcw", broken, 10),))
    out = probes.run_all(scale=0.01)
    assert out["layers"] == {"probe.tpcw.read_interaction_us": None,
                             "probe.tpcw.write_action_us": None}
    assert "Gone" in out["reasons"]["probe.tpcw.write_action_us"]
    assert [span["name"] for span in out["spans"]] == ["probe:tpcw"]
