"""Grammar fuzz: every faultload a user can type parses or raises
``ValueError``, and every parsed one passes the deployment's target
check (``ClusterConfig.check_faults``) or raises ``ValueError`` -- never
an ``IndexError``/``KeyError``/``AttributeError`` or anything else.

Chunks are drawn from the registry's own vocabulary (every kind, plus an
unknown one) and the grammar's edge cases: negative, NaN, infinite and
reversed times; ``*``, dotted and pair targets; datacenter names known
and unknown; repeated and unknown options.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.faultload import KINDS, Faultload
from repro.geo import GeoConfig, Topology
from repro.harness.config import ClusterConfig

TIMES = ["0", "10", "240", "1e3", "-1", "nan", "inf", "abc", "10-60",
         "60-10", "10-10", "10-inf", "10-nan", "10-", "-1-5", "240-400"]
TARGETS = ["*", "0", "1", "2", "3", "7", "-1", "x", "1.2", "0.*", "1.*",
           "2.0", "1.-1", "0>1", "1>1", "0>3", "0.1>1.1", "1.2>1.2",
           "0.1>2", "1>*", "0.*>1.2", "dc0", "dc1", "nodc", "dc 1",
           "dc0|dc1,dc2", "dc0|dc0", "dc0|nodc", "dc0|", "dc0>dc1",
           "dc0>dc1,x5", "dc0>dc0", "dc0>nodc", "dc0>dc1,x0.5",
           "dc0>dc1,y2", ""]
OPTIONS = ["p=0.2", "p=0", "p=1", "p=1.5", "p=nan", "p=zap", "m=0.05",
           "m=4", "m=0.5", "m=inf", "m=-1", "factor=8", "factor=0.5",
           "factor=inf", "q=1", "x5", "p=0.2,p=0.3", "p=0.1,m=0.2"]
KIND_NAMES = sorted(KINDS) + ["explode"]

GEO = GeoConfig(topology=Topology(("dc0", "dc1", "dc2")))
CONFIGS = [ClusterConfig(replicas=3, shards=shards, geo=geo)
           for shards in (1, 2) for geo in (None, GEO)]


@st.composite
def chunks(draw):
    """A kind's own grammar example, with its time, its target and its
    options each replaced from the vocabulary half of the time."""
    kind = draw(st.sampled_from(KIND_NAMES))
    example = KINDS[kind].example if kind in KINDS else f"{kind}@10:1"
    head, *tail = example.split(":")
    if draw(st.booleans()):
        head = f"{kind}@{draw(st.sampled_from(TIMES))}"
    if draw(st.booleans()):
        tail = draw(st.lists(st.sampled_from(TARGETS), max_size=2))
    if draw(st.booleans()):
        tail += draw(st.lists(st.sampled_from(OPTIONS), max_size=2))
    return ":".join([head, *tail])


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=st.lists(chunks(), min_size=1, max_size=2).map(",".join))
def test_faultload_grammar_parses_or_raises_value_error(spec):
    try:
        faultload = Faultload.parse(spec)
    except ValueError:
        return
    for config in CONFIGS:
        try:
            config.check_faults(faultload)
        except ValueError:
            pass
