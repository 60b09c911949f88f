"""Grammar fuzz for the CLI's ``--load`` and ``--geo``: every spec a user
can type builds a :class:`ClusterConfig` through the one CLI path
(``_build_experiment(parse_args(...)).build_config()``) or raises
``ValueError`` -- never a ``TypeError``/``AttributeError``/``IndexError``
or anything else.

Chunks are drawn from the grammars' own vocabularies (every ``--load``
key, every retry policy and retry option, every ``--geo`` option key,
plus unknown ones) and their edge cases: negative, zero, NaN, infinite
and non-numeric values; bare words; repeated and empty chunks.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness.cli import (
    _GEO_KEYS,
    _LOAD_KEYS,
    _RETRY_CONT_KEYS,
    _build_experiment,
    build_parser,
)

NUMBERS = ["1.5", "900", "3", "0", "-1", "nan", "inf", "1e3", "x", ""]
LOAD_VALUES = {"arrival": ["poisson", "deterministic", "bursty"],
               "retry": ["none", "immediate", "fixed:delay=0.5", "expo",
                         "expo:base=0.5", "fixed", "bogus", "expo:cap=x"]}
RETRY_OPTIONS = {"jitter": ["on", "off", "maybe"],
                 "budget": ["10%", "0.1", "-5%", "x%", "%"]}
GEO_VALUES = {"placement": ["spread", "leader-local", "pinned", "nowhere"],
              "quorum": ["majority", "leader-local", "flex:2", "flex:9",
                         "flex:x", "flex", "flex:"],
              "client": ["dc0", "dc2", "dc9"],
              "pin": ["dc0|dc1|dc2", "dc0|dc0|dc0", "dc0|dc9", "|", "dc1"]}
DC_NAMES = ["dc0", "dc1", "dc2", "eu-west", "bad name", "9dc", ""]


def keyed(keys, values):
    """``key=value`` over ``keys`` (plus an unknown key and a bare word),
    each value from its own vocabulary or from ``NUMBERS``."""
    return st.one_of(
        st.sampled_from([*sorted(keys), "zap"]).flatmap(
            lambda key: st.sampled_from(values.get(key, NUMBERS)).map(
                lambda value: f"{key}={value}")),
        st.sampled_from(["bare", ""]))


load_specs = st.tuples(
    st.sampled_from(["closed", "open", "warm", ""]),
    st.lists(st.one_of(keyed(_LOAD_KEYS, LOAD_VALUES),
                       keyed(_RETRY_CONT_KEYS, RETRY_OPTIONS)),
             max_size=5),
).map(lambda parts: ":".join([parts[0], ",".join(parts[1])])
      if parts[1] else parts[0])

geo_specs = st.tuples(
    st.lists(st.sampled_from(DC_NAMES), max_size=3),
    st.lists(keyed(_GEO_KEYS, GEO_VALUES), max_size=4),
).map(lambda parts: ":".join([",".join(parts[0]), *parts[1]]))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(load=load_specs, geo=st.none() | geo_specs,
       replicas=st.sampled_from(["1", "3", "5"]))
def test_load_and_geo_specs_build_or_raise_value_error(load, geo, replicas):
    argv = ["run", "--scale", "tiny", "--replicas", replicas,
            f"--load={load}"]
    if geo is not None:
        argv.append(f"--geo={geo}")
    args = build_parser().parse_args(argv)
    try:
        config = _build_experiment(args).build_config()
    except ValueError:
        return
    # What the deployment derives from the geo options is checked as the
    # cluster boots; it too may only refuse with ValueError.
    try:
        config.treplica_config()
        config.proxy_params()
    except ValueError:
        pass
