"""StreamingHistogram's last-bucket memo: fast path, same sketch.

The memo caches the (lo, hi] interval of the last bucket hit so runs of
similar values (the WIRT hot path: most interactions land in one or two
latency buckets) skip the log().  These tests pin that the memo is an
optimization only -- bucket counts match a memo-free reference for
adversarial value sequences -- and that the ``record`` alias exists.
"""

import math
import random

import pytest

from repro.obs.registry import NULL_REGISTRY, StreamingHistogram
from repro.obs.registry import _NullHistogram


def _reference_index(histogram, value):
    """The pre-memo bucket computation, straight from first principles."""
    if value <= histogram.lo:
        return 0
    index = 1 + int(math.log(value / histogram.lo)
                    * histogram._inv_log_g)
    return min(index, histogram._nbuckets - 1)


def _reference_counts(histogram, values):
    counts = [0] * histogram._nbuckets
    for value in values:
        counts[_reference_index(histogram, value)] += 1
    return counts


@pytest.mark.parametrize("pattern", ["constant", "alternating", "ramp",
                                     "random", "boundary"])
def test_memo_counts_match_reference(pattern):
    histogram = StreamingHistogram("t", lo=1e-4, hi=100.0)
    rng = random.Random(7)
    if pattern == "constant":
        values = [0.25] * 1000
    elif pattern == "alternating":
        values = [0.001, 50.0] * 500   # defeats the memo every time
    elif pattern == "ramp":
        values = [1e-5 * 1.1 ** i for i in range(300)]
    elif pattern == "random":
        values = [rng.uniform(0.0, 120.0) for _ in range(2000)]
    else:
        # Exact bucket edges: lo * growth**k, where rounding is touchiest.
        values = [histogram.lo * histogram.growth ** k
                  for k in range(0, 40, 3)] * 5
    for value in values:
        histogram.observe(value)
    assert list(histogram._counts) == _reference_counts(histogram, values)
    assert histogram.count == len(values)


def test_memo_survives_out_of_range_values():
    histogram = StreamingHistogram("t", lo=1e-4, hi=100.0)
    for value in (0.5, 0.5, 1e-9, 1e-9, 1e6, 1e6, 0.5):
        histogram.observe(value)
    assert list(histogram._counts) == _reference_counts(
        histogram, [0.5, 0.5, 1e-9, 1e-9, 1e6, 1e6, 0.5])
    # Underflow lands in bucket 0, overflow in the last bucket.
    assert histogram._counts[0] == 2
    assert histogram._counts[-1] == 2


def test_memo_does_not_change_quantiles():
    histogram = StreamingHistogram("t", lo=1e-4, hi=100.0)
    rng = random.Random(11)
    samples = [rng.expovariate(5.0) for _ in range(5000)]
    for sample in samples:
        histogram.observe(sample)
    samples.sort()
    for q in (0.5, 0.9, 0.99):
        exact = samples[int(q * (len(samples) - 1))]
        sketch = histogram.quantile(q)
        # Within one growth-factor bucket of the exact quantile.
        assert exact / histogram.growth <= sketch <= exact * histogram.growth


def test_null_histogram_has_record_too():
    null = NULL_REGISTRY.histogram("x")
    assert isinstance(null, _NullHistogram)
    null.observe(1.0)   # inert, must not raise
    assert null.quantile(0.5) == 0.0
