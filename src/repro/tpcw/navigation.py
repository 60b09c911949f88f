"""CBMG navigation: TPC-W's page-transition behaviour for the RBEs.

TPC-W specifies emulated-browser behaviour as a Customer Behavior Model
Graph: from each page, the browser follows one of that page's links with
given probabilities.  The exact 14x14 matrices are spec data; what the
paper's results depend on is their *stationary distribution* -- the
steady-state interaction mix (Section 3's 5/20/50% update ratios).

This module builds a faithful navigation model from two inputs we know
precisely:

* the **link structure** of the bookstore (which interactions are
  reachable from which page -- encoded in :data:`PAGE_LINKS` from the
  spec's page definitions), and
* the **target mix** (the spec's steady-state percentages, already in
  :mod:`repro.tpcw.workload`).

Edge weights are fitted numerically so that the chain's stationary
distribution equals the target mix (iterative proportional scaling on the
link structure).  The result is a navigator with realistic page-to-page
correlation (you can only Buy Confirm from Buy Request, searches come
from the search form, ...) whose long-run behaviour is exactly the
documented mix -- verified by tests to better than one percent per
interaction.

The fit is plain Python on lists: a 14x14 chain needs no array library,
and summing in one fixed order keeps the fitted rates -- which set every
open-loop arrival instant -- a function of this source alone.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.tpcw.workload import Interaction, WorkloadProfile

I = Interaction

#: Which interactions each page links to (from the spec's page layouts).
#: Every page links home (the site header); terminal pages return to
#: browsing pages; Buy Confirm is reachable only from Buy Request, and
#: Admin Confirm only from Admin Request.
PAGE_LINKS: Dict[Interaction, Tuple[Interaction, ...]] = {
    I.HOME: (I.HOME, I.NEW_PRODUCTS, I.BEST_SELLERS, I.SEARCH_REQUEST,
             I.PRODUCT_DETAIL, I.ORDER_INQUIRY, I.SHOPPING_CART),
    I.NEW_PRODUCTS: (I.HOME, I.PRODUCT_DETAIL, I.SEARCH_REQUEST,
                     I.NEW_PRODUCTS, I.SHOPPING_CART),
    I.BEST_SELLERS: (I.HOME, I.PRODUCT_DETAIL, I.SEARCH_REQUEST,
                     I.BEST_SELLERS, I.SHOPPING_CART),
    I.PRODUCT_DETAIL: (I.HOME, I.PRODUCT_DETAIL, I.SHOPPING_CART,
                       I.SEARCH_REQUEST, I.ADMIN_REQUEST, I.BEST_SELLERS,
                       I.NEW_PRODUCTS),
    I.SEARCH_REQUEST: (I.HOME, I.SEARCH_RESULTS),
    I.SEARCH_RESULTS: (I.HOME, I.PRODUCT_DETAIL, I.SEARCH_REQUEST,
                       I.SEARCH_RESULTS, I.SHOPPING_CART),
    I.SHOPPING_CART: (I.HOME, I.SHOPPING_CART, I.CUSTOMER_REGISTRATION,
                      I.BUY_REQUEST, I.PRODUCT_DETAIL, I.SEARCH_REQUEST),
    I.CUSTOMER_REGISTRATION: (I.HOME, I.BUY_REQUEST, I.SEARCH_REQUEST),
    I.BUY_REQUEST: (I.HOME, I.BUY_CONFIRM, I.SHOPPING_CART,
                    I.SEARCH_REQUEST),
    I.BUY_CONFIRM: (I.HOME, I.SEARCH_REQUEST, I.NEW_PRODUCTS,
                    I.BEST_SELLERS),
    I.ORDER_INQUIRY: (I.HOME, I.ORDER_DISPLAY, I.ORDER_INQUIRY,
                      I.SEARCH_REQUEST),
    I.ORDER_DISPLAY: (I.HOME, I.ORDER_INQUIRY, I.SEARCH_REQUEST),
    I.ADMIN_REQUEST: (I.HOME, I.ADMIN_CONFIRM, I.PRODUCT_DETAIL),
    I.ADMIN_CONFIRM: (I.HOME, I.PRODUCT_DETAIL, I.SEARCH_REQUEST,
                      I.NEW_PRODUCTS),
}

_ORDER: List[Interaction] = list(Interaction)
_INDEX = {interaction: k for k, interaction in enumerate(_ORDER)}

Vector = Sequence[float]
Matrix = Sequence[Sequence[float]]
FrozenRows = Tuple[Tuple[float, ...], ...]


def _sum(values: Iterable[float]) -> float:
    """Plain left-to-right float sum.

    Not the builtin: ``sum()`` is compensated from Python 3.12 on and
    plain before, and the fitted chain sets every open-loop arrival
    rate, so its last bits must not depend on the interpreter (or, as
    they did with ``pi @ matrix``, on a BLAS build).
    """
    acc = 0.0
    for value in values:
        acc += value
    return acc


def _normalized(values: Vector) -> List[float]:
    total = _sum(values)
    return [value / total for value in values]


def _flow(pi: Vector, matrix: Matrix) -> List[float]:
    """``pi P``: the probability mass arriving at each page per step."""
    return [_sum(p * row[j] for p, row in zip(pi, matrix))
            for j in range(len(pi))]


def _distance(a: Vector, b: Vector) -> float:
    return max(abs(x - y) for x, y in zip(a, b))


def target_mix_vector(profile: WorkloadProfile) -> List[float]:
    """The profile's steady-state mix as a probability vector."""
    vector = [0.0] * len(_ORDER)
    for interaction, weight in profile.mix:
        vector[_INDEX[interaction]] = weight
    return _normalized(vector)


def link_mask() -> List[List[float]]:
    mask = [[0.0] * len(_ORDER) for _row in _ORDER]
    for src, dsts in PAGE_LINKS.items():
        for dst in dsts:
            mask[_INDEX[src]][_INDEX[dst]] = 1.0
    return mask


def fit_transition_matrix(profile: WorkloadProfile,
                          iterations: int = 4000,
                          tolerance: float = 1e-10) -> List[List[float]]:
    """Fit row-stochastic P on the link structure with stationary pi.

    Iterative proportional scaling: start from the mask weighted by the
    target mix, then alternately (a) renormalize rows (stochasticity) and
    (b) rescale columns toward the detailed-flow requirement
    ``(pi P)_j = pi_j``.  Converges for this strongly connected graph.
    """
    pi = target_mix_vector(profile)
    weights = [[link * p for link, p in zip(row, pi)]
               for row in link_mask()]
    for _step in range(iterations):
        matrix = [_normalized(row) for row in weights]
        flow = _flow(pi, matrix)
        if _distance(flow, pi) < tolerance:
            return matrix
        correction = [p / f if f > 0 else 1.0 for p, f in zip(pi, flow)]
        weights = [[w * c for w, c in zip(row, correction)]
                   for row in matrix]
    return [_normalized(row) for row in weights]


def stationary_distribution(matrix: Matrix,
                            iterations: int = 200_000) -> List[float]:
    """Power iteration for the chain's stationary distribution."""
    pi = [1.0 / len(matrix)] * len(matrix)
    for _step in range(iterations):
        nxt = _flow(pi, matrix)
        if _distance(nxt, pi) < 1e-13:
            return nxt
        pi = nxt
    return pi


@lru_cache(maxsize=None)
def fitted_chain(profile: WorkloadProfile
                 ) -> Tuple[FrozenRows, FrozenRows, Tuple[float, ...]]:
    """``(matrix, cumulative rows, stationary mix)`` of the profile's CBMG.

    Fitted once per profile *value* -- the key is the frozen profile,
    mix included, so two profiles that share a name never share a chain
    -- and immutable, because every browser and load source of the
    process reads the same object.  The mix is normalized to sum to 1.
    """
    matrix = fit_transition_matrix(profile)
    return (tuple(tuple(row) for row in matrix),
            tuple(tuple(accumulate(row)) for row in matrix),
            tuple(_normalized(stationary_distribution(matrix))))


class Navigator:
    """Per-browser navigation state over a fitted CBMG."""

    def __init__(self, profile: WorkloadProfile, rng):
        self._matrix, self._cumulative, _mix = fitted_chain(profile)
        self._rng = rng
        self.current = I.HOME  # sessions start at the home page

    def next_interaction(self) -> Interaction:
        row = self._cumulative[_INDEX[self.current]]
        index = min(bisect_right(row, self._rng.random()), len(_ORDER) - 1)
        self.current = _ORDER[index]
        return self.current

    def reset(self) -> None:
        self.current = I.HOME
