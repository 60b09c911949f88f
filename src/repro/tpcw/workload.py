"""TPC-W workload profiles: the 14 web interactions and the three mixes.

TPC-W defines three workloads that differ only in the ratio of browsing
(read) to ordering (update) interactions -- Section 3 of the paper:

* **browsing** (WIPSb): 95% reads, 5% updates;
* **shopping** (WIPS, the reference profile): 80% reads, 20% updates;
* **ordering** (WIPSo): 50% reads, 50% updates.

The per-interaction frequencies below are the spec's steady-state mix
percentages.  The RBEs sample interactions from the mix directly rather
than walking the full CBMG transition matrix; this preserves the
read/write ratios and every per-interaction frequency, which are what the
paper's throughput and dependability results depend on (substitution
documented in DESIGN.md).
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Dict, Tuple


class Interaction(enum.Enum):
    """The 14 TPC-W web interactions."""

    HOME = "home"
    NEW_PRODUCTS = "new_products"
    BEST_SELLERS = "best_sellers"
    PRODUCT_DETAIL = "product_detail"
    SEARCH_REQUEST = "search_request"
    SEARCH_RESULTS = "search_results"
    SHOPPING_CART = "shopping_cart"
    CUSTOMER_REGISTRATION = "customer_registration"
    BUY_REQUEST = "buy_request"
    BUY_CONFIRM = "buy_confirm"
    ORDER_INQUIRY = "order_inquiry"
    ORDER_DISPLAY = "order_display"
    ADMIN_REQUEST = "admin_request"
    ADMIN_CONFIRM = "admin_confirm"


#: Interactions whose processing updates the replicated state.
UPDATE_INTERACTIONS = frozenset({
    Interaction.SHOPPING_CART,
    Interaction.CUSTOMER_REGISTRATION,
    Interaction.BUY_REQUEST,
    Interaction.BUY_CONFIRM,
    Interaction.ADMIN_CONFIRM,
})


@dataclass(frozen=True)
class WorkloadProfile:
    """A named interaction mix with TPC-W's think-time discipline."""

    name: str
    metric_name: str
    mix: Tuple[Tuple[Interaction, float], ...]

    def update_fraction(self) -> float:
        total = sum(weight for _i, weight in self.mix)
        updates = sum(weight for interaction, weight in self.mix
                      if interaction in UPDATE_INTERACTIONS)
        return updates / total

    @cached_property
    def _sampling_table(self) -> Tuple[float, Tuple[float, ...]]:
        """``(total weight, running sums)``: the draw range and the
        threshold each interaction's share of it ends at."""
        weights = [weight for _i, weight in self.mix]
        return sum(weights), tuple(accumulate(weights))

    def sample(self, rng) -> Interaction:
        """Draw the next interaction from the steady-state mix."""
        total, thresholds = self._sampling_table
        # First interaction whose running sum reaches the point.
        index = bisect_left(thresholds, rng.uniform(0.0, total))
        return self.mix[min(index, len(self.mix) - 1)][0]


def _mix(**weights: float) -> Tuple[Tuple[Interaction, float], ...]:
    return tuple((Interaction[name.upper()], weight)
                 for name, weight in weights.items())


BROWSING = WorkloadProfile(
    name="browsing", metric_name="WIPSb",
    mix=_mix(home=29.00, new_products=11.00, best_sellers=11.00,
             product_detail=21.00, search_request=12.00,
             search_results=11.00, shopping_cart=2.00,
             customer_registration=0.82, buy_request=0.75,
             buy_confirm=0.69, order_inquiry=0.30, order_display=0.25,
             admin_request=0.10, admin_confirm=0.09))

SHOPPING = WorkloadProfile(
    name="shopping", metric_name="WIPS",
    mix=_mix(home=16.00, new_products=5.00, best_sellers=5.00,
             product_detail=17.00, search_request=20.00,
             search_results=17.00, shopping_cart=11.60,
             customer_registration=3.00, buy_request=2.60,
             buy_confirm=1.20, order_inquiry=0.75, order_display=0.66,
             admin_request=0.10, admin_confirm=0.09))

ORDERING = WorkloadProfile(
    name="ordering", metric_name="WIPSo",
    mix=_mix(home=9.12, new_products=0.46, best_sellers=0.46,
             product_detail=12.35, search_request=14.53,
             search_results=13.08, shopping_cart=13.53,
             customer_registration=12.86, buy_request=12.73,
             buy_confirm=10.18, order_inquiry=1.25, order_display=0.22,
             admin_request=0.12, admin_confirm=0.11))

PROFILES: Dict[str, WorkloadProfile] = {
    profile.name: profile for profile in (BROWSING, SHOPPING, ORDERING)}


def profile_by_name(name: str) -> WorkloadProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown workload profile: {name!r}; "
                         f"choose from {sorted(PROFILES)}") from None
