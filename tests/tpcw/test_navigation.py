"""CBMG navigation: structure, stochasticity, stationarity, sampling."""

import random
from collections import deque

import pytest

from repro.load import class_mix
from repro.tpcw.navigation import (
    PAGE_LINKS,
    Navigator,
    fit_transition_matrix,
    fitted_chain,
    link_mask,
    stationary_distribution,
    target_mix_vector,
)
from repro.tpcw.workload import (BROWSING, Interaction, ORDERING, PROFILES,
                                 SHOPPING, WorkloadProfile)


def test_every_interaction_is_a_page_with_links():
    assert set(PAGE_LINKS) == set(Interaction)
    for src, dsts in PAGE_LINKS.items():
        assert dsts, f"{src} has no outgoing links"
        assert Interaction.HOME in dsts  # the site header links home


def test_link_structure_respects_checkout_funnel():
    assert Interaction.BUY_CONFIRM in PAGE_LINKS[Interaction.BUY_REQUEST]
    for src, dsts in PAGE_LINKS.items():
        if src is not Interaction.BUY_REQUEST:
            assert Interaction.BUY_CONFIRM not in dsts
    assert Interaction.ADMIN_CONFIRM in PAGE_LINKS[Interaction.ADMIN_REQUEST]


def _reachable(start, links):
    """Pages reachable from ``start`` (breadth first)."""
    seen, frontier = {start}, deque([start])
    while frontier:
        for dst in links[frontier.popleft()]:
            if dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return seen


def test_graph_is_strongly_connected():
    backwards = {page: [src for src, dsts in PAGE_LINKS.items()
                        if page in dsts] for page in Interaction}
    # Every page reaches HOME and HOME reaches every page.
    assert _reachable(Interaction.HOME, PAGE_LINKS) == set(Interaction)
    assert _reachable(Interaction.HOME, backwards) == set(Interaction)


@pytest.mark.parametrize("profile", list(PROFILES.values()),
                         ids=lambda p: p.name)
def test_fitted_matrix_is_row_stochastic_on_links(profile):
    matrix = fit_transition_matrix(profile)
    for row, links in zip(matrix, link_mask()):
        assert sum(row) == pytest.approx(1.0, abs=1e-12)
        for weight, link in zip(row, links):
            assert weight >= 0
            assert link == 1.0 or weight == 0


@pytest.mark.parametrize("profile", list(PROFILES.values()),
                         ids=lambda p: p.name)
def test_stationary_distribution_matches_spec_mix(profile):
    matrix = fit_transition_matrix(profile)
    pi = stationary_distribution(matrix)
    target = target_mix_vector(profile)
    assert max(abs(p - t) for p, t in zip(pi, target)) < 0.01, profile.name


@pytest.mark.parametrize("profile", [BROWSING, SHOPPING, ORDERING],
                         ids=lambda p: p.name)
def test_sampled_walk_reproduces_update_fraction(profile):
    from repro.tpcw.workload import UPDATE_INTERACTIONS
    navigator = Navigator(profile, random.Random(1))
    draws = 60_000
    updates = sum(1 for _ in range(draws)
                  if navigator.next_interaction() in UPDATE_INTERACTIONS)
    assert updates / draws == pytest.approx(profile.update_fraction(),
                                            abs=0.02)


def test_navigator_only_follows_links():
    navigator = Navigator(SHOPPING, random.Random(2))
    previous = navigator.current
    for _ in range(5000):
        nxt = navigator.next_interaction()
        assert nxt in PAGE_LINKS[previous], (previous, nxt)
        previous = nxt


def test_navigator_draws_equal_a_linear_scan_of_the_cumulative_row():
    _matrix, cumulative, _mix = fitted_chain(SHOPPING)
    pages = list(Interaction)
    navigator = Navigator(SHOPPING, random.Random(7))
    reference_rng, current = random.Random(7), Interaction.HOME
    for _ in range(10_000):
        point = reference_rng.random()
        row = cumulative[pages.index(current)]
        current = next((page for page, edge in zip(pages, row)
                        if point < edge), pages[-1])
        assert navigator.next_interaction() is current


def test_navigator_reset_returns_home():
    navigator = Navigator(SHOPPING, random.Random(3))
    for _ in range(10):
        navigator.next_interaction()
    navigator.reset()
    assert navigator.current is Interaction.HOME


def test_navigator_matrix_cached_per_profile():
    a = Navigator(SHOPPING, random.Random(0))
    b = Navigator(SHOPPING, random.Random(1))
    assert a._matrix is b._matrix


def test_same_named_profiles_with_different_mixes_get_their_own_chains():
    # A cache keyed on the name handed this profile the stock shopping
    # chain; the key is the whole (frozen, hashable) profile.
    custom = WorkloadProfile(SHOPPING.name, SHOPPING.metric_name,
                             ORDERING.mix)
    assert fitted_chain(custom) is not fitted_chain(SHOPPING)
    assert fitted_chain(custom) == fitted_chain(ORDERING)
    assert Navigator(custom, random.Random(0))._matrix \
        is not Navigator(SHOPPING, random.Random(0))._matrix
    assert class_mix(custom) == class_mix(ORDERING)
    assert class_mix(custom) != class_mix(SHOPPING)
