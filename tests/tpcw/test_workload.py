"""Workload profiles: the spec mixes and their read/write ratios."""

import random

import pytest

from repro.tpcw.workload import (
    BROWSING,
    Interaction,
    ORDERING,
    PROFILES,
    SHOPPING,
    UPDATE_INTERACTIONS,
    WorkloadProfile,
    profile_by_name,
)


def test_three_profiles_registered():
    assert set(PROFILES) == {"browsing", "shopping", "ordering"}


def test_metric_names_follow_tpcw():
    assert BROWSING.metric_name == "WIPSb"
    assert SHOPPING.metric_name == "WIPS"
    assert ORDERING.metric_name == "WIPSo"


def test_profile_by_name_rejects_unknown():
    with pytest.raises(ValueError, match="unknown workload profile"):
        profile_by_name("gaming")


def test_every_profile_covers_all_14_interactions():
    for profile in PROFILES.values():
        assert {i for i, _w in profile.mix} == set(Interaction)


@pytest.mark.parametrize("profile,expected", [
    (BROWSING, 0.05), (SHOPPING, 0.20), (ORDERING, 0.50)])
def test_update_fractions_match_section3(profile, expected):
    """Section 3: browsing 5%, shopping 20%, ordering 50% updates."""
    assert profile.update_fraction() == pytest.approx(expected, abs=0.02)


def test_sample_distribution_matches_mix():
    rng = random.Random(0)
    counts = {interaction: 0 for interaction in Interaction}
    draws = 40_000
    for _ in range(draws):
        counts[SHOPPING.sample(rng)] += 1
    total_weight = sum(w for _i, w in SHOPPING.mix)
    for interaction, weight in SHOPPING.mix:
        expected = weight / total_weight
        observed = counts[interaction] / draws
        assert observed == pytest.approx(expected, abs=0.01), interaction


def test_sample_is_deterministic_under_seed():
    a = [SHOPPING.sample(random.Random(5)) for _ in range(1)]
    b = [SHOPPING.sample(random.Random(5)) for _ in range(1)]
    assert a == b


def _linear_scan_sample(profile, rng):
    """The per-draw scan ``sample`` replaced, kept as its reference."""
    total = sum(weight for _i, weight in profile.mix)
    point = rng.uniform(0.0, total)
    acc = 0.0
    for interaction, weight in profile.mix:
        acc += weight
        if point <= acc:
            return interaction
    return profile.mix[-1][0]


@pytest.mark.parametrize("profile", [BROWSING, SHOPPING, ORDERING],
                         ids=lambda p: p.name)
def test_sample_equals_the_linear_scan_draw_for_draw(profile):
    fast, reference = random.Random(11), random.Random(11)
    for _ in range(20_000):
        assert profile.sample(fast) is _linear_scan_sample(profile, reference)


def test_sampling_table_does_not_change_profile_identity():
    twin = WorkloadProfile(SHOPPING.name, SHOPPING.metric_name, SHOPPING.mix)
    SHOPPING.sample(random.Random(0))  # fills SHOPPING's table only
    assert twin == SHOPPING and hash(twin) == hash(SHOPPING)


def test_update_interactions_are_the_write_set():
    assert Interaction.BUY_CONFIRM in UPDATE_INTERACTIONS
    assert Interaction.SHOPPING_CART in UPDATE_INTERACTIONS
    assert Interaction.HOME not in UPDATE_INTERACTIONS
    assert Interaction.BEST_SELLERS not in UPDATE_INTERACTIONS


def test_custom_profile_update_fraction():
    profile = WorkloadProfile("custom", "X", (
        (Interaction.HOME, 50.0), (Interaction.BUY_CONFIRM, 50.0)))
    assert profile.update_fraction() == pytest.approx(0.5)
