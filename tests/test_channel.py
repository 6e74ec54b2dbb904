"""Unit tests for multipath channel sampling and path queries."""

import numpy as np
import pytest

from mmwsec.channel import (
    ChannelRealization,
    channel_stats,
    sample_channel,
    top_k_paths,
)

THETA_R = 40.0


def test_path_component_angle_range():
    with pytest.raises(ValueError):
        ChannelRealization([0.5], [1.0 + 0j], strongest_index=0)
    with pytest.raises(ValueError):
        ChannelRealization([180.5], [1.0 + 0j], strongest_index=0)


def test_single_path_channel():
    ch = sample_channel(1, THETA_R, np.random.default_rng(0))
    assert ch.n_paths == 1
    assert ch.strongest_aod_deg == THETA_R


def test_sampling_is_deterministic():
    a = sample_channel(12, THETA_R, np.random.default_rng(42))
    b = sample_channel(12, THETA_R, np.random.default_rng(42))
    assert np.array_equal(a.gains, b.gains)
    assert np.array_equal(a.aods_deg, b.aods_deg)
    c = sample_channel(12, THETA_R, np.random.default_rng(43))
    assert not np.array_equal(a.gains, c.gains)


def test_strongest_path_pinned_at_theta_r():
    rng = np.random.default_rng(3)
    for _ in range(200):
        ch = sample_channel(12, THETA_R, rng)
        mags = np.abs(ch.gains)
        assert ch.strongest_aod_deg == THETA_R
        assert mags[ch.strongest_index] == mags.max()


def test_aods_distinct_integers():
    rng = np.random.default_rng(4)
    for _ in range(100):
        ch = sample_channel(12, THETA_R, rng)
        aods = ch.aods_deg
        assert len(set(aods)) == 12
        assert np.all(aods == np.round(aods))
        assert aods.min() >= 1 and aods.max() <= 180


def test_gain_power_law_of_large_numbers():
    rng = np.random.default_rng(5)
    powers = []
    for _ in range(2000):
        ch = sample_channel(8, THETA_R, rng)
        powers.extend(np.abs(ch.gains) ** 2)
    assert np.mean(powers) == pytest.approx(1.0, abs=0.02)


def test_infeasible_path_count():
    with pytest.raises(ValueError):
        sample_channel(181, THETA_R, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_channel(0, THETA_R, np.random.default_rng(0))


def test_realization_invariants_enforced():
    aods, gains = np.array([40.0, 50.0]), np.array([2.0 + 0j, 1.0 + 0j])
    ch = ChannelRealization(aods, gains, strongest_index=0)
    with pytest.raises(ValueError):
        ChannelRealization(aods, gains, strongest_index=1)
    with pytest.raises(ValueError):
        ChannelRealization([40.0, 40.0], gains, strongest_index=0)
    with pytest.raises(ValueError, match="must be vectors of one length"):
        ChannelRealization(aods, gains[:1], strongest_index=0)
    # the identity-keyed kernel blocks and the cached mean gain need arrays that never change
    aods[0] = 60.0
    assert ch.aods_deg.tolist() == [40.0, 50.0]
    for held in (ch.aods_deg, ch.gains):
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 1.0


def test_top_k_paths_basics():
    ch = sample_channel(12, THETA_R, np.random.default_rng(6))
    assert top_k_paths(ch, 1) == [ch.strongest_index]
    assert sorted(top_k_paths(ch, 12)) == list(range(12))
    with pytest.raises(ValueError):
        top_k_paths(ch, 0)
    with pytest.raises(ValueError):
        top_k_paths(ch, 13)


def test_top_k_matches_sort_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        ch = sample_channel(12, THETA_R, rng)
        mags = np.abs(ch.gains)
        # brute-force: sort (descending magnitude, ascending index)
        oracle = sorted(range(12), key=lambda i: (-mags[i], i))[:5]
        assert top_k_paths(ch, 5) == oracle


def test_top_k_tie_breaks_to_lower_index():
    ch = ChannelRealization(
        [40.0, 50.0, 60.0], [2.0 + 0j, 1.0 + 0j, 0.0 + 1.0j], strongest_index=0
    )
    assert top_k_paths(ch, 3) == [0, 1, 2]


def test_channel_stats_arithmetic():
    ch = ChannelRealization([40.0, 50.0], [2.0 + 0j, 0.0 + 1.0j], strongest_index=0)
    stats = channel_stats(ch)
    assert stats.mean_gain == pytest.approx(1.5)
    assert stats.mean_gain_excl_strongest == pytest.approx(1.0)


def test_channel_stats_single_path_excl_absent():
    ch = sample_channel(1, THETA_R, np.random.default_rng(8))
    assert channel_stats(ch).mean_gain_excl_strongest is None


def test_channel_stats_recompute_oracle():
    ch = sample_channel(12, THETA_R, np.random.default_rng(9))
    stats = channel_stats(ch)
    mags = [abs(g) for g in ch.gains]
    assert stats.mean_gain == pytest.approx(sum(mags) / 12, abs=1e-12)
    others = [m for i, m in enumerate(mags) if i != ch.strongest_index]
    assert stats.mean_gain_excl_strongest == pytest.approx(sum(others) / 11, abs=1e-12)
