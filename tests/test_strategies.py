"""Unit tests for the per-symbol beamforming plan generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwsec.array_geometry import ArrayConfig, array_response, beam_coupling
from mmwsec.channel import sample_channel, top_k_paths
from mmwsec.strategies import (
    StrategyKind,
    StrategyParams,
    conventional_plan,
    joint_plan,
    random_path_plan,
    secondary_pool,
    switched_array_plan,
)

THETA_R = 40.0
CFG = ArrayConfig(32)


@pytest.fixture
def channel():
    return sample_channel(12, THETA_R, np.random.default_rng(11))


def test_params_validation():
    StrategyParams(m_main=16, l_s=5).validate(32, 12)
    StrategyParams(m_main=32, l_s=5).validate(32, 12)  # full-array boundary
    with pytest.raises(ValueError):
        StrategyParams(m_main=0, l_s=5).validate(32, 12)
    with pytest.raises(ValueError):
        StrategyParams(m_main=33, l_s=5).validate(32, 12)
    with pytest.raises(ValueError):
        StrategyParams(m_main=16, l_s=13).validate(32, 12)


def test_conventional_plan_is_static(channel):
    p1 = conventional_plan(channel, CFG)
    p2 = conventional_plan(channel, CFG)
    assert np.array_equal(p1.weights, p2.weights)
    assert p1.main_aod_deg == THETA_R
    assert np.array_equal(p1.weights, array_response(CFG, THETA_R))
    assert beam_coupling(CFG, THETA_R, p1.weights) == pytest.approx(1.0, abs=1e-12)


def test_switched_plan_subset_and_power(channel):
    rng = np.random.default_rng(12)
    for _ in range(20):
        plan = switched_array_plan(channel, CFG, 16, rng)
        assert plan.kind is StrategyKind.SWITCHED_ARRAY
        assert plan.main_set.size == 16
        active = np.abs(plan.weights) > 0
        assert active.sum() == 16
        assert np.allclose(np.abs(plan.weights[active]), 1 / 4.0, atol=1e-12)
        assert np.linalg.norm(plan.weights) == pytest.approx(1.0, abs=1e-12)


def test_switched_plan_coherent_gain_is_sqrt_m_over_n(channel):
    # m coherent terms each of magnitude 1/(sqrt(N) sqrt(m)) -> sqrt(m/N)
    rng = np.random.default_rng(13)
    for m in (1, 8, 16, 31):
        plan = switched_array_plan(channel, CFG, m, rng)
        g = beam_coupling(CFG, THETA_R, plan.weights)
        assert g == pytest.approx(np.sqrt(m / 32), abs=1e-12)


def test_switched_full_subset_reduces_to_conventional(channel):
    plan = switched_array_plan(channel, CFG, 32, np.random.default_rng(14))
    assert np.allclose(plan.weights, conventional_plan(channel, CFG).weights)


def test_switched_off_path_gain_varies(channel):
    rng = np.random.default_rng(15)
    gains = [
        beam_coupling(CFG, 70.0, switched_array_plan(channel, CFG, 16, rng).weights)
        for _ in range(1000)
    ]
    assert np.var(np.abs(gains)) > 0


def test_random_path_plan_uniform_selection(channel):
    rng = np.random.default_rng(16)
    counts = np.zeros(12)
    for _ in range(10_000):
        plan = random_path_plan(channel, CFG, rng)
        counts[plan.main_path_index] += 1
        assert plan.main_aod_deg == channel.paths[plan.main_path_index].aod_deg
    assert np.allclose(counts / 10_000, 1 / 12, atol=0.01)


def test_random_path_plan_coherent_on_chosen_path(channel):
    rng = np.random.default_rng(17)
    for _ in range(20):
        plan = random_path_plan(channel, CFG, rng)
        g = beam_coupling(CFG, plan.main_aod_deg, plan.weights)
        assert g == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_random_path_single_path_degenerate():
    ch = sample_channel(1, THETA_R, np.random.default_rng(18))
    plan = random_path_plan(ch, CFG, np.random.default_rng(19))
    assert plan.main_path_index == 0


def test_secondary_pool_excludes_strongest(channel):
    pool = secondary_pool(channel, 5)
    assert channel.strongest_index not in pool
    assert len(pool) == 4
    assert set(pool) <= set(top_k_paths(channel, 5))


def test_joint_plan_partition_and_magnitudes(channel):
    rng = np.random.default_rng(20)
    params = StrategyParams(m_main=16, l_s=5)
    for _ in range(50):
        plan = joint_plan(channel, CFG, params, rng)
        assert plan.main_set.size == 16
        union = np.union1d(plan.main_set, plan.secondary_set)
        assert np.array_equal(union, np.arange(32))
        assert np.intersect1d(plan.main_set, plan.secondary_set).size == 0
        assert np.allclose(np.abs(plan.weights), 1 / np.sqrt(32), atol=1e-12)
        assert plan.secondary_aod_deg != plan.main_aod_deg
        assert plan.secondary_path_index in secondary_pool(channel, 5)


def test_joint_plan_main_term_is_m(channel):
    # real part of the main-set contribution to sqrt(N) a(theta_S)^H w sqrt(N)
    rng = np.random.default_rng(21)
    plan = joint_plan(channel, CFG, StrategyParams(16, 5), rng)
    w_main = np.zeros(32, dtype=complex)
    w_main[plan.main_set] = plan.weights[plan.main_set]
    contrib = beam_coupling(CFG, plan.main_aod_deg, w_main) * 32
    assert contrib == pytest.approx(16.0 + 0.0j, abs=1e-9)


def test_joint_plan_full_m_reduces_to_conventional(channel):
    plan = joint_plan(channel, CFG, StrategyParams(32, 5), np.random.default_rng(22))
    assert plan.main_set.size == 32
    assert np.allclose(plan.weights, conventional_plan(channel, CFG).weights)


def test_joint_plan_needs_two_paths():
    ch = sample_channel(1, THETA_R, np.random.default_rng(23))
    with pytest.raises(ValueError):
        joint_plan(ch, CFG, StrategyParams(16, 1), np.random.default_rng(24))


def test_plans_deterministic_given_seed(channel):
    p1 = joint_plan(channel, CFG, StrategyParams(16, 5), np.random.default_rng(25))
    p2 = joint_plan(channel, CFG, StrategyParams(16, 5), np.random.default_rng(25))
    assert np.array_equal(p1.weights, p2.weights)
    assert np.array_equal(p1.main_set, p2.main_set)
    assert p1.secondary_path_index == p2.secondary_path_index


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 64),
    L=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_every_plan_has_unit_transmit_power(n, L, seed, data):
    m = data.draw(st.integers(1, n), label="m")
    l_s = data.draw(st.integers(2, L), label="l_s")  # l_s = 1 leaves no secondary path
    cfg = ArrayConfig(n)
    rng = np.random.default_rng(seed)
    ch = sample_channel(L, THETA_R, rng)
    plans = [
        conventional_plan(ch, cfg),
        switched_array_plan(ch, cfg, m, rng),
        random_path_plan(ch, cfg, rng),
        joint_plan(ch, cfg, StrategyParams(m, l_s), rng),
    ]
    for plan in plans:
        assert np.vdot(plan.weights, plan.weights).real == pytest.approx(1.0, abs=1e-12)
