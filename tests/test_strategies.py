"""Unit tests for the joint technique's knob check and for the weight rows each
strategy sends in the Monte Carlo kernel (`montecarlo._beams`,
`montecarlo._draw_weights`)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import joint_symbols, sent_symbols

from mmwsec.array_geometry import ArrayConfig, array_response
from mmwsec.channel import sample_channel, top_k_paths
from mmwsec.montecarlo import _beams, _draw_weights, simulate_streams
from mmwsec.strategies import StrategyKind, check_joint, secondary_pool

THETA_R = 40.0
CFG = ArrayConfig(32)
A_R = array_response(CFG, THETA_R)


@pytest.fixture
def channel():
    return sample_channel(12, THETA_R, np.random.default_rng(11))


def test_params_validation():
    check_joint(m_main=16, l_s=5, n_antennas=32, n_paths=12)
    check_joint(m_main=32, l_s=5, n_antennas=32, n_paths=12)  # full-array boundary
    with pytest.raises(ValueError):
        check_joint(m_main=0, l_s=5, n_antennas=32, n_paths=12)
    with pytest.raises(ValueError):
        check_joint(m_main=33, l_s=5, n_antennas=32, n_paths=12)
    with pytest.raises(ValueError):
        check_joint(m_main=16, l_s=13, n_antennas=32, n_paths=12)


def test_conventional_plan_is_static(channel):
    W, cand, steer = _beams(channel, CFG, StrategyKind.CONVENTIONAL, 16, 5)
    rng = np.random.default_rng(0)
    count, _ = _draw_weights(StrategyKind.CONVENTIONAL, len(W), 32, 16, 20, rng)
    assert len(W) == 1 and count.tolist() == [20]  # every symbol sends the one row
    assert channel.aods_deg[cand[steer[0]]].tolist() == [THETA_R]
    assert np.array_equal(W[0], A_R)
    assert np.vdot(A_R, W[0]) == pytest.approx(1.0, abs=1e-12)


def test_switched_plan_subset_and_power(channel):
    w, _ = sent_symbols(channel, CFG, StrategyKind.SWITCHED_ARRAY, 16, 5, 20, 12)
    active = np.abs(w) > 0
    assert np.all(active.sum(axis=1) == 16)
    assert np.allclose(np.abs(w[active]), 1 / 4.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(w, axis=1), 1.0, atol=1e-12)


def test_switched_plan_coherent_gain_is_sqrt_m_over_n(channel):
    # m coherent terms each of magnitude 1/(sqrt(N) sqrt(m)) -> sqrt(m/N)
    for m in (1, 8, 16, 31):
        (w,), _ = sent_symbols(channel, CFG, StrategyKind.SWITCHED_ARRAY, m, 5, 1, 13)
        assert np.vdot(A_R, w) == pytest.approx(np.sqrt(m / 32), abs=1e-12)


def test_switched_full_subset_reduces_to_conventional(channel):
    w, _ = sent_symbols(channel, CFG, StrategyKind.SWITCHED_ARRAY, 32, 5, 5, 14)
    assert np.allclose(w, A_R)


def test_switched_off_path_gain_varies(channel):
    w, _ = sent_symbols(channel, CFG, StrategyKind.SWITCHED_ARRAY, 16, 5, 1000, 15)
    gains = np.conj(array_response(CFG, 70.0)) @ w.T
    assert np.var(np.abs(gains)) > 0


def test_random_path_plan_uniform_selection(channel):
    w, paths = sent_symbols(channel, CFG, StrategyKind.RANDOM_PATH, 16, 5, 10_000, 16)
    assert np.allclose(np.bincount(paths[:, 0], minlength=12) / 10_000, 1 / 12, atol=0.01)
    assert np.allclose(w, array_response(CFG, channel.aods_deg[paths]))


def test_random_path_plan_coherent_on_chosen_path(channel):
    w, paths = sent_symbols(channel, CFG, StrategyKind.RANDOM_PATH, 16, 5, 20, 17)
    for x, (l,) in zip(w, paths):
        assert np.vdot(array_response(CFG, channel.aods_deg[l]), x) == pytest.approx(
            1.0 + 0.0j, abs=1e-12
        )


def test_random_path_single_path_degenerate():
    ch = sample_channel(1, THETA_R, np.random.default_rng(18))
    _, paths = sent_symbols(ch, CFG, StrategyKind.RANDOM_PATH, 16, 5, 10, 19)
    assert not paths.any()


def test_secondary_pool_excludes_strongest(channel):
    pool = secondary_pool(channel, 5)
    assert channel.strongest_index not in pool
    assert len(pool) == 4
    assert set(pool) <= set(top_k_paths(channel, 5))


def test_joint_plan_partition_and_magnitudes(channel):
    w, main, paths = joint_symbols(channel, CFG, 16, 5, 50, 20)
    assert np.all(main.sum(axis=1) == 16)
    # the main-beam antennas steer the strongest path, the rest the secondary
    assert np.all(paths[:, 0] == channel.strongest_index)
    assert set(paths[:, 1]) <= set(secondary_pool(channel, 5))
    beams = array_response(CFG, channel.aods_deg[paths][:, :, None])
    assert np.allclose(w, np.where(main, beams[:, 0], beams[:, 1]), atol=1e-12)
    assert np.allclose(np.abs(w), 1 / np.sqrt(32), atol=1e-12)


def test_joint_plan_main_term_is_m(channel):
    # real part of the main-set contribution to sqrt(N) a(theta_S)^H w sqrt(N)
    (w,), (main,), _ = joint_symbols(channel, CFG, 16, 5, 1, 21)
    contrib = np.vdot(A_R, np.where(main, w, 0)) * 32
    assert contrib == pytest.approx(16.0 + 0.0j, abs=1e-9)


def test_joint_plan_full_m_reduces_to_conventional(channel):
    w, main, _ = joint_symbols(channel, CFG, 32, 5, 5, 22)
    assert main.all()
    assert np.allclose(w, A_R)


def test_joint_plan_needs_two_paths():
    ch = sample_channel(1, THETA_R, np.random.default_rng(23))
    with pytest.raises(ValueError):
        simulate_streams(
            ch, CFG, StrategyKind.JOINT_PATH_ANTENNA, 16, 1, [THETA_R], 10,
            np.random.default_rng(24),
        )


def test_params_need_a_secondary_candidate():
    # the pool of the l_s strongest paths includes the strongest path itself
    check_joint(m_main=16, l_s=2, n_antennas=32, n_paths=12)
    with pytest.raises(ValueError, match="l_s must lie in \\[2, 12\\]"):
        check_joint(m_main=16, l_s=1, n_antennas=32, n_paths=12)


def test_plans_deterministic_given_seed(channel):
    draw = [joint_symbols(channel, CFG, 16, 5, 20, 25) for _ in range(2)]
    for a, b in zip(*draw):
        assert np.array_equal(a, b)


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
    for kind in StrategyKind:
        W, _ = sent_symbols(ch, cfg, kind, m, l_s, 8, seed)
        assert np.allclose(np.sum(np.abs(W) ** 2, axis=1), 1.0, rtol=0, atol=1e-12)
