"""Unit tests for per-symbol gain evaluation and artificial-noise terms.

The central checks here are the decomposition oracles: the direct h^H f
inner product, evaluated independently with numpy, must equal the
decomposed per-path forms used throughout the analysis module.
"""

import numpy as np
import pytest

from mmwsec.array_geometry import ArrayConfig, array_response
from mmwsec.channel import sample_channel
from mmwsec.signal_engine import (
    ObserverKind,
    ObserverSpec,
    beta_e_hat_term,
    beta_e_term,
    beta_r_term,
    coherent_receiver_gain,
    dirichlet_B,
    eavesdropper_gain,
    receiver_gain,
    simulate_symbols,
)
from mmwsec.strategies import (
    StrategyKind,
    StrategyParams,
    conventional_plan,
    joint_plan,
    random_path_plan,
    switched_array_plan,
)

THETA_R = 40.0
CFG = ArrayConfig(32)


def direct_gain(ch, weights, cfg):
    """Independent oracle: h^H f with h built from the raw channel definition."""
    h = np.zeros(cfg.n_antennas, dtype=complex)
    for p in ch.paths:
        h += p.gain * array_response(cfg, p.aod_deg)
    h *= np.sqrt(cfg.n_antennas / ch.n_paths)
    return complex(np.vdot(h, weights))


@pytest.fixture
def channel():
    return sample_channel(12, THETA_R, np.random.default_rng(30))


def test_observer_spec_validation():
    ObserverSpec(ObserverKind.EAVESDROPPER, 40.0)
    with pytest.raises(ValueError):
        ObserverSpec(ObserverKind.EAVESDROPPER, 0.0)


# --- interception kernel -----------------------------------------------------


def test_dirichlet_alignment_value():
    for n in (2, 16, 32, 64):
        cfg = ArrayConfig(n)
        assert dirichlet_B(40.0, 40.0, cfg) == float(n)
        # equal cosine, different angle is also alignment
        assert dirichlet_B(40.0, 140.0, ArrayConfig(n)) != float(n)


def test_dirichlet_two_element_null():
    # e^{j pi/2} + e^{-j pi/2} = 0
    assert dirichlet_B(90.0, 0.0, ArrayConfig(2)) == pytest.approx(0.0, abs=1e-12)


def test_dirichlet_matches_sine_ratio():
    cfg = ArrayConfig(32)
    rng = np.random.default_rng(31)
    for _ in range(100):
        te, tl = rng.uniform(1, 180, size=2)
        psi = 2 * np.pi * 0.5 * (np.cos(np.deg2rad(te)) - np.cos(np.deg2rad(tl)))
        if abs(np.sin(psi / 2)) < 1e-9:
            continue
        closed = np.sin(32 * psi / 2) / np.sin(psi / 2)
        assert dirichlet_B(te, tl, cfg) == pytest.approx(closed, abs=1e-8)


def test_dirichlet_real_and_bounded():
    cfg = ArrayConfig(32)
    rng = np.random.default_rng(32)
    for _ in range(200):
        te, tl = rng.uniform(1, 180, size=2)
        b = dirichlet_B(te, tl, cfg)
        assert isinstance(b, float)
        assert abs(b) <= 32 + 1e-9


# --- decomposition oracles ---------------------------------------------------


def test_single_path_conventional_gain(channel):
    ch = sample_channel(1, THETA_R, np.random.default_rng(33))
    plan = conventional_plan(ch, CFG)
    g = receiver_gain(ch, plan, CFG)
    assert g == pytest.approx(np.conj(ch.paths[0].gain) * np.sqrt(32), abs=1e-9)


def test_receiver_gain_matches_direct_product(channel):
    rng = np.random.default_rng(34)
    params = StrategyParams(16, 5)
    plans = [conventional_plan(channel, CFG)]
    plans += [switched_array_plan(channel, CFG, 16, rng) for _ in range(10)]
    plans += [random_path_plan(channel, CFG, rng) for _ in range(10)]
    plans += [joint_plan(channel, CFG, params, rng) for _ in range(10)]
    for plan in plans:
        assert receiver_gain(channel, plan, CFG) == pytest.approx(
            direct_gain(channel, plan.weights, CFG), abs=1e-9
        )


def test_random_path_chosen_component(channel):
    rng = np.random.default_rng(35)
    for _ in range(20):
        plan = random_path_plan(channel, CFG, rng)
        alpha = channel.paths[plan.main_path_index].gain
        g = coherent_receiver_gain(channel, plan, CFG)
        assert g == pytest.approx(np.conj(alpha) * np.sqrt(32 / 12), abs=1e-9)


def test_joint_receiver_decomposition(channel):
    # h^H f = (alpha_S^* M + alpha_i^* (N-M) + beta_R) / sqrt(L N)
    rng = np.random.default_rng(36)
    for _ in range(50):
        plan = joint_plan(channel, CFG, StrategyParams(16, 5), rng)
        alpha_s = channel.paths[plan.main_path_index].gain
        alpha_i = channel.paths[plan.secondary_path_index].gain
        decomposed = (
            np.conj(alpha_s) * 16
            + np.conj(alpha_i) * 16
            + beta_r_term(channel, plan, CFG)
        ) / np.sqrt(12 * 32)
        assert coherent_receiver_gain(channel, plan, CFG) == pytest.approx(
            decomposed, abs=1e-9
        )


def test_eavesdropper_random_path_kernel(channel):
    rng = np.random.default_rng(37)
    alpha_e = 0.7 - 0.2j
    for theta_e in (40.0, 55.0, 120.0):
        obs = ObserverSpec(ObserverKind.EAVESDROPPER, theta_e)
        for _ in range(10):
            plan = random_path_plan(channel, CFG, rng)
            g = eavesdropper_gain(obs, plan, CFG, alpha_e)
            expect = np.conj(alpha_e) * dirichlet_B(theta_e, plan.main_aod_deg, CFG) / np.sqrt(
                12 * 32
            )
            assert g == pytest.approx(expect, abs=1e-9)


def test_eavesdropper_aligned_magnitude(channel):
    obs = ObserverSpec(ObserverKind.EAVESDROPPER, THETA_R)
    plan = conventional_plan(channel, CFG)
    g = eavesdropper_gain(obs, plan, CFG, 0.9 + 0.1j)
    assert abs(g) == pytest.approx(abs(0.9 + 0.1j) * np.sqrt(32 / 12), abs=1e-9)


def test_eavesdropper_requires_eavesdropper_kind(channel):
    obs = ObserverSpec(ObserverKind.RECEIVER, 40.0)
    plan = conventional_plan(channel, CFG)
    with pytest.raises(ValueError):
        eavesdropper_gain(obs, plan, CFG, 1.0 + 0j)


def test_joint_eavesdropper_sidelobe_decomposition(channel):
    # unaligned theta_E: gain = alpha_e^* beta_E
    rng = np.random.default_rng(38)
    alpha_e = 1.1 + 0.3j
    theta_e = 77.0
    assert theta_e not in channel.aods_deg
    obs = ObserverSpec(ObserverKind.EAVESDROPPER, theta_e)
    for _ in range(50):
        plan = joint_plan(channel, CFG, StrategyParams(16, 5), rng)
        g = eavesdropper_gain(obs, plan, CFG, alpha_e)
        assert g == pytest.approx(
            np.conj(alpha_e) * beta_e_term(plan, theta_e, CFG), abs=1e-9
        )


def test_joint_eavesdropper_mainlobe_decomposition(channel):
    # theta_E = theta_S: gain = alpha_e^* beta_E_hat / sqrt(L N)
    rng = np.random.default_rng(39)
    alpha_e = 0.8 - 0.5j
    obs = ObserverSpec(ObserverKind.EAVESDROPPER, THETA_R)
    for _ in range(50):
        plan = joint_plan(channel, CFG, StrategyParams(16, 5), rng)
        g = eavesdropper_gain(obs, plan, CFG, alpha_e)
        expect = np.conj(alpha_e) * beta_e_hat_term(plan, THETA_R, CFG) / np.sqrt(12 * 32)
        assert g == pytest.approx(expect, abs=1e-9)


def test_joint_eavesdropper_secondary_aligned_decomposition(channel):
    rng = np.random.default_rng(40)
    for _ in range(50):
        plan = joint_plan(channel, CFG, StrategyParams(16, 5), rng)
        theta_i = plan.secondary_aod_deg
        obs = ObserverSpec(ObserverKind.EAVESDROPPER, theta_i)
        g = eavesdropper_gain(obs, plan, CFG, 1.0 + 0j)
        expect = beta_e_hat_term(plan, theta_i, CFG) / np.sqrt(12 * 32)
        assert g == pytest.approx(expect, abs=1e-9)


# --- beta terms --------------------------------------------------------------


def test_beta_r_requires_joint_plan(channel):
    plan = conventional_plan(channel, CFG)
    with pytest.raises(ValueError):
        beta_r_term(channel, plan, CFG)


def test_beta_hat_constant_parts(channel):
    rng = np.random.default_rng(41)
    plan = joint_plan(channel, CFG, StrategyParams(16, 5), rng)
    c = (32 - 1) / 2.0 - np.arange(32)
    gamma_i = (
        2 * np.pi * 0.5
        * (np.cos(np.deg2rad(plan.secondary_aod_deg)) - np.cos(np.deg2rad(THETA_R)))
    )
    expect_main = 16 + np.exp(1j * c[plan.secondary_set] * gamma_i).sum()
    assert beta_e_hat_term(plan, THETA_R, CFG) == pytest.approx(expect_main, abs=1e-9)
    gamma_s = -gamma_i
    expect_sec = 16 + np.exp(1j * c[plan.main_set] * gamma_s).sum()
    assert beta_e_hat_term(plan, plan.secondary_aod_deg, CFG) == pytest.approx(
        expect_sec, abs=1e-9
    )


def test_beta_hat_bounded_by_n(channel):
    rng = np.random.default_rng(42)
    for _ in range(100):
        plan = joint_plan(channel, CFG, StrategyParams(16, 5), rng)
        assert abs(beta_e_hat_term(plan, THETA_R, CFG)) <= 32 + 1e-9


def test_beta_hat_rejects_unaligned_angle(channel):
    plan = joint_plan(channel, CFG, StrategyParams(16, 5), np.random.default_rng(43))
    with pytest.raises(ValueError):
        beta_e_hat_term(plan, 77.0, CFG)


# --- symbol simulation -------------------------------------------------------


def test_conventional_symbols_are_static(channel):
    obs = [ObserverSpec(ObserverKind.RECEIVER, THETA_R)]
    res = simulate_symbols(
        channel, CFG, StrategyKind.CONVENTIONAL, None, obs, 20, np.random.default_rng(44)
    )
    gains = res.gains[0]
    assert np.all(gains == gains[0])


def test_random_path_receiver_magnitude_levels(channel):
    obs = [ObserverSpec(ObserverKind.RECEIVER, THETA_R)]
    res = simulate_symbols(
        channel, CFG, StrategyKind.RANDOM_PATH, None, obs, 500, np.random.default_rng(45)
    )
    levels = np.unique(np.round(np.abs(res.gains[0]), 9))
    assert levels.size <= 12


def test_simulation_deterministic(channel):
    obs = [
        ObserverSpec(ObserverKind.RECEIVER, THETA_R),
        ObserverSpec(ObserverKind.EAVESDROPPER, 55.0),
    ]
    params = StrategyParams(16, 5)
    r1 = simulate_symbols(
        channel, CFG, StrategyKind.JOINT_PATH_ANTENNA, params, obs, 100,
        np.random.default_rng(46),
    )
    r2 = simulate_symbols(
        channel, CFG, StrategyKind.JOINT_PATH_ANTENNA, params, obs, 100,
        np.random.default_rng(46),
    )
    assert np.array_equal(r1.gains[0], r2.gains[0])
    assert np.array_equal(r1.gains[1], r2.gains[1])


def test_simulation_rejects_zero_symbols(channel):
    with pytest.raises(ValueError):
        simulate_symbols(
            channel, CFG, StrategyKind.CONVENTIONAL, None, [], 0, np.random.default_rng(0)
        )
