"""Unit tests for per-symbol gain evaluation and artificial-noise terms.

The central checks here are the decomposition oracles: the direct h^H f
inner product of the weights the Monte Carlo kernel sends, evaluated
independently with numpy (`oracle`), must equal the decomposed per-path
forms of the analysis module and the per-symbol gains rebuilt from the
kernel's own operator and draw (`oracle.kernel_gains`).
"""

import numpy as np
import pytest
from oracle import (
    full_channel_gain,
    joint_symbols,
    kernel_gains,
    observed_gain,
    receiver_gain,
    sent_symbols,
)

from mmwsec.analysis import beta_e_hat_term, beta_e_term, beta_r_term, dirichlet_B
from mmwsec.array_geometry import ArrayConfig
from mmwsec.channel import sample_channel
from mmwsec.montecarlo import SweepSpec, simulate_streams
from mmwsec.strategies import StrategyKind

THETA_R = 40.0
CFG = ArrayConfig(32)
SQRT_LN = np.sqrt(12 * 32)


def streams(ch, kind, thetas, K, seed):
    return simulate_streams(ch, CFG, kind, 16, 5, thetas, K, np.random.default_rng(seed))


def gains(ch, kind, thetas, K, seed):
    """The per-symbol gains of the block `streams` reduces on the same seed."""
    return kernel_gains(ch, CFG, kind, 16, 5, thetas, K, seed)


@pytest.fixture
def channel():
    return sample_channel(12, THETA_R, np.random.default_rng(30))


def test_observer_spec_validation():
    # every observation angle a sweep evaluates must lie in [1, 180]
    base = dict(strategies=(StrategyKind.RANDOM_PATH,), axis="rho_e_db", axis_values=(10.0,))
    SweepSpec(**base, theta_e_deg=180.0, theta_r_deg=1.0)
    theta_axis = dict(axis="theta_e_deg", axis_values=(40.0, 200.0))
    for bad in ({"theta_e_deg": 0.0}, {"theta_r_deg": 181.0}, theta_axis):
        with pytest.raises(ValueError, match=r"must lie in \[1, 180\]"):
            SweepSpec(**{**base, **bad})
    # on the theta_E axis the scalar theta_E is not evaluated
    SweepSpec(**{**base, "axis": "theta_e_deg", "axis_values": (1.0, 180.0), "theta_e_deg": 0.0})


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


def test_single_path_conventional_gain():
    ch = sample_channel(1, THETA_R, np.random.default_rng(33))
    want = np.conj(ch.gains[0]) * np.sqrt(32)
    (w,), _ = sent_symbols(ch, CFG, StrategyKind.CONVENTIONAL, 16, 5, 1, 0)
    assert full_channel_gain(ch, CFG, w) == pytest.approx(want, abs=1e-9)
    moments = streams(ch, StrategyKind.CONVENTIONAL, [THETA_R], 1, 0).moments
    assert moments.mean[0, -1] == pytest.approx(want, abs=1e-9)


def test_receiver_gain_matches_direct_product(channel):
    # the kernel's gains at the L path angles, weighted by conj(alpha_l),
    # sum to the full-channel h^H f of every row it sends
    for kind in StrategyKind:
        s = gains(channel, kind, channel.aods_deg, 10, 34)
        w, _ = sent_symbols(channel, CFG, kind, 16, 5, 10, 34)
        direct = [full_channel_gain(channel, CFG, x) for x in w]
        assert np.allclose(np.conj(channel.gains) @ s.eaves, direct, rtol=0, atol=1e-9)


def test_random_path_chosen_component(channel):
    s = gains(channel, StrategyKind.RANDOM_PATH, [THETA_R], 20, 35)
    _, paths = sent_symbols(channel, CFG, StrategyKind.RANDOM_PATH, 16, 5, 20, 35)
    want = np.conj(channel.gains[paths[:, 0]]) * np.sqrt(32 / 12)
    assert np.allclose(s.recv, want, rtol=0, atol=1e-9)


def test_joint_receiver_decomposition(channel):
    # h^H f = (alpha_S^* M + alpha_i^* (N-M) + beta_R) / sqrt(L N)
    for w, main, (s, i) in zip(*joint_symbols(channel, CFG, 16, 5, 50, 36)):
        decomposed = (
            np.conj(channel.gains[s]) * 16
            + np.conj(channel.gains[i]) * 16
            + beta_r_term(channel, CFG, main, (s, i))
        ) / SQRT_LN
        assert receiver_gain(channel, CFG, w, (s, i)) == pytest.approx(decomposed, abs=1e-9)


def test_eavesdropper_random_path_kernel(channel):
    w, paths = sent_symbols(channel, CFG, StrategyKind.RANDOM_PATH, 16, 5, 10, 37)
    for theta_e in (40.0, 55.0, 120.0):
        for x, (l,) in zip(w, paths):
            expect = dirichlet_B(theta_e, channel.aods_deg[l], CFG) / SQRT_LN
            assert observed_gain(CFG, 12, theta_e, x) == pytest.approx(expect, abs=1e-9)


def test_eavesdropper_aligned_magnitude(channel):
    moments = streams(channel, StrategyKind.CONVENTIONAL, [THETA_R], 5, 0).moments
    assert moments.count[0] == 5 and moments.m2[0, 0] == 0
    assert abs(moments.mean[0, 0]) == pytest.approx(np.sqrt(32 / 12), abs=1e-9)


def test_joint_eavesdropper_sidelobe_decomposition(channel):
    # unaligned theta_E: gain = beta_E
    theta_e = 77.0
    assert theta_e not in channel.aods_deg
    for w, main, paths in zip(*joint_symbols(channel, CFG, 16, 5, 50, 38)):
        assert observed_gain(CFG, 12, theta_e, w) == pytest.approx(
            beta_e_term(channel, CFG, main, paths, theta_e), abs=1e-9
        )


def test_joint_eavesdropper_mainlobe_decomposition(channel):
    # theta_E = theta_S: gain = beta_E_hat / sqrt(L N)
    for w, main, paths in zip(*joint_symbols(channel, CFG, 16, 5, 50, 39)):
        expect = beta_e_hat_term(channel, CFG, main, paths, THETA_R) / SQRT_LN
        assert observed_gain(CFG, 12, THETA_R, w) == pytest.approx(expect, abs=1e-9)


def test_joint_eavesdropper_secondary_aligned_decomposition(channel):
    for w, main, paths in zip(*joint_symbols(channel, CFG, 16, 5, 50, 40)):
        theta_i = channel.aods_deg[paths[1]]
        expect = beta_e_hat_term(channel, CFG, main, paths, theta_i) / SQRT_LN
        assert observed_gain(CFG, 12, theta_i, w) == pytest.approx(expect, abs=1e-9)


# --- beta terms --------------------------------------------------------------


def test_beta_hat_constant_parts(channel):
    _, (main,), (paths,) = joint_symbols(channel, CFG, 16, 5, 1, 41)
    theta_i = channel.aods_deg[paths[1]]
    c = (32 - 1) / 2.0 - np.arange(32)
    gamma_i = 2 * np.pi * 0.5 * (np.cos(np.deg2rad(theta_i)) - np.cos(np.deg2rad(THETA_R)))
    expect_main = 16 + np.exp(1j * c[~main] * gamma_i).sum()
    assert beta_e_hat_term(channel, CFG, main, paths, THETA_R) == pytest.approx(
        expect_main, abs=1e-9
    )
    gamma_s = -gamma_i
    expect_sec = 16 + np.exp(1j * c[main] * gamma_s).sum()
    assert beta_e_hat_term(channel, CFG, main, paths, theta_i) == pytest.approx(
        expect_sec, abs=1e-9
    )


def test_beta_hat_bounded_by_n(channel):
    for _, main, paths in zip(*joint_symbols(channel, CFG, 16, 5, 100, 42)):
        assert abs(beta_e_hat_term(channel, CFG, main, paths, THETA_R)) <= 32 + 1e-9


def test_beta_hat_rejects_unaligned_angle(channel):
    _, (main,), (paths,) = joint_symbols(channel, CFG, 16, 5, 1, 43)
    with pytest.raises(ValueError):
        beta_e_hat_term(channel, CFG, main, paths, 77.0)


# --- symbol simulation -------------------------------------------------------


def test_conventional_symbols_are_static(channel):
    # one beam, and no spread about its gain at either observer
    moments = streams(channel, StrategyKind.CONVENTIONAL, [THETA_R], 20, 44).moments
    assert moments.count.tolist() == [20] and np.all(moments.m2 == 0)


def test_random_path_receiver_magnitude_levels(channel):
    moments = streams(channel, StrategyKind.RANDOM_PATH, [THETA_R], 500, 45).moments
    assert np.all(moments.m2[:, -1] == 0)  # every symbol on a beam has its gain
    sent = moments.count > 0
    levels = np.unique(np.round(np.abs(moments.mean[sent, -1]), 9))
    assert levels.size <= 12


def test_simulation_deterministic(channel):
    r1 = streams(channel, StrategyKind.JOINT_PATH_ANTENNA, [55.0], 100, 46)
    r2 = streams(channel, StrategyKind.JOINT_PATH_ANTENNA, [55.0], 100, 46)
    for name in ("count", "mean", "m2"):
        assert np.array_equal(getattr(r1.moments, name), getattr(r2.moments, name))
    assert r1.recv_abs_sum == r2.recv_abs_sum and np.array_equal(r1.table, r2.table)
