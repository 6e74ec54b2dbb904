"""Unit tests for the closed-form SNR expressions and their MC estimators."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import beam_moments, joint_symbols, observed_gain, receiver_gain

from mmwsec.analysis import (
    BeamMoments,
    JointBetaMoments,
    alignment_mixture_snr,
    b_moments,
    beta_e_hat_term,
    beta_e_term,
    beta_r_term,
    db_to_linear,
    dirichlet_B,
    estimate_joint_moments,
    joint_sidelobe_aods,
    linear_to_db,
    location_mixture_snr,
    receiver_snr,
    secrecy_rate,
    snr_e_joint,
    snr_e_random_path,
    snr_r_joint,
    snr_r_random_path,
)
from mmwsec.array_geometry import ArrayConfig
from mmwsec.channel import channel_stats, sample_channel
from mmwsec.montecarlo import simulate_streams
from mmwsec.strategies import StrategyKind, secondary_pool

CFG = ArrayConfig(32)
THETA_R = 40.0


def test_db_round_trip():
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert db_to_linear(0.0) == pytest.approx(1.0)
    assert linear_to_db(db_to_linear(15.0)) == pytest.approx(15.0)
    assert linear_to_db(0.0) == -math.inf


def test_secrecy_rate_examples():
    assert secrecy_rate(3.0, 1.0) == pytest.approx(1.0)
    assert secrecy_rate(1.0, 3.0) == 0.0
    assert secrecy_rate(5.0, 5.0) == 0.0
    with pytest.raises(ValueError):
        secrecy_rate(-0.1, 1.0)


def test_secrecy_rate_monotonicity():
    grid = np.linspace(0.0, 50.0, 11)
    rates_r = [secrecy_rate(r, 5.0) for r in grid]
    assert all(b >= a for a, b in zip(rates_r, rates_r[1:]))
    rates_e = [secrecy_rate(5.0, e) for e in grid]
    assert all(b <= a for a, b in zip(rates_e, rates_e[1:]))


def test_snr_r_random_path_values():
    assert snr_r_random_path(32, 12, 10.0) == pytest.approx(26.667, abs=1e-3)
    assert snr_r_random_path(32, 1, 10.0) == pytest.approx(320.0)
    assert snr_r_random_path(32, 6, 10.0) == pytest.approx(
        2 * snr_r_random_path(32, 12, 10.0)
    )


def test_b_moments_single_path():
    mean, var = b_moments(40.0, [40.0], CFG)
    assert mean == 32.0
    assert var == 0.0


def test_b_moments_exhaustive_oracle():
    rng = np.random.default_rng(50)
    for _ in range(50):
        aods = rng.choice(np.arange(1, 181), size=12, replace=False).astype(float)
        te = float(rng.choice(aods))
        mean, var = b_moments(te, aods, CFG)
        vals = [dirichlet_B(te, a, CFG) for a in aods]
        assert mean == pytest.approx(np.mean(vals), abs=1e-12)
        assert var == pytest.approx(np.mean(np.square(vals)) - np.mean(vals) ** 2, abs=1e-10)
        # second-moment identity
        assert mean**2 + var == pytest.approx(np.mean(np.square(vals)), abs=1e-9)
        assert var >= -1e-12


def test_snr_e_random_path_degenerate_single_path():
    assert snr_e_random_path(32, 1, 2.0, 40.0, [40.0], CFG) == pytest.approx(64.0)


def test_snr_e_random_path_formula_reconstruction():
    rho_e = db_to_linear(15.0)
    aods = [40.0, 70.0, 100.0, 130.0]
    got = snr_e_random_path(32, 4, rho_e, 40.0, aods, CFG)
    mean, var = b_moments(40.0, aods, CFG)
    expect = (1 / 4) * (rho_e * 32 / 4) + (3 / 4) * (
        rho_e * mean**2 / (rho_e * var + 4 * 32)
    )
    assert got == pytest.approx(expect, abs=1e-12)


def test_aligned_term_mixture_weight_consistency():
    # aligned term of the eavesdropper mixture = SNR_R/L scaled by rho_e/rho_r
    rho_r, rho_e = 10.0, 10.0
    aligned = (1 / 12) * (rho_e * 32 / 12)
    assert aligned == pytest.approx(snr_r_random_path(32, 12, rho_r) / 12)


def test_snr_e_random_path_matches_monte_carlo():
    # fixed channel, K=1e5 symbols: closed form within 5% of the MC estimate
    rho_e = db_to_linear(15.0)
    ch = sample_channel(12, THETA_R, np.random.default_rng(51))
    streams = simulate_streams(
        ch, CFG, StrategyKind.RANDOM_PATH, 16, 5, [THETA_R], 100_000,
        np.random.default_rng(52),
    )
    mc = alignment_mixture_snr(streams.moments.at(0), streams.table[0], 1 / rho_e)
    cf = snr_e_random_path(32, 12, rho_e, THETA_R, ch.aods_deg, CFG)
    assert cf == pytest.approx(mc, rel=0.05)


def test_snr_r_joint_full_beam_boundary():
    # M=N with zero secondary and interference terms: alpha_S^2 N / (L sigma^2)
    got = snr_r_joint(32, 12, 32, 1.5, 0.0, 0.0, 0.1)
    assert got == pytest.approx(1.5**2 * 32 / (12 * 0.1))
    with pytest.raises(ValueError):
        snr_r_joint(32, 12, 33, 1.0, 0.5, 0.0, 0.1)


def test_snr_r_joint_term_additivity():
    base = snr_r_joint(32, 12, 16, 1.0, 0.0, 0.0, 0.1)
    with_mid = snr_r_joint(32, 12, 16, 1.0, 0.8, 0.0, 0.1)
    assert with_mid - base == pytest.approx(0.8 * 16**2 / (12 * 32 * 0.1))


def test_snr_e_joint_two_path_boundary():
    # L=2: sidelobe weight vanishes, the beta moments must not matter
    a = snr_e_joint(32, 2, 16, 5.0, 100.0, 7.0, 3.0)
    b = snr_e_joint(32, 2, 16, 5.0, 100.0, 900.0, 80.0)
    assert a == pytest.approx(b)
    assert a == pytest.approx(2 * 5.0 * 100.0 / (4 * 32))
    with pytest.raises(ValueError):
        snr_e_joint(32, 1, 16, 5.0, 1.0, 1.0, 1.0)


def test_joint_aligned_term_below_random_path_aligned_term():
    # E[beta_hat]^2 < N^2 keeps the mainlobe term under the full-beam term
    rho_e = db_to_linear(15.0)
    full_beam = (1 / 12) * (rho_e * 32 / 12)
    ch = sample_channel(12, THETA_R, np.random.default_rng(53))
    mom = estimate_joint_moments(ch, CFG, 16, 5, THETA_R)
    assert mom.beta_e_hat_mean_sq < 32**2
    aligned = 2 * rho_e * mom.beta_e_hat_mean_sq / (12**2 * 32)
    assert aligned < 2 * full_beam  # probability 2/L vs 1/L on the same bound


def test_mc_snr_estimator_basics():
    # with no aligned symbol the alignment mixture is the plain coherent
    # estimator |sample mean|^2 / (sample variance + noise power)
    def coherent_snr(g, noise):
        one_beam = beam_moments(g, np.zeros(g.size, dtype=int), 1)
        return alignment_mixture_snr(one_beam, [False], noise)

    assert coherent_snr(np.full(100, 2.0 + 0j), 0.5) == pytest.approx(8.0)
    rng = np.random.default_rng(55)
    zero_mean = rng.standard_normal(20_000) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, 20_000)
    )
    assert coherent_snr(zero_mean, 1.0) < 0.01


def test_random_path_receiver_estimator_converges():
    # K=1e5 stream through the estimator lands on N rho_R / L within 5%
    rho_r = db_to_linear(10.0)
    ch = sample_channel(12, THETA_R, np.random.default_rng(57))
    streams = simulate_streams(
        ch, CFG, StrategyKind.RANDOM_PATH, 16, 5, [THETA_R], 100_000,
        np.random.default_rng(58),
    )
    sigma_r = channel_stats(ch).mean_gain ** 2 / rho_r
    est = receiver_snr(streams.recv_abs_sum, 100_000, sigma_r)
    assert est == pytest.approx(snr_r_random_path(32, 12, rho_r), rel=0.05)


def test_alignment_mixture_hand_example():
    # two groups: aligned constant 2.0 (weight 1/4), rest zero-mean
    gains = np.array([2.0, 2.0, 1.0, -1.0, 1.0j, -1.0j, 1.0, -1.0], dtype=complex)
    labels = np.array([1, 1, 0, 0, 0, 0, 0, 0])
    got = alignment_mixture_snr(beam_moments(gains, labels, 2), [False, True], 0.5)
    aligned = (2 / 8) * (4.0 / 0.5)
    unaligned = (6 / 8) * (0.0 / (1.0 + 0.5))
    assert got == pytest.approx(aligned + unaligned)


def test_location_mixture_hand_example():
    aligned = beam_moments(np.full(10, 3.0 + 0j), np.zeros(10, dtype=int), 1)
    side = beam_moments([np.array([1.0, -1.0, 1.0, -1.0])], np.zeros(4, dtype=int), 1)
    got = location_mixture_snr(aligned, [True], side, 12, 0.5)
    expect = (2 / 12) * (9.0 / 0.5) + (10 / 12) * (0.0 / (1.0 + 0.5))
    assert got == pytest.approx(expect)
    # no sidelobe locations: only the mainlobe term remains
    no_side = beam_moments(np.empty((0, 4)), np.zeros(4, dtype=int), 1)
    assert location_mixture_snr(aligned, [True], no_side, 12, 0.5) == pytest.approx(
        (2 / 12) * (9.0 / 0.5)
    )


def test_pool_memo_returns_what_a_fresh_pool_computes():
    # read-only moments keep each pool; in any order of asking, each selection's
    # result has the bits of a writeable copy's pool, which keeps none.  The int
    # index array has the bool mask's bytes, so only its dtype tells them apart
    rng = np.random.default_rng(94)
    count, mean = np.array([7, 0, 12, 5]), rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    m2 = rng.random((4, 3))
    aligned = np.array([True, False, False, True])
    selections = [aligned, ~aligned, aligned.view(np.int8), slice(None)]
    for cols in (slice(None), 0):  # several observers, and one (scalar pools)
        fresh = BeamMoments(count.copy(), mean.copy(), m2.copy()).at(cols)
        want = [fresh.pool(sel) for sel in selections]
        for order in itertools.permutations(range(len(selections))):
            frozen = [a.copy() for a in (count, mean, m2)]
            for a in frozen:
                a.flags.writeable = False
            moments = BeamMoments(*frozen).at(cols)
            for i in order + order:  # the second pass reads the memo
                sel = selections[i]
                got = moments.pool(sel.copy() if isinstance(sel, np.ndarray) else sel)
                assert got[0] == want[i][0]
                for a, b in zip(got[1:], want[i][1:]):
                    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
                    assert not a.flags.writeable  # a numpy scalar's flags say so too
            assert len(moments._pools) == len(selections)


def _enumerated_joint_moments(ch, cfg, m_main, l_s, theta_e_deg):
    """The joint moments by brute force: every m-subset of antennas times
    every secondary candidate, each through the per-symbol beta terms."""
    n = cfg.n_antennas
    covered, side = joint_sidelobe_aods(ch, l_s, theta_e_deg)
    side = side if covered else [theta_e_deg]
    beta_r, beta_e, beta_hat = [], [], []
    for comb in itertools.combinations(range(n), m_main):
        main = np.isin(np.arange(n), comb)
        for sec in secondary_pool(ch, l_s):
            paths = (ch.strongest_index, sec)
            beta_r.append(beta_r_term(ch, cfg, main, paths))
            beta_e += [
                beta_e_term(ch, cfg, main, paths, t) * math.sqrt(ch.n_paths * n) for t in side
            ]
            for steered in paths:
                beta_hat.append(beta_e_hat_term(ch, cfg, main, paths, ch.aods_deg[steered]))
    beta_e = np.array(beta_e)
    be_mean = beta_e.mean() if beta_e.size else 0.0
    return JointBetaMoments(
        beta_r_mean=complex(np.mean(beta_r)),
        beta_e_mean_sq=float(np.abs(be_mean) ** 2),
        beta_e_var=float(np.mean(np.abs(beta_e - be_mean) ** 2)) if beta_e.size else 0.0,
        beta_e_hat_mean_sq=float(np.abs(np.mean(beta_hat)) ** 2),
    )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 10),
    L=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    where=st.sampled_from(["strongest", "secondary", "any"]),
    data=st.data(),
)
def test_joint_moments_match_enumeration(n, L, seed, where, data):
    # the exact subset moments against every (subset, secondary path) draw
    m = data.draw(st.integers(1, n), label="m")
    l_s = data.draw(st.integers(2, L), label="l_s")
    cfg = ArrayConfig(n)
    ch = sample_channel(L, THETA_R, np.random.default_rng(seed))
    if where == "strongest":
        theta_e = THETA_R
    elif where == "secondary":
        theta_e = ch.aods_deg[data.draw(st.sampled_from(secondary_pool(ch, l_s)), label="sec")]
    else:
        theta_e = float(data.draw(st.integers(1, 180), label="theta_e"))
    got = estimate_joint_moments(ch, cfg, m, l_s, theta_e)
    want = _enumerated_joint_moments(ch, cfg, m, l_s, theta_e)
    assert abs(got.beta_r_mean - want.beta_r_mean) <= 1e-12
    assert got.beta_e_mean_sq == pytest.approx(want.beta_e_mean_sq, abs=1e-12)
    assert got.beta_e_var == pytest.approx(want.beta_e_var, abs=1e-12)
    assert got.beta_e_hat_mean_sq == pytest.approx(want.beta_e_hat_mean_sq, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 64),
    L=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    off=st.integers(1, 179),
    data=st.data(),
)
def test_beta_terms_equal_direct_product(n, L, seed, off, data):
    # on the joint rows the kernel sends, each beta decomposition equals
    # the direct h^H f: the receiver's steered-path gain, the sidelobe gain
    # at an angle neither beam steers (half-degree, so never a path angle)
    # and the mainlobe gain at the main and at the secondary angle
    m = data.draw(st.integers(1, n), label="m")
    l_s = data.draw(st.integers(2, L), label="l_s")
    cfg = ArrayConfig(n)
    ch = sample_channel(L, THETA_R, np.random.default_rng(seed))
    sqrt_ln = math.sqrt(L * n)
    for w, main, paths in zip(*joint_symbols(ch, cfg, m, l_s, 4, seed)):
        s, i = paths
        coherent = np.conj(ch.gains[s]) * m + np.conj(ch.gains[i]) * (n - m)
        beta_r = beta_r_term(ch, cfg, main, paths)
        assert abs(receiver_gain(ch, cfg, w, paths) - (coherent + beta_r) / sqrt_ln) <= 1e-9
        beta_e = beta_e_term(ch, cfg, main, paths, off + 0.5)
        assert abs(observed_gain(cfg, L, off + 0.5, w) - beta_e) <= 1e-9
        for theta in ch.aods_deg[paths]:
            beta_hat = beta_e_hat_term(ch, cfg, main, paths, theta)
            assert abs(observed_gain(cfg, L, theta, w) - beta_hat / sqrt_ln) <= 1e-9


def test_joint_snr_e_matches_monte_carlo():
    # location-mixture MC estimate vs the closed form over a small channel
    # ensemble, 10%.  (Per channel the closed form pools both mainlobe
    # alignment cases while a pinned angle realizes only one, so single
    # realizations can drift further apart.)
    rho_e = db_to_linear(15.0)
    cf_vals, mc_vals = [], []
    for seed in range(60, 68):
        ch = sample_channel(12, THETA_R, np.random.default_rng(seed))
        mom = estimate_joint_moments(ch, CFG, 16, 5, THETA_R)
        cf_vals.append(
            snr_e_joint(
                32, 12, 16, rho_e,
                mom.beta_e_hat_mean_sq, mom.beta_e_mean_sq, mom.beta_e_var,
            )
        )
        thetas = [THETA_R] + joint_sidelobe_aods(ch, 5, THETA_R)[1]
        streams = simulate_streams(
            ch, CFG, StrategyKind.JOINT_PATH_ANTENNA, 16, 5, thetas, 20_000,
            np.random.default_rng(seed + 200),
        )
        mc_vals.append(
            location_mixture_snr(
                streams.moments.at(0), streams.table[0],
                streams.moments.at(slice(1, len(thetas))), 12, 1 / rho_e,
            )
        )
    assert np.mean(cf_vals) == pytest.approx(np.mean(mc_vals), rel=0.10)


def test_joint_snr_r_matches_monte_carlo_in_ensemble():
    # The printed receiver formula drops the cross term between the two
    # beams' gains and uses the all-path mean, so agreement holds for the
    # channel-ensemble mean with the secondary drawn from all paths.
    rho_r = db_to_linear(10.0)
    mc_vals, cf_vals = [], []
    for seed in range(40):
        ch = sample_channel(12, THETA_R, np.random.default_rng(500 + seed))
        stats = channel_stats(ch)
        sigma_r = stats.mean_gain**2 / rho_r
        mom = estimate_joint_moments(ch, CFG, 16, 12, THETA_R)
        cf_vals.append(
            snr_r_joint(
                32, 12, 16,
                abs(ch.gains[ch.strongest_index]),
                stats.mean_gain_excl_strongest,
                abs(mom.beta_r_mean) ** 2,
                sigma_r,
            )
        )
        streams = simulate_streams(
            ch, CFG, StrategyKind.JOINT_PATH_ANTENNA, 16, 12, [THETA_R], 10_000,
            np.random.default_rng(700 + seed),
        )
        mc_vals.append(receiver_snr(streams.recv_abs_sum, 10_000, sigma_r))
    assert np.mean(cf_vals) == pytest.approx(np.mean(mc_vals), rel=0.10)


def test_joint_beta_moments_dataclass_shape():
    m = JointBetaMoments(1.0 + 0j, 2.0, 3.0, 4.0)
    assert m.beta_e_var == 3.0
