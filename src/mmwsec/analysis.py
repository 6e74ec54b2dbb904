"""Closed-form SNR and secrecy-rate expressions, and their Monte-Carlo
counterparts.

Rate follows the wiretap difference-of-logs with clamping at zero.  The
random-path SNRs use the moments of the interception kernel `dirichlet_B`
over the uniform path draw; the joint-technique SNRs use the exact
moments of the beta interference terms over the random antenna subset
and secondary path (`estimate_joint_moments`).  The per-symbol beta terms
themselves are defined here on one joint symbol, for the decomposition
oracles in the tests.  dB quantities convert to linear scale only at
module boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .array_geometry import ArrayConfig, centered_indices, cos_aligned, phase_diff
from .channel import ChannelRealization
from .strategies import StrategyParams, secondary_pool


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x) if x > 0 else -math.inf


@dataclass(frozen=True)
class SnrPair:
    snr_r: float
    snr_e: float

    def __post_init__(self):
        if self.snr_r < 0 or self.snr_e < 0:
            raise ValueError("SNRs must be nonnegative")


def secrecy_rate(snr: SnrPair) -> float:
    """max(0, log2(1 + SNR_R) - log2(1 + SNR_E))."""
    return max(0.0, math.log2(1.0 + snr.snr_r) - math.log2(1.0 + snr.snr_e))


def snr_r_random_path(n_antennas: int, n_paths: int, rho_r_linear: float) -> float:
    """Receiver SNR of the path-hopping technique: N rho_R / L."""
    if n_antennas < 1 or n_paths < 1 or rho_r_linear < 0:
        raise ValueError("invalid inputs")
    return n_antennas * rho_r_linear / n_paths


def dirichlet_B(theta_e_deg, theta_l_deg, cfg: ArrayConfig) -> float:
    """Interception kernel sum_n exp(-j ((N-1)/2 - n) psi) with
    psi = gamma(theta_e, theta_l).

    Real by conjugate pairing of the terms; equals N exactly at cosine
    alignment (handled without a sin/sin division).
    """
    n = cfg.n_antennas
    if cos_aligned(theta_e_deg, theta_l_deg):
        return float(n)
    total = np.exp(-1j * centered_indices(n) * phase_diff(theta_e_deg, theta_l_deg, cfg)).sum()
    return float(total.real)


def b_moments(theta_e_deg, path_aods_deg, cfg: ArrayConfig) -> tuple[float, float]:
    """Mean and variance of the interception kernel under a uniform path draw."""
    vals = np.array([dirichlet_B(theta_e_deg, t, cfg) for t in path_aods_deg])
    mean = float(vals.mean())
    var = float((vals**2).mean() - mean**2)
    return mean, var


def snr_e_random_path(
    n_antennas: int,
    n_paths: int,
    rho_e_linear: float,
    theta_e_deg: float,
    path_aods_deg,
    cfg: ArrayConfig,
) -> float:
    """Eavesdropper SNR of the path-hopping technique.

    Mixture of the aligned interception (probability 1/L, full-beam gain)
    and the unaligned case where the kernel's spread acts as noise.  The
    pessimistic alignment assumption (observer angle shared with one of
    the L paths) is baked into the first term.
    """
    N, L = n_antennas, n_paths
    mean, var = b_moments(theta_e_deg, path_aods_deg, cfg)
    aligned = (1.0 / L) * (rho_e_linear * N / L)
    unaligned = (1.0 - 1.0 / L) * (
        rho_e_linear * mean**2 / (rho_e_linear * var + L * N)
    )
    return aligned + unaligned


def snr_r_joint(
    n_antennas: int,
    n_paths: int,
    m_main: int,
    alpha_s: float,
    mean_excl: float,
    beta_r_mean_sq: float,
    sigma_r_sq: float,
) -> float:
    """Receiver SNR of the joint technique: three additive terms over L N sigma^2.

    The middle term carries the non-strongest mean gain linearly, as
    printed in the source expression.
    """
    if m_main > n_antennas:
        raise ValueError("m_main cannot exceed the antenna count")
    denom = n_paths * n_antennas * sigma_r_sq
    return (
        alpha_s**2 * m_main**2 / denom
        + mean_excl * (n_antennas - m_main) ** 2 / denom
        + beta_r_mean_sq / denom
    )


def snr_e_joint(
    n_antennas: int,
    n_paths: int,
    m_main: int,
    rho_e_linear: float,
    beta_hat_mean_sq: float,
    beta_mean_sq: float,
    beta_var: float,
) -> float:
    """Eavesdropper SNR of the joint technique.

    Mixture of mainlobe interception (probability 2/L: aligned with the
    main or the current secondary angle) and sidelobe interception.  The
    beta moments are of the unscaled subset sums.
    """
    N, L = n_antennas, n_paths
    if L < 2:
        raise ValueError("joint technique requires L >= 2")
    aligned = 2.0 * rho_e_linear * beta_hat_mean_sq / (L**2 * N)
    unaligned = (1.0 - 2.0 / L) * (
        rho_e_linear * beta_mean_sq / (rho_e_linear * beta_var + L * N)
    )
    return aligned + unaligned


def _coherent_snr(g: np.ndarray, noise_power_linear: float) -> float:
    """The coherent mean / variance estimator behind every eavesdropper SNR."""
    mean = g.mean()
    var = float(np.mean(np.abs(g - mean) ** 2))
    return float(np.abs(mean) ** 2 / (var + noise_power_linear))


def mc_snr_estimator(samples, noise_power_linear: float) -> float:
    """Empirical SNR: |sample mean|^2 / (sample variance + noise power).

    The variance term is the artificial-noise power seen by an observer
    without the transmit schedule.
    """
    g = np.asarray(samples, dtype=complex)
    if g.size < 2:
        raise ValueError("at least 2 samples required")
    return _coherent_snr(g, noise_power_linear)


def receiver_snr(samples, noise_power_linear: float) -> float:
    """Receiver SNR with schedule-known fluctuation removed:
    (mean |gain|)^2 / noise."""
    g = np.asarray(samples, dtype=complex)
    if g.size < 1:
        raise ValueError("at least 1 sample required")
    return float(np.abs(g).mean() ** 2 / noise_power_linear)


def alignment_mixture_snr(gains, labels, noise_power_linear: float) -> float:
    """Eavesdropper SNR conditioned on per-symbol alignment events.

    Symbols are grouped by their alignment label (e.g. aligned with the
    transmit angle vs not); each group's SNR uses the coherent-mean /
    variance estimator and the groups mix with empirical frequencies.
    Mirrors the closed forms' probability-weighted structure.
    """
    g = np.asarray(gains, dtype=complex)
    labels = np.asarray(labels)
    if g.size != labels.size:
        raise ValueError("gains and labels must have equal length")
    total = 0.0
    for lab in np.unique(labels):
        sel = g[labels == lab]
        total += (sel.size / g.size) * _coherent_snr(sel, noise_power_linear)
    return total


def location_mixture_snr(aligned_gains, sidelobe_gain_sets, n_paths, noise_power_linear) -> float:
    """Eavesdropper SNR under the pessimistic random-location assumption.

    The eavesdropper occupies one of the L paths uniformly at random:
    with probability 2/L it sits on a transmit angle and intercepts the
    mainlobe coherently (thermal noise only), otherwise it observes the
    sidelobe gains at a non-transmitted path angle, whose
    symbol-to-symbol spread acts as artificial noise.  Mirrors the
    two-term closed form of the joint technique.
    """
    L = n_paths
    g = np.asarray(aligned_gains, dtype=complex)
    snr_main = float(np.abs(g.mean()) ** 2 / noise_power_linear) if g.size else 0.0
    side = [
        _coherent_snr(np.asarray(s, dtype=complex), noise_power_linear)
        for s in sidelobe_gain_sets
    ]
    snr_side = float(np.mean(side)) if side else 0.0
    return (2.0 / L) * snr_main + (1.0 - 2.0 / L) * snr_side


def joint_sidelobe_aods(
    ch: ChannelRealization, l_s: int, theta_e_deg: float
) -> tuple[bool, list[float]]:
    """Where the joint scheme's eavesdropper mixture observes its sidelobes.

    Returns whether theta_e_deg coincides with a transmit angle (the
    strongest path or a secondary candidate), and the path angles the
    scheme never steers at.  A covered eavesdropper mixes mainlobe
    interception with sidelobe observation at those angles (the
    pessimistic random-location model).
    """
    pool = secondary_pool(ch, l_s)
    covered = any(
        cos_aligned(theta_e_deg, ch.paths[i].aod_deg) for i in [ch.strongest_index, *pool]
    )
    side = [
        p.aod_deg for i, p in enumerate(ch.paths) if i != ch.strongest_index and i not in pool
    ]
    return covered, side


# One joint symbol, in the form the Monte Carlo kernel draws it: `main` is
# the boolean (N,) mask of antennas on the main beam, and `paths` holds the
# channel indices of the main and the secondary path, which the main-beam
# and the remaining antennas steer.


def _subset_sum(cfg: ArrayConfig, sel, theta_x_deg, theta_e_deg) -> complex:
    """sum over the antennas in sel of exp(j c_n gamma(theta_x, theta_e))."""
    c = centered_indices(cfg.n_antennas)[sel]
    return complex(np.exp(1j * c * phase_diff(theta_x_deg, theta_e_deg, cfg)).sum())


def beta_r_term(ch: ChannelRealization, cfg: ArrayConfig, main, paths) -> complex:
    """Receiver-side cross-beam interference of one joint symbol.

    conj(alpha_S) times the secondary beam's sum at the main angle plus
    conj(alpha_i) times the main beam's sum at the secondary angle, so the
    steered-path gain is (conj(alpha_S) M + conj(alpha_i) (N - M) + beta_R)
    / sqrt(L N).  Precomputable at the receiver from its channel and
    schedule knowledge.
    """
    s, i = paths
    theta_s, theta_i = ch.aods_deg[s], ch.aods_deg[i]
    return complex(
        np.conj(ch.gains[s]) * _subset_sum(cfg, ~main, theta_i, theta_s)
        + np.conj(ch.gains[i]) * _subset_sum(cfg, main, theta_s, theta_i)
    )


def beta_e_term(ch: ChannelRealization, cfg: ArrayConfig, main, paths, theta_e_deg) -> complex:
    """Sidelobe artificial-noise term of one joint symbol (scaled by 1/sqrt(LN)).

    The 1/sqrt(LN) factor applies to both subset sums so that
    conj(alpha_e) * beta_e_term reproduces the direct single-path observer
    gain exactly.
    """
    s, i = paths
    total = _subset_sum(cfg, main, ch.aods_deg[s], theta_e_deg) + _subset_sum(
        cfg, ~main, ch.aods_deg[i], theta_e_deg
    )
    return complex(total / np.sqrt(ch.n_paths * cfg.n_antennas))


def beta_e_hat_term(ch: ChannelRealization, cfg: ArrayConfig, main, paths, theta_e_deg) -> complex:
    """Mainlobe artificial-noise term of one joint symbol (unscaled): constant
    part plus a random subset sum.

    Valid only when the observation angle aligns with the main or the
    secondary steering angle.  conj(alpha_e) * beta_e_hat / sqrt(LN)
    equals the direct observer gain.
    """
    s, i = paths
    theta_s, theta_i = ch.aods_deg[s], ch.aods_deg[i]
    m = int(np.count_nonzero(main))
    if cos_aligned(theta_e_deg, theta_s):
        return m + _subset_sum(cfg, ~main, theta_i, theta_e_deg)
    if cos_aligned(theta_e_deg, theta_i):
        return cfg.n_antennas - m + _subset_sum(cfg, main, theta_s, theta_e_deg)
    raise ValueError(
        "beta_e_hat_term requires the observation angle to align with the "
        "main or secondary steering angle"
    )


@dataclass(frozen=True)
class JointBetaMoments:
    """Subset-draw moments of the joint technique's interference terms.

    beta_* moments are of the unscaled sums; beta_r_mean is the complex
    mean of the receiver-side cross term.
    """

    beta_r_mean: complex
    beta_e_mean_sq: float
    beta_e_var: float
    beta_e_hat_mean_sq: float


def estimate_joint_moments(
    ch: ChannelRealization,
    cfg: ArrayConfig,
    params: StrategyParams,
    theta_e_deg: float,
) -> JointBetaMoments:
    """Exact beta moments over the uniform antenna subset and secondary path.

    Every beta sum is linear in the indicator of the uniform m-subset S
    of main-beam antennas.  With f = m/N, a subset sum of x_n has mean
    f sum(x) and variance m(N-m)/(N(N-1)) sum|x - mean(x)|^2, the
    finite-population correction (Cochran, Sampling Techniques, ch. 2).
    The sidelobe sum at angle theta is sum(b) + sum_S (a - b), with a and
    b the main- and secondary-beam phasors at theta; its moments pool the
    secondary paths and sidelobe angles by the law of total variance.
    The mainlobe moment pools the aligned-with-main and
    aligned-with-secondary cases with equal weight.  When theta_e_deg
    coincides with a transmit angle (the strongest path or a secondary
    candidate), the sidelobe moments are taken over the non-transmitted
    path angles — the locations the unaligned mixture branch actually
    represents; otherwise they are taken at theta_e_deg.
    """
    n, m = cfg.n_antennas, params.m_main
    params.validate(n, ch.n_paths)
    f = m / n
    c = centered_indices(n)
    theta_s = ch.strongest_aod_deg
    pool = secondary_pool(ch, params.l_s)
    pool_aods = ch.aods_deg[pool]
    # full-array secondary-vs-main Dirichlet sums, one per pool path
    d = np.exp(1j * np.outer(c, phase_diff(pool_aods, theta_s, cfg))).sum(axis=0)
    alpha_s = ch.gains[ch.strongest_index]
    beta_r = np.conj(alpha_s) * (1 - f) * d + np.conj(ch.gains[pool]) * f * np.conj(d)
    beta_hat = ((m + (1 - f) * d) + ((n - m) + f * np.conj(d))) / 2
    covered, side_aods = joint_sidelobe_aods(ch, params.l_s, theta_e_deg)
    if not covered:
        side_aods = [theta_e_deg]
    if side_aods:
        side = np.asarray(side_aods, dtype=float)
        a = np.exp(1j * np.outer(c, phase_diff(theta_s, side, cfg)))[:, None, :]  # (n, 1, T)
        b = np.exp(1j * c[:, None, None] * phase_diff(pool_aods[:, None], side, cfg))  # (n, P, T)
        x = a - b
        cond_mean = b.sum(axis=0) + f * x.sum(axis=0)
        cond_var = m * (n - m) / (n * (n - 1)) * np.sum(np.abs(x - x.mean(axis=0)) ** 2, axis=0)
        be_mean = cond_mean.mean()
        be_mean_sq = float(np.abs(be_mean) ** 2)
        be_var = float(cond_var.mean() + np.mean(np.abs(cond_mean - be_mean) ** 2))
    else:  # every path is a transmit candidate; the sidelobe branch is empty
        be_mean_sq = 0.0
        be_var = 0.0
    return JointBetaMoments(
        beta_r_mean=complex(beta_r.mean()),
        beta_e_mean_sq=be_mean_sq,
        beta_e_var=be_var,
        beta_e_hat_mean_sq=float(np.abs(beta_hat.mean()) ** 2),
    )
