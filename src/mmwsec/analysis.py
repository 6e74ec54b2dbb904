"""Closed-form SNR and secrecy-rate expressions, and their Monte-Carlo
counterparts.

Rate follows the wiretap difference-of-logs with clamping at zero.  The
random-path SNRs use the moments of the interception kernel over the
uniform path draw; the joint-technique SNRs use subset-draw moments of
the beta interference terms, estimated by enumeration when feasible and
by sampling otherwise.  dB quantities convert to linear scale only at
module boundaries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .array_geometry import ArrayConfig
from .channel import ChannelRealization
from .signal_engine import beta_e_hat_term, beta_e_term, beta_r_term, cos_aligned, dirichlet_B
from .strategies import StrategyKind, StrategyParams, SymbolPlan, secondary_pool

EXHAUSTIVE_SUBSET_LIMIT = 10**6


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


def _joint_draws(ch, cfg, params, rng, n_draws):
    """Yield (main_set, secondary_path_index) draws, exhaustively when cheap."""
    n = cfg.n_antennas
    pool = secondary_pool(ch, params.l_s)
    n_subsets = math.comb(n, params.m_main)
    if n_subsets * len(pool) <= EXHAUSTIVE_SUBSET_LIMIT:
        for comb in itertools.combinations(range(n), params.m_main):
            main = np.array(comb)
            for sec in pool:
                yield main, sec
    else:
        for _ in range(n_draws):
            main = np.sort(rng.choice(n, size=params.m_main, replace=False))
            sec = pool[int(rng.integers(len(pool)))]
            yield main, sec


def estimate_joint_moments(
    ch: ChannelRealization,
    cfg: ArrayConfig,
    params: StrategyParams,
    theta_e_deg: float,
    rng: np.random.Generator,
    n_draws: int = 10_000,
) -> JointBetaMoments:
    """Estimate the beta moments over random antenna subsets and secondary paths.

    Exhaustive enumeration when the subset space is small, otherwise
    n_draws uniform samples.  The mainlobe moment pools the
    aligned-with-main and aligned-with-secondary cases with equal weight.
    When theta_e_deg coincides with a transmit angle (the strongest path
    or a secondary candidate), the sidelobe moments are taken over the
    non-transmitted path angles — the locations the unaligned mixture
    branch actually represents; otherwise they are taken at theta_e_deg.
    """
    n = cfg.n_antennas
    scale = math.sqrt(ch.n_paths * n)
    covered, side_aods = joint_sidelobe_aods(ch, params.l_s, theta_e_deg)
    if not covered:
        side_aods = [theta_e_deg]
    beta_r_vals, beta_e_vals, beta_hat_vals = [], [], []
    for main, sec in _joint_draws(ch, cfg, params, rng, n_draws):
        sec_set = np.setdiff1d(np.arange(n), main)
        plan = SymbolPlan(
            kind=StrategyKind.JOINT_PATH_ANTENNA,
            weights=np.empty(0),
            main_aod_deg=ch.strongest_aod_deg,
            main_set=main,
            n_paths=ch.n_paths,
            main_path_index=ch.strongest_index,
            secondary_aod_deg=ch.paths[sec].aod_deg,
            secondary_set=sec_set,
            secondary_path_index=sec,
        )
        beta_r_vals.append(beta_r_term(ch, plan, cfg))
        for aod in side_aods:
            beta_e_vals.append(beta_e_term(plan, aod, cfg) * scale)
        beta_hat_vals.append(beta_e_hat_term(plan, plan.main_aod_deg, cfg))
        beta_hat_vals.append(beta_e_hat_term(plan, plan.secondary_aod_deg, cfg))
    beta_r = np.array(beta_r_vals)
    beta_hat = np.array(beta_hat_vals)
    if beta_e_vals:
        beta_e = np.array(beta_e_vals)
        be_mean = beta_e.mean()
        be_mean_sq = float(np.abs(be_mean) ** 2)
        be_var = float(np.mean(np.abs(beta_e - be_mean) ** 2))
    else:  # every path is a transmit candidate; the sidelobe branch is empty
        be_mean_sq = 0.0
        be_var = 0.0
    return JointBetaMoments(
        beta_r_mean=complex(beta_r.mean()),
        beta_e_mean_sq=be_mean_sq,
        beta_e_var=be_var,
        beta_e_hat_mean_sq=float(np.abs(beta_hat.mean()) ** 2),
    )
