"""Closed-form SNR and secrecy-rate expressions, and their Monte-Carlo
counterparts.

Rate follows the wiretap difference-of-logs with clamping at zero.  The
Monte Carlo estimators read a block's per-beam moments (`BeamMoments`:
count, mean gain and M2 per beam and observer, as the kernel reduces
them) and pool the beams of each group by the law of total variance.  The
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
from dataclasses import dataclass, field

import numpy as np

from .array_geometry import ArrayConfig, centered_indices, cos_aligned, phase_diff
from .channel import ChannelRealization
from .strategies import check_joint, secondary_pool


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x) if x > 0 else -math.inf


def secrecy_rate(snr_r: float, snr_e: float) -> float:
    """max(0, log2(1 + SNR_R) - log2(1 + SNR_E)) of two nonnegative linear SNRs."""
    if snr_r < 0 or snr_e < 0:
        raise ValueError("SNRs must be nonnegative")
    return max(0.0, math.log2(1.0 + snr_r) - math.log2(1.0 + snr_e))


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


@dataclass(frozen=True)
class BeamMoments:
    """Per-beam sample moments of one block's gains at C observers.

    count (R,) is the number of symbols sent on each beam; mean (R, C) is
    their mean gain at each observer and m2 (R, C) their M2, the sum of
    squared deviations sum |g - mean|^2.  A beam that sends no symbol has
    count 0, M2 0 and a finite mean (the kernel's exact mean gain of the
    beam), so it weighs nothing in a pool.  Moments whose three arrays are
    read-only, as a kernel block's are, keep each pool they compute
    (`pool`).
    """

    count: np.ndarray
    mean: np.ndarray
    m2: np.ndarray
    # selection key -> pool, or None where an array is writeable
    _pools: dict | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        read_only = not any(a.flags.writeable for a in (self.count, self.mean, self.m2))
        object.__setattr__(self, "_pools", {} if read_only else None)

    def at(self, cols) -> BeamMoments:
        """The moments at the observer columns cols (an index or a slice)."""
        return BeamMoments(self.count, self.mean[:, cols], self.m2[:, cols])

    def pool(self, beams=slice(None)) -> tuple[int, np.ndarray, np.ndarray]:
        """(n, mean, M2) of the symbols on the selected beams, at every observer.

        Groups merge by the law of total variance (the pairwise update of
        Chan, Golub & LeVeque, Am. Stat. 1983, over all beams at once):
        mean = sum n_s mean_s / n and M2 = sum M2_s + sum n_s |mean_s - mean|^2.
        An empty selection gives n = 0 with zero mean and M2.  On read-only
        moments a pool is a pure function of the selection, so it is
        computed once, kept with read-only arrays, and returned again for
        slice(None) or for an array selection of the same dtype, shape and
        bytes (so a bool mask and an index array of equal bytes differ).
        """
        key = self._pool_key(beams)
        if key is None:
            return self._pool(beams)
        pooled = self._pools.get(key)
        if pooled is None:
            pooled = self._pools[key] = self._pool(beams)
            for a in pooled[1:]:
                if isinstance(a, np.ndarray):  # at one observer they are immutable scalars
                    a.flags.writeable = False
        return pooled

    def _pool_key(self, beams):
        """The key `pool` keeps a selection's result by; None if it keeps none."""
        if self._pools is None:
            return None
        if isinstance(beams, slice):
            return "all" if beams == slice(None) else None
        sel = np.asarray(beams)
        return sel.dtype.str, sel.shape, sel.tobytes()

    def _pool(self, beams):
        n, mean, m2 = self.count[beams], self.mean[beams], self.m2[beams]
        total = int(n.sum())
        if not total:
            return 0, np.zeros(mean.shape[1:], dtype=complex), np.zeros(m2.shape[1:])
        pooled = n @ mean / total
        return total, pooled, m2.sum(axis=0) + n @ (np.abs(mean - pooled) ** 2)


def _coherent_snr(n, mean, m2, noise_power_linear):
    """The coherent mean / variance estimator behind every eavesdropper SNR:
    |mean|^2 / (M2 / n + noise), per observer."""
    return np.abs(mean) ** 2 / (m2 / n + noise_power_linear)


def receiver_snr(abs_sum: float, count: int, noise_power_linear: float) -> float:
    """Receiver SNR with schedule-known fluctuation removed:
    (mean |gain|)^2 / noise, from the sum of |gain| over count symbols."""
    if count < 1:
        raise ValueError("at least 1 sample required")
    return float((abs_sum / count) ** 2 / noise_power_linear)


def alignment_mixture_snr(moments: BeamMoments, aligned, noise_power_linear: float) -> float:
    """Eavesdropper SNR conditioned on the per-symbol alignment event.

    moments are a block's per-beam moments at the eavesdropper's angle
    (one observer) and aligned marks, per beam, whether it steers a path
    sharing that angle's cosine.  The beams pool into the unaligned and the
    aligned group, summed in that order; each nonempty group's SNR uses the
    coherent-mean / variance estimator and the groups mix with empirical
    frequencies.  Mirrors the closed forms' probability-weighted structure.
    """
    aligned = np.asarray(aligned, dtype=bool)
    if aligned.shape != moments.count.shape:
        raise ValueError("moments and alignment labels must cover the same beams")
    K = int(moments.count.sum())
    total = 0.0
    for group in (~aligned, aligned):
        n, mean, m2 = moments.pool(group)
        if n:
            total += (n / K) * float(_coherent_snr(n, mean, m2, noise_power_linear))
    return total


def location_mixture_snr(
    main: BeamMoments, aligned, sidelobes: BeamMoments, n_paths, noise_power_linear
) -> float:
    """Eavesdropper SNR under the pessimistic random-location assumption.

    The eavesdropper occupies one of the L paths uniformly at random:
    with probability 2/L it sits on a transmit angle and intercepts the
    mainlobe coherently (thermal noise only), otherwise it observes the
    sidelobe gains at a non-transmitted path angle, whose
    symbol-to-symbol spread acts as artificial noise.  main holds the
    per-beam moments at the transmit angle, of which the beams marked
    aligned make up the mainlobe; sidelobes holds every beam's moments at
    the C non-transmitted angles, each pooled over all beams.  Mirrors the
    two-term closed form of the joint technique.  The mainlobe weighs 2/L
    whatever the symbol counts, so a block that sent no aligned symbol
    reads the aligned beams' means (the kernel's exact mean gains).
    """
    L = n_paths
    aligned = np.asarray(aligned, dtype=bool)
    n, mean, _ = main.pool(aligned)
    if not n and aligned.any():
        mean = main.mean[aligned].mean(axis=0)
    snr_main = float(np.abs(mean) ** 2 / noise_power_linear)
    snr_side = 0.0
    if sidelobes.mean.shape[1]:
        n, mean, m2 = sidelobes.pool()
        snr_side = float(np.mean(_coherent_snr(n, mean, m2, noise_power_linear)))
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
    sent = [ch.strongest_index, *secondary_pool(ch, l_s)]
    covered = any(cos_aligned(theta_e_deg, ch.aods_deg[i]) for i in sent)
    side = [aod for i, aod in enumerate(ch.aods_deg.tolist()) if i not in sent]
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
    ch: ChannelRealization, cfg: ArrayConfig, m_main: int, l_s: int, theta_e_deg: float
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
    n, m = cfg.n_antennas, m_main
    check_joint(m_main, l_s, n, ch.n_paths)
    f = m / n
    c = centered_indices(n)
    theta_s = ch.strongest_aod_deg
    pool = secondary_pool(ch, l_s)
    pool_aods = ch.aods_deg[pool]
    # full-array secondary-vs-main Dirichlet sums, one per pool path
    d = np.exp(1j * np.outer(c, phase_diff(pool_aods, theta_s, cfg))).sum(axis=0)
    alpha_s = ch.gains[ch.strongest_index]
    beta_r = np.conj(alpha_s) * (1 - f) * d + np.conj(ch.gains[pool]) * f * np.conj(d)
    beta_hat = ((m + (1 - f) * d) + ((n - m) + f * np.conj(d))) / 2
    covered, side_aods = joint_sidelobe_aods(ch, l_s, theta_e_deg)
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
