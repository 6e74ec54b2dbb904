"""Per-symbol numpy oracle for the observation law sqrt(N/L) a(theta)^H f.

`montecarlo.simulate_streams` evaluates the law for a whole symbol block
on factored weight rows and returns only per-beam moments.  These helpers
expand the kernel's own beams and draw (`montecarlo._beams`,
`montecarlo._draw_weights`: per-beam symbol counts, so symbol k sends the
beam of the run it falls in) into dense per-symbol weights and evaluate
the law one weight vector at a time with `np.vdot`, and rebuild a block's
per-symbol gains from the kernel's operator and draw (`kernel_gains`), so
the tests can hold the operator to the law symbol by symbol and the
kernel's moments to statistics of the rebuilt block.  `masked_beam_variance`
gives a masked beam's exact per-symbol variance at an eavesdropper, from
the beams and the finite-population formula alone.

It also keeps the per-symbol forms of the sweep's SNR estimators, which
the kernel's per-beam moments replace (`analysis.BeamMoments`), and
two-pass per-beam statistics of a block's gains, so the tests can hold
the moment-based estimators to the sample formulas.
"""

import math
from typing import NamedTuple

import numpy as np

from mmwsec.analysis import BeamMoments
from mmwsec.array_geometry import array_response
from mmwsec.montecarlo import _beams, _draw_weights, _operator
from mmwsec.strategies import StrategyKind


def observed_gain(cfg, n_paths, theta_deg, w):
    """Gain of a unit-gain single-path observer at theta: sqrt(N/L) a(theta)^H w."""
    return math.sqrt(cfg.n_antennas / n_paths) * np.vdot(array_response(cfg, theta_deg), w)


def receiver_gain(ch, cfg, w, paths):
    """Coherent receiver gain: conj(alpha_l) times the gain at theta_l, summed over paths."""
    return sum(
        np.conj(ch.gains[l]) * observed_gain(cfg, ch.n_paths, ch.aods_deg[l], w) for l in paths
    )


def full_channel_gain(ch, cfg, w):
    """h^H w with h built from the raw channel definition over all L paths."""
    h = sum(g * array_response(cfg, aod) for aod, g in zip(ch.aods_deg, ch.gains))
    return complex(np.vdot(math.sqrt(cfg.n_antennas / ch.n_paths) * h, w))


def _rows(beams, m, K, seed):
    """The kernel's draw on `seed` as the beam each symbol sends (K,) and its
    mask: beam s repeated count[s] times, in beam order."""
    count, mask = _draw_weights(beams, m, K, np.random.default_rng(seed))
    return np.repeat(np.arange(len(beams.p)), count), mask


def _expand(ch, cfg, kind, m, l_s, K, seed):
    """The kernel's draw on `seed` as dense rows: each symbol's weights (K, N),
    main-beam mask (K, N) and the channel indices of the paths it steers (K, S)."""
    beams = _beams(ch, cfg, kind, m, l_s)
    row, main = _rows(beams, m, K, seed)
    if main is None:
        main = np.zeros((K, cfg.n_antennas), dtype=bool)
    return np.where(main, beams.B[0], beams.B[row]), main, beams.cand[beams.steer[row]]


def sent_symbols(ch, cfg, kind, m, l_s, K, seed):
    """What the kernel sends on `seed`: each symbol's weights (K, N) and the
    channel indices of the paths it steers (K, S)."""
    w, _, paths = _expand(ch, cfg, kind, m, l_s, K, seed)
    return w, paths


def joint_symbols(ch, cfg, m, l_s, K, seed):
    """The joint kernel's symbols on `seed`: weights, main-beam masks (K, N)
    and (main, secondary) paths."""
    return _expand(ch, cfg, StrategyKind.JOINT_PATH_ANTENNA, m, l_s, K, seed)


class Gains(NamedTuple):
    """A block's gains per symbol, in symbol order."""

    recv: np.ndarray  # (K,) at the receiver
    eaves: np.ndarray  # (T, K) at each eavesdropper angle
    aligned: np.ndarray  # (T, K) whether the symbol steers a path sharing the angle's cosine
    row: np.ndarray  # (K,) the beam each symbol sent


def kernel_gains(ch, cfg, kind, m, l_s, thetas, K, seed):
    """The per-symbol gains of the block `simulate_streams` reduces on `seed`.

    Built from the kernel's halves without its per-beam slicing, chunked
    GEMMs or reductions: `_operator` gives (table, G, D), `_draw_weights`
    on the same seed gives the beam counts and the mask, each symbol's beam
    is row = repeat(arange(R), count), and symbol k's gain is G[row_k] plus,
    for the masked strategies, mask_k D[row_k] viewed as complex.
    """
    beams = _beams(ch, cfg, kind, m, l_s)
    operator = _operator(ch, cfg, beams, m, tuple(np.asarray(thetas, float).tolist()))
    return draw_gains(*operator, *_draw_weights(beams, m, K, np.random.default_rng(seed)))


def draw_gains(table, G, D, count, mask):
    """The per-symbol gains of the draw (count, mask) on the operator (table, G, D)."""
    row = np.repeat(np.arange(len(G)), count)
    gains = G[row]
    if mask is not None:
        gains = gains + np.einsum("kn,knj->kj", mask.astype(float), D[row]).view(complex)
    return Gains(gains[:, -1], gains[:, :-1].T, table[:, row], row)


def beam_moments(gains, beam, R):
    """Two-pass per-beam moments of gains (K,) or (C, K), sent on beam (K,) of R.

    The mean and M2 of a beam come from numpy's mean and a sum of squared
    deviations from it; a beam with no symbol gets mean 0 and M2 0.  The
    moments have one column per observer, or none for 1-D gains.
    """
    g = np.asarray(gains, dtype=complex).T
    beam = np.asarray(beam)
    count = np.bincount(beam, minlength=R)
    mean = np.zeros((R, *g.shape[1:]), dtype=complex)
    m2 = np.zeros((R, *g.shape[1:]))
    for s in np.flatnonzero(count):
        mean[s] = g[beam == s].mean(axis=0)
        m2[s] = (np.abs(g[beam == s] - mean[s]) ** 2).sum(axis=0)
    return BeamMoments(count, mean, m2)


def coherent_snr(g, noise):
    """|sample mean|^2 / (sample variance + noise), two-pass."""
    mean = g.mean()
    return float(np.abs(mean) ** 2 / (float(np.mean(np.abs(g - mean) ** 2)) + noise))


def receiver_snr_of_samples(gains, noise):
    """(mean |gain|)^2 / noise over the receiver's per-symbol gains."""
    return float(np.abs(np.asarray(gains)).mean() ** 2 / noise)


def alignment_mixture_snr_of_samples(gains, labels, noise):
    """The unaligned and the aligned symbols' coherent SNRs, weighted by frequency."""
    g, aligned = np.asarray(gains, dtype=complex), np.asarray(labels, dtype=bool)
    groups = [sel for sel in (g[~aligned], g[aligned]) if sel.size]
    return sum((sel.size / g.size) * coherent_snr(sel, noise) for sel in groups)


def location_mixture_snr_of_samples(aligned_gains, sidelobe_gain_sets, n_paths, noise, main_gain):
    """2/L times the mainlobe's |mean|^2 / noise, or |main_gain|^2 / noise if
    no symbol was aligned, plus (1 - 2/L) times the mean coherent SNR over
    the sidelobe angles."""
    g = np.asarray(aligned_gains, dtype=complex)
    snr_main = float(np.abs(g.mean() if g.size else main_gain) ** 2 / noise)
    side = [coherent_snr(np.asarray(s, dtype=complex), noise) for s in sidelobe_gain_sets]
    return (2 / n_paths) * snr_main + (1 - 2 / n_paths) * (float(np.mean(side)) if side else 0.0)


def masked_beam_variance(ch, cfg, kind, m, l_s, thetas):
    """Exact per-symbol variance of each masked beam's gain at each
    eavesdropper angle, (R, T), by finite-population sampling.

    Symbol k of beam s sends B[s] with its random m-subset switched to
    B[0], so its gain at theta is the sum over the subset of the terms
    x_n = sqrt(N/L) conj(a(theta)_n) (B[0, n] - B[s, n]) plus a constant.
    A uniform m-subset of n terms has variance
    m (n - m) / (n (n - 1)) * sum_n |x_n - mean x|^2 (Cochran, Sampling
    Techniques, ch. 2).
    """
    B = _beams(ch, cfg, kind, m, l_s).B
    n = cfg.n_antennas
    a = np.conj(array_response(cfg, np.asarray(thetas, dtype=float)[:, None]))  # (T, n)
    x = math.sqrt(n / ch.n_paths) * a[None] * (B[0] - B)[:, None, :]  # (R, T, n)
    spread = (np.abs(x - x.mean(axis=2, keepdims=True)) ** 2).sum(axis=2)
    return m * (n - m) / (n * (n - 1)) * spread
