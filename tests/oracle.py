"""Per-symbol numpy oracle for the observation law sqrt(N/L) a(theta)^H f.

`montecarlo.simulate_streams` evaluates the law for a whole symbol block
in one matrix product.  These helpers evaluate it one weight vector at a
time with `np.vdot`, on the weights the kernel's draw
(`montecarlo._draw_weights`) sends, so the tests can hold the kernel to
it symbol by symbol.
"""

import math

import numpy as np

from mmwsec.array_geometry import array_response
from mmwsec.montecarlo import _draw_weights, _random_subsets
from mmwsec.strategies import StrategyKind, secondary_pool


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
    h = sum(p.gain * array_response(cfg, p.aod_deg) for p in ch.paths)
    return complex(np.vdot(math.sqrt(cfg.n_antennas / ch.n_paths) * h, w))


def sent_symbols(ch, cfg, kind, m, l_s, K, seed):
    """What the kernel sends on `seed`: each symbol's weights (K, N) and the
    channel indices of the paths it steers (K, S)."""
    W, cand, steer, row = _draw_weights(ch, cfg, kind, m, l_s, K, np.random.default_rng(seed))
    return W[row], cand[steer[row]]


def joint_symbols(ch, cfg, m, l_s, K, seed):
    """The joint kernel's symbols on `seed`: weights, main-beam masks (K, N)
    and (main, secondary) paths.  The masks are replayed from the kernel's
    draw order: every symbol's pool index first, then the antenna subsets."""
    w, paths = sent_symbols(ch, cfg, StrategyKind.JOINT_PATH_ANTENNA, m, l_s, K, seed)
    rng = np.random.default_rng(seed)
    rng.integers(len(secondary_pool(ch, l_s)), size=K)
    return w, _random_subsets(rng, K, cfg.n_antennas, m), paths
