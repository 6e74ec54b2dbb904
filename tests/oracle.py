"""Per-symbol numpy oracle for the observation law sqrt(N/L) a(theta)^H f.

`montecarlo.simulate_streams` evaluates the law for a whole symbol block
chunk by chunk on factored weight rows.  These helpers expand the
kernel's own beams and draw (`montecarlo._beams`,
`montecarlo._draw_weights`) into dense per-symbol weights and evaluate the
law one weight vector at a time with `np.vdot`, so the tests can hold the
kernel to it symbol by symbol.
"""

import math

import numpy as np

from mmwsec.array_geometry import array_response
from mmwsec.montecarlo import _beams, _draw_weights
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
    h = sum(p.gain * array_response(cfg, p.aod_deg) for p in ch.paths)
    return complex(np.vdot(math.sqrt(cfg.n_antennas / ch.n_paths) * h, w))


def _expand(ch, cfg, kind, m, l_s, K, seed):
    """The kernel's draw on `seed` as dense rows: each symbol's weights (K, N),
    main-beam mask (K, N) and the channel indices of the paths it steers (K, S)."""
    B, cand, steer = _beams(ch, cfg, kind, m, l_s)
    row, main = _draw_weights(kind, len(B), cfg.n_antennas, m, K, np.random.default_rng(seed))
    if main is None:
        main = np.zeros((K, cfg.n_antennas), dtype=bool)
    return np.where(main, B[0], B[row]), main, cand[steer[row]]


def sent_symbols(ch, cfg, kind, m, l_s, K, seed):
    """What the kernel sends on `seed`: each symbol's weights (K, N) and the
    channel indices of the paths it steers (K, S)."""
    w, _, paths = _expand(ch, cfg, kind, m, l_s, K, seed)
    return w, paths


def joint_symbols(ch, cfg, m, l_s, K, seed):
    """The joint kernel's symbols on `seed`: weights, main-beam masks (K, N)
    and (main, secondary) paths."""
    return _expand(ch, cfg, StrategyKind.JOINT_PATH_ANTENNA, m, l_s, K, seed)
