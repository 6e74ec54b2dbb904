"""Geometric multipath channel: sampling and path queries.

A realization holds L paths with distinct integer-degree departure angles
in [1, 180] and circularly-symmetric complex Gaussian gains of unit total
variance.  The strongest-magnitude gain is always carried by the path
pinned at the configured receiver angle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

AOD_SET = np.arange(1, 181)


@dataclass(frozen=True)
class PathComponent:
    aod_deg: float
    gain: complex

    def __post_init__(self):
        if not 1.0 <= self.aod_deg <= 180.0:
            raise ValueError(f"aod_deg must lie in [1, 180], got {self.aod_deg}")


@dataclass(frozen=True)
class ChannelRealization:
    paths: tuple[PathComponent, ...]
    strongest_index: int

    def __post_init__(self):
        if len(self.paths) < 1:
            raise ValueError("at least one path required")
        aods = [p.aod_deg for p in self.paths]
        if len(set(aods)) != len(aods):
            raise ValueError("path AoDs must be pairwise distinct")
        mags = [abs(p.gain) for p in self.paths]
        if abs(self.paths[self.strongest_index].gain) < max(mags) - 1e-15:
            raise ValueError("strongest_index does not hold the largest-magnitude gain")

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    @property
    def aods_deg(self) -> np.ndarray:
        return np.array([p.aod_deg for p in self.paths])

    @property
    def gains(self) -> np.ndarray:
        return np.array([p.gain for p in self.paths])

    @property
    def strongest_aod_deg(self) -> float:
        return self.paths[self.strongest_index].aod_deg

    @functools.cached_property
    def mean_gain(self) -> float:
        """Mean |gain| over all paths, computed once per realization."""
        return float(np.abs(self.gains).mean())


@dataclass(frozen=True)
class ChannelStats:
    mean_gain: float
    mean_gain_excl_strongest: float | None


def sample_channel(L: int, theta_r_deg: float, rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization with the strongest path pinned at theta_r_deg.

    The L-1 remaining AoDs are drawn without replacement from the integer
    degrees {1..180} minus theta_r_deg.  Gains are CN(0, 1); the
    max-magnitude gain is assigned to the pinned path, which leaves the
    gain multiset (and therefore its order statistics) unchanged.
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if L > len(AOD_SET):
        raise ValueError(f"cannot draw {L} distinct integer AoDs from [1, 180]")
    if not 1.0 <= theta_r_deg <= 180.0:
        raise ValueError(f"theta_r_deg must lie in [1, 180], got {theta_r_deg}")

    candidates = AOD_SET[AOD_SET != theta_r_deg]
    other_aods = rng.choice(candidates, size=L - 1, replace=False)
    aods = np.concatenate(([theta_r_deg], other_aods.astype(float)))

    gains = (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2.0)
    imax = int(np.argmax(np.abs(gains)))
    gains[[0, imax]] = gains[[imax, 0]]

    paths = tuple(PathComponent(float(a), complex(g)) for a, g in zip(aods, gains))
    return ChannelRealization(paths=paths, strongest_index=0)


def top_k_paths(ch: ChannelRealization, k: int) -> list[int]:
    """Indices of the k largest-magnitude paths, descending; ties keep lower index."""
    if not 1 <= k <= ch.n_paths:
        raise ValueError(f"k must lie in [1, {ch.n_paths}], got {k}")
    mags = np.abs(ch.gains)
    # stable sort on negated magnitude preserves lower-index-first tie order
    order = np.argsort(-mags, kind="stable")
    return [int(i) for i in order[:k]]


def channel_stats(ch: ChannelRealization) -> ChannelStats:
    """Mean |gain| over all paths and over all paths except the strongest."""
    if ch.n_paths < 2:
        return ChannelStats(mean_gain=ch.mean_gain, mean_gain_excl_strongest=None)
    mask = np.ones(ch.n_paths, dtype=bool)
    mask[ch.strongest_index] = False
    mags = np.abs(ch.gains)
    return ChannelStats(mean_gain=ch.mean_gain, mean_gain_excl_strongest=float(mags[mask].mean()))

