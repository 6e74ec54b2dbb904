"""Geometric multipath channel: sampling and path queries.

A realization holds L paths with distinct integer-degree departure angles
in [1, 180] and circularly-symmetric complex Gaussian gains of unit total
variance.  The strongest-magnitude gain is always carried by the path
pinned at the configured receiver angle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

AOD_SET = np.arange(1, 181)


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """L paths: departure angles aods_deg (L,) in degrees and complex gains
    (L,), both held as read-only copies, and the index of the
    largest-magnitude gain.  Compares and hashes by identity, so a kernel
    block keyed by a realization never reads its arrays."""

    aods_deg: np.ndarray
    gains: np.ndarray
    strongest_index: int

    def __post_init__(self):
        aods, gains = np.array(self.aods_deg, dtype=float), np.array(self.gains, dtype=complex)
        aods.flags.writeable = gains.flags.writeable = False
        object.__setattr__(self, "aods_deg", aods)
        object.__setattr__(self, "gains", gains)
        if aods.ndim != 1 or aods.shape != gains.shape:
            raise ValueError(
                f"aods_deg {aods.shape} and gains {gains.shape} must be vectors of one length"
            )
        if len(aods) < 1:
            raise ValueError("at least one path required")
        bad = aods[~((aods >= 1.0) & (aods <= 180.0))]
        if bad.size:
            raise ValueError(f"aods_deg must lie in [1, 180], got {bad[0]}")
        if len(set(aods.tolist())) != len(aods):
            raise ValueError("path AoDs must be pairwise distinct")
        mags = np.abs(gains)
        if mags[self.strongest_index] < mags.max() - 1e-15:
            raise ValueError("strongest_index does not hold the largest-magnitude gain")

    @property
    def n_paths(self) -> int:
        return len(self.aods_deg)

    @property
    def strongest_aod_deg(self) -> float:
        return float(self.aods_deg[self.strongest_index])

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

    return ChannelRealization(aods, gains, strongest_index=0)


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

