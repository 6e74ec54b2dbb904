"""Per-symbol beamforming plans for the four transmission strategies.

Conventional and SwitchedArray always aim at the strongest path.
RandomPath hops uniformly over all L paths each symbol.  JointPathAntenna
splits the array between the strongest path and a random secondary path
drawn from the strongest-L_S candidate pool, with fresh antenna subsets
every symbol.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .array_geometry import ArrayConfig, array_response, steering_phases
from .channel import ChannelRealization, top_k_paths


class StrategyKind(enum.Enum):
    CONVENTIONAL = "conventional"
    SWITCHED_ARRAY = "switched"
    RANDOM_PATH = "random-path"
    JOINT_PATH_ANTENNA = "joint"


@dataclass(frozen=True)
class StrategyParams:
    """Knobs of the joint technique: main-path antenna count and candidate pool size."""

    m_main: int
    l_s: int

    def validate(self, n_antennas: int, n_paths: int):
        # m_main == n_antennas is allowed as a degenerate boundary (empty
        # secondary set, weights collapse to the conventional plan)
        if not 1 <= self.m_main <= n_antennas:
            raise ValueError(
                f"m_main must lie in [1, {n_antennas}], got {self.m_main}"
            )
        if not 2 <= self.l_s <= n_paths:
            raise ValueError(
                f"l_s must lie in [2, {n_paths}], got {self.l_s}: the pool of the l_s "
                "strongest paths includes the strongest, which is never a secondary path"
            )


@dataclass(frozen=True)
class SymbolPlan:
    """One symbol's transmit configuration.

    `weights` is the length-N complex beamforming vector.  `main_set` and
    `secondary_set` are antenna index arrays; for single-beam strategies
    the secondary fields are empty/None and main_set covers the array
    (the active subset, for SwitchedArray).
    """

    kind: StrategyKind
    weights: np.ndarray
    main_aod_deg: float
    main_set: np.ndarray
    n_paths: int
    main_path_index: int
    secondary_aod_deg: float | None = None
    secondary_set: np.ndarray | None = None
    secondary_path_index: int | None = None


def conventional_plan(ch: ChannelRealization, cfg: ArrayConfig) -> SymbolPlan:
    """All antennas steered at the strongest path; identical every symbol."""
    theta_s = ch.strongest_aod_deg
    return SymbolPlan(
        kind=StrategyKind.CONVENTIONAL,
        weights=array_response(cfg, theta_s),
        main_aod_deg=theta_s,
        main_set=np.arange(cfg.n_antennas),
        n_paths=ch.n_paths,
        main_path_index=ch.strongest_index,
    )


def switched_array_plan(
    ch: ChannelRealization, cfg: ArrayConfig, m: int, rng: np.random.Generator
) -> SymbolPlan:
    """A random m-subset of antennas steered at the strongest path, rest off.

    Active elements carry magnitude 1/sqrt(m) so total transmit power stays
    unit across strategies.
    """
    n = cfg.n_antennas
    if not 1 <= m <= n:
        raise ValueError(f"subset size m must lie in [1, {n}], got {m}")
    theta_s = ch.strongest_aod_deg
    active = np.sort(rng.choice(n, size=m, replace=False))
    w = np.zeros(n, dtype=complex)
    w[active] = np.exp(1j * steering_phases(cfg, theta_s)[active]) / np.sqrt(m)
    return SymbolPlan(
        kind=StrategyKind.SWITCHED_ARRAY,
        weights=w,
        main_aod_deg=theta_s,
        main_set=active,
        n_paths=ch.n_paths,
        main_path_index=ch.strongest_index,
    )


def random_path_plan(
    ch: ChannelRealization, cfg: ArrayConfig, rng: np.random.Generator
) -> SymbolPlan:
    """Steer the whole array at one path drawn uniformly from all L paths."""
    l = int(rng.integers(ch.n_paths))
    theta_l = ch.paths[l].aod_deg
    return SymbolPlan(
        kind=StrategyKind.RANDOM_PATH,
        weights=array_response(cfg, theta_l),
        main_aod_deg=theta_l,
        main_set=np.arange(cfg.n_antennas),
        n_paths=ch.n_paths,
        main_path_index=l,
    )


def secondary_pool(ch: ChannelRealization, l_s: int) -> list[int]:
    """Candidate secondary paths: the top-l_s strongest excluding the strongest."""
    return [i for i in top_k_paths(ch, l_s) if i != ch.strongest_index]


def joint_plan(
    ch: ChannelRealization,
    cfg: ArrayConfig,
    params: StrategyParams,
    rng: np.random.Generator,
) -> SymbolPlan:
    """Split the array between the strongest path and a random secondary path.

    A uniformly random m_main-subset aims at the strongest path; the
    complement aims at a secondary path drawn uniformly from the top-l_s
    pool (strongest excluded).  Every entry keeps magnitude 1/sqrt(N).
    """
    if ch.n_paths < 2:
        raise ValueError("joint path-and-antenna selection requires L >= 2 paths")
    params.validate(cfg.n_antennas, ch.n_paths)
    n = cfg.n_antennas
    pool = secondary_pool(ch, params.l_s)
    sec = pool[int(rng.integers(len(pool)))]
    theta_s = ch.strongest_aod_deg
    theta_i = ch.paths[sec].aod_deg

    perm = rng.permutation(n)
    main_set = np.sort(perm[: params.m_main])
    sec_set = np.sort(perm[params.m_main :])

    w = array_response(cfg, theta_i)
    w[main_set] = array_response(cfg, theta_s)[main_set]
    return SymbolPlan(
        kind=StrategyKind.JOINT_PATH_ANTENNA,
        weights=w,
        main_aod_deg=theta_s,
        main_set=main_set,
        n_paths=ch.n_paths,
        main_path_index=ch.strongest_index,
        secondary_aod_deg=theta_i,
        secondary_set=sec_set,
        secondary_path_index=sec,
    )
