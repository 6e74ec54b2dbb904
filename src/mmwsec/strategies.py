"""The four transmission strategies, the check of the joint technique's
knobs and its secondary-path candidate pool.

Conventional and SwitchedArray always aim at the strongest path.
RandomPath hops uniformly over all L paths each symbol.  JointPathAntenna
splits the array between the strongest path and a random secondary path
drawn from the strongest-L_S candidate pool, with fresh antenna subsets
every symbol.  Each strategy's law on one channel is one record
(`montecarlo._beams`); which strategies are masked is `StrategyKind.masked`.
"""

from __future__ import annotations

import enum

from .channel import ChannelRealization, top_k_paths


class StrategyKind(enum.Enum):
    CONVENTIONAL = "conventional"
    SWITCHED_ARRAY = "switched"
    RANDOM_PATH = "random-path"
    JOINT_PATH_ANTENNA = "joint"

    @property
    def masked(self) -> bool:
        """Whether each symbol switches a fresh m-subset of the antennas to the main beam."""
        return self in (StrategyKind.SWITCHED_ARRAY, StrategyKind.JOINT_PATH_ANTENNA)


def check_joint(m_main: int, l_s: int, n_antennas: int, n_paths: int):
    """Raise ValueError unless the joint technique's knobs fit the array and
    channel: main-path antenna count m_main and candidate pool size l_s."""
    # m_main == n_antennas is allowed as a degenerate boundary (empty
    # secondary set, weights collapse to the conventional beam)
    if not 1 <= m_main <= n_antennas:
        raise ValueError(f"m_main must lie in [1, {n_antennas}], got {m_main}")
    if not 2 <= l_s <= n_paths:
        raise ValueError(
            f"l_s must lie in [2, {n_paths}], got {l_s}: the pool of the l_s "
            "strongest paths includes the strongest, which is never a secondary path"
        )


def secondary_pool(ch: ChannelRealization, l_s: int) -> list[int]:
    """Candidate secondary paths: the top-l_s strongest excluding the strongest."""
    return [i for i in top_k_paths(ch, l_s) if i != ch.strongest_index]
