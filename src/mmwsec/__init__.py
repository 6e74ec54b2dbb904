"""Link-level physical-layer-security simulator for multipath mmWave beams."""

__version__ = "0.1.0"

from .array_geometry import ArrayConfig, array_response, steering_phase
from .channel import ChannelRealization, channel_stats, sample_channel, top_k_paths
from .strategies import StrategyKind, StrategyParams
from .analysis import SnrPair, dirichlet_B, secrecy_rate
from .montecarlo import ResultTable, SweepSpec, figure_preset, run_sweep
