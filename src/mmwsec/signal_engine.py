"""Per-symbol received gains and artificial-noise terms.

The legitimate channel is the full L-path geometric model; an
eavesdropper is modeled as a single-path observer at its own angle with
the same sqrt(N/L) per-path normalization, parameterized by its
gain-to-noise ratio rather than a sampled gain.

Two views of every received gain exist side by side: the direct inner
product h^H f, and the per-path decomposition into coherent terms plus
the interference sums beta_R / beta_E / beta_E_hat.  The decomposed forms
are exact restrictions of the direct product to the steered paths, which
the tests exploit as an equivalence oracle.  This per-symbol engine is
also the reference for `montecarlo.simulate_streams`, which evaluates the
same observation law, sqrt(N/L) a(theta)^H f, for a whole symbol block
in one matrix product and shares its cosine alignment test; the closed
forms in `analysis` share its other helpers (centered indices, gamma,
the kernel B).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .array_geometry import ArrayConfig, beam_coupling
from .channel import ChannelRealization
from .strategies import (
    StrategyKind,
    StrategyParams,
    SymbolPlan,
    conventional_plan,
    joint_plan,
    random_path_plan,
    switched_array_plan,
)

COS_ALIGN_TOL = 1e-12


class ObserverKind(enum.Enum):
    RECEIVER = "receiver"
    EAVESDROPPER = "eavesdropper"


@dataclass(frozen=True)
class ObserverSpec:
    kind: ObserverKind
    aod_deg: float

    def __post_init__(self):
        if not 1.0 <= self.aod_deg <= 180.0:
            raise ValueError(f"aod_deg must lie in [1, 180], got {self.aod_deg}")


def cos_aligned(theta_a_deg, theta_b_deg):
    """Alignment event: the two angles share a cosine within tolerance;
    array angles broadcast to a boolean array."""
    return abs(np.cos(np.deg2rad(theta_a_deg)) - np.cos(np.deg2rad(theta_b_deg))) < COS_ALIGN_TOL


def centered_indices(n: int) -> np.ndarray:
    """Element positions (N-1)/2 - n about the array center, n = 0..N-1."""
    return (n - 1) / 2.0 - np.arange(n)


def phase_diff(theta_x_deg, theta_e_deg, cfg: ArrayConfig):
    """gamma(theta_x, theta_e) = 2 pi (d/lambda) (cos theta_x - cos theta_e);
    either angle may be an array."""
    return (
        2.0
        * np.pi
        * cfg.spacing_over_wavelength
        * (np.cos(np.deg2rad(theta_x_deg)) - np.cos(np.deg2rad(theta_e_deg)))
    )


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


def path_term(ch: ChannelRealization, plan: SymbolPlan, cfg: ArrayConfig, path_index: int) -> complex:
    """Contribution of one channel path to h^H f: sqrt(N/L) conj(alpha_l) a(theta_l)^H f."""
    p = ch.paths[path_index]
    scale = np.sqrt(cfg.n_antennas / ch.n_paths)
    return scale * np.conj(p.gain) * beam_coupling(cfg, p.aod_deg, plan.weights)


def receiver_gain(ch: ChannelRealization, plan: SymbolPlan, cfg: ArrayConfig) -> complex:
    """Direct h^H f over the full L-path channel."""
    return complex(sum(path_term(ch, plan, cfg, l) for l in range(ch.n_paths)))


def coherent_receiver_gain(ch: ChannelRealization, plan: SymbolPlan, cfg: ArrayConfig) -> complex:
    """The schedule-known useful component of the receiver's gain.

    This is the effective gain of the steered path(s) only: the receiver
    knows the channel and the per-symbol transmit schedule, so every term
    here is decodable side information rather than noise.  Cross-path
    leakage from unsteered paths is excluded, matching the decomposed
    received-signal forms.
    """
    if plan.kind is StrategyKind.JOINT_PATH_ANTENNA:
        return complex(
            path_term(ch, plan, cfg, plan.main_path_index)
            + path_term(ch, plan, cfg, plan.secondary_path_index)
        )
    return path_term(ch, plan, cfg, plan.main_path_index)


def eavesdropper_gain(obs: ObserverSpec, plan: SymbolPlan, cfg: ArrayConfig, alpha_e: complex) -> complex:
    """Single-path observer gain sqrt(N/L) conj(alpha_e) a(theta_E)^H f."""
    if obs.kind is not ObserverKind.EAVESDROPPER:
        raise ValueError("eavesdropper_gain requires an Eavesdropper observer")
    scale = np.sqrt(cfg.n_antennas / plan.n_paths)
    return complex(scale * np.conj(alpha_e) * beam_coupling(cfg, obs.aod_deg, plan.weights))


def _require_joint(plan: SymbolPlan):
    if plan.kind is not StrategyKind.JOINT_PATH_ANTENNA:
        raise ValueError(f"operation requires a joint plan, got {plan.kind}")


def beta_r_term(ch: ChannelRealization, plan: SymbolPlan, cfg: ArrayConfig) -> complex:
    """Receiver-side cross-beam interference of the joint technique.

    sum over the secondary set of conj(alpha_S) e^{j c_n (gamma of
    secondary vs main)} plus the mirrored main-set sum with
    conj(alpha_i).  Precomputable at the receiver from its channel and
    schedule knowledge.
    """
    _require_joint(plan)
    c = centered_indices(cfg.n_antennas)
    alpha_s = ch.paths[plan.main_path_index].gain
    alpha_i = ch.paths[plan.secondary_path_index].gain
    g_is = phase_diff(plan.secondary_aod_deg, plan.main_aod_deg, cfg)
    g_si = phase_diff(plan.main_aod_deg, plan.secondary_aod_deg, cfg)
    term_sec = np.conj(alpha_s) * np.exp(1j * c[plan.secondary_set] * g_is).sum()
    term_main = np.conj(alpha_i) * np.exp(1j * c[plan.main_set] * g_si).sum()
    return complex(term_sec + term_main)


def beta_e_term(plan: SymbolPlan, theta_e_deg, cfg: ArrayConfig) -> complex:
    """Sidelobe artificial-noise term of the joint technique (scaled by 1/sqrt(LN)).

    The 1/sqrt(LN) factor applies to both subset sums so that
    conj(alpha_e) * beta_e_term reproduces the direct single-path observer
    gain exactly.
    """
    _require_joint(plan)
    c = centered_indices(cfg.n_antennas)
    g_se = phase_diff(plan.main_aod_deg, theta_e_deg, cfg)
    g_ie = phase_diff(plan.secondary_aod_deg, theta_e_deg, cfg)
    total = (
        np.exp(1j * c[plan.main_set] * g_se).sum()
        + np.exp(1j * c[plan.secondary_set] * g_ie).sum()
    )
    return complex(total / np.sqrt(plan.n_paths * cfg.n_antennas))


def beta_e_hat_term(plan: SymbolPlan, theta_e_deg, cfg: ArrayConfig) -> complex:
    """Mainlobe artificial-noise term (unscaled): constant part plus a random
    subset sum.

    Valid only when the observation angle aligns with the main or the
    secondary steering angle.  The random sum carries the +j sign that
    makes conj(alpha_e) * beta_e_hat / sqrt(LN) equal the direct observer
    gain.
    """
    _require_joint(plan)
    c = centered_indices(cfg.n_antennas)
    m = len(plan.main_set)
    n = cfg.n_antennas
    if cos_aligned(theta_e_deg, plan.main_aod_deg):
        g = phase_diff(plan.secondary_aod_deg, theta_e_deg, cfg)
        return complex(m + np.exp(1j * c[plan.secondary_set] * g).sum())
    if cos_aligned(theta_e_deg, plan.secondary_aod_deg):
        g = phase_diff(plan.main_aod_deg, theta_e_deg, cfg)
        return complex((n - m) + np.exp(1j * c[plan.main_set] * g).sum())
    raise ValueError(
        "beta_e_hat_term requires the observation angle to align with the "
        "main or secondary steering angle"
    )


def make_plan(
    ch: ChannelRealization,
    cfg: ArrayConfig,
    kind: StrategyKind,
    params: StrategyParams | None,
    rng: np.random.Generator,
) -> SymbolPlan:
    """Draw one symbol's plan for any strategy (params used where relevant)."""
    if kind is StrategyKind.CONVENTIONAL:
        return conventional_plan(ch, cfg)
    if kind is StrategyKind.SWITCHED_ARRAY:
        m = params.m_main if params is not None else cfg.n_antennas // 2
        return switched_array_plan(ch, cfg, m, rng)
    if kind is StrategyKind.RANDOM_PATH:
        return random_path_plan(ch, cfg, rng)
    if kind is StrategyKind.JOINT_PATH_ANTENNA:
        if params is None:
            raise ValueError("joint strategy requires StrategyParams")
        return joint_plan(ch, cfg, params, rng)
    raise ValueError(f"unknown strategy {kind}")


@dataclass
class SimulationResult:
    """Plan sequence plus per-observer gains (observers, K) for one symbol block."""

    plans: list[SymbolPlan]
    gains: np.ndarray


def simulate_symbols(
    ch: ChannelRealization,
    cfg: ArrayConfig,
    kind: StrategyKind,
    params: StrategyParams | None,
    observers: list[ObserverSpec],
    K: int,
    rng: np.random.Generator,
) -> SimulationResult:
    """Simulate K symbols: one plan per symbol feeds every observer.

    Receiver observers record the schedule-known coherent gain;
    eavesdropper observers record the single-path observer gain with unit
    channel gain (their level is carried entirely by rho_E).
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    plans = [make_plan(ch, cfg, kind, params, rng) for _ in range(K)]
    gains = np.empty((len(observers), K), dtype=complex)
    for i, obs in enumerate(observers):
        for k, plan in enumerate(plans):
            if obs.kind is ObserverKind.RECEIVER:
                gains[i, k] = coherent_receiver_gain(ch, plan, cfg)
            else:
                gains[i, k] = eavesdropper_gain(obs, plan, cfg, alpha_e=1.0 + 0.0j)
    return SimulationResult(plans=plans, gains=gains)
