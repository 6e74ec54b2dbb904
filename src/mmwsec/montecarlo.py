"""Experiment harness: figure presets, sweeps, ensemble averaging, tables.

Each sweep point simulates a block of symbols per (strategy, channel
realization) with vectorized kernels, estimates both observers' SNRs and
averages the clamped secrecy rate over the channel ensemble.  Random
streams derive from (base seed, role, strategy, axis index, ensemble
index) so results are reproducible and schedule-independent.

Noise floors are anchored per link-quality convention: the receiver's
noise power is set from its strategy's reference channel gain (strongest
path for the static beams, all-path mean for the randomized techniques)
so that the configured rho_R measures the quality of the link actually
used.  The eavesdropper carries unit channel gain and noise 1/rho_E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (
    alignment_mixture_snr,
    db_to_linear,
    estimate_joint_moments,
    joint_sidelobe_aods,
    linear_to_db,
    location_mixture_snr,
    receiver_snr,
    secrecy_rate,
    snr_e_joint,
    snr_e_random_path,
    snr_r_joint,
    snr_r_random_path,
    SnrPair,
)
from .array_geometry import ArrayConfig, array_response, cos_aligned, steering_phases
from .channel import ChannelRealization, channel_stats, sample_channel
from .strategies import StrategyKind, StrategyParams, secondary_pool

DEFAULT_AXIS_VALUES = {
    "theta_e_deg": tuple(float(t) for t in range(1, 181)),
    "rho_e_db": tuple(float(r) for r in np.arange(0.0, 20.01, 2.5)),
    "n_antennas": (16.0, 32.0, 64.0),
    "n_paths": (4.0, 8.0, 12.0),
}
AXES = tuple(DEFAULT_AXIS_VALUES)

# the strategies with closed forms (`compare_analytic`)
ANALYTIC_STRATEGIES = (StrategyKind.RANDOM_PATH, StrategyKind.JOINT_PATH_ANTENNA)


@dataclass(frozen=True)
class SweepSpec:
    strategies: tuple[StrategyKind, ...]
    axis: str
    axis_values: tuple[float, ...]
    n_antennas: int = 32
    n_paths: int = 12
    m_main: int | None = None  # None -> N // 2
    l_s: int = 5
    rho_r_db: float = 10.0
    rho_e_db: float = 15.0
    theta_r_deg: float = 40.0
    theta_e_deg: float = 40.0
    spacing_over_wavelength: float = 0.5
    symbols_per_point: int = 10_000
    ensemble: int = 200
    base_seed: int = 0
    curve_param: str | None = None  # metadata for multi-curve figures
    curve_values: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.strategies:
            raise ValueError("strategy set must be nonempty")
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
        if not self.axis_values:
            raise ValueError("axis values must be nonempty")
        if self.symbols_per_point < 100:
            raise ValueError("symbols_per_point must be >= 100")
        if self.ensemble < 1:
            raise ValueError("ensemble must be >= 1")
        # every angle the sweep evaluates; only cos(theta) enters the model,
        # so an angle outside [1, 180] would silently alias another one
        theta_e = self.axis_values if self.axis == "theta_e_deg" else (self.theta_e_deg,)
        for name, values in (("theta-r", (self.theta_r_deg,)), ("theta-e", theta_e)):
            bad = ", ".join(f"{v:g}" for v in values if not 1 <= v <= 180)
            if bad:
                raise ValueError(f"{name} must lie in [1, 180], got {bad}")

    def resolved_m(self, n_antennas: int) -> int:
        return self.m_main if self.m_main is not None else n_antennas // 2


@dataclass(frozen=True)
class SweepRow:
    strategy: StrategyKind
    axis: str
    axis_value: float
    snr_r_db: float | None
    snr_e_db: float | None
    rate_bps_hz: float | None
    stderr: float | None
    status: str  # "ok" | "inapplicable"


@dataclass
class ResultTable:
    rows: list[SweepRow]
    spec: SweepSpec

    CSV_HEADER = "strategy,axis,axis_value,snr_r_db,snr_e_db,secrecy_rate_bps_hz,stderr,status"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            fields = [
                r.strategy.value,
                r.axis,
                f"{r.axis_value:g}",
                "" if r.snr_r_db is None else f"{r.snr_r_db:.6f}",
                "" if r.snr_e_db is None else f"{r.snr_e_db:.6f}",
                "" if r.rate_bps_hz is None else f"{r.rate_bps_hz:.6f}",
                "" if r.stderr is None else f"{r.stderr:.6f}",
                r.status,
            ]
            lines.append(",".join(fields))
        return "\n".join(lines) + "\n"


def figure_preset(fig_id: int) -> SweepSpec:
    """Preset sweeps matching the benchmark figure setups.

    1: secrecy vs eavesdropper angle, N=32, path-count curves {4, 8, 12}.
    2: secrecy vs eavesdropper angle, L=12, antenna-count curves {16, 32, 64}.
    3: secrecy vs rho_E at theta_E = 40 deg (on the main path), N=32, L=12.
    4: secrecy vs rho_E at theta_E = 55 deg (off the main path), N=32, L=12.
    """
    all_strats = tuple(StrategyKind)
    theta_axis = DEFAULT_AXIS_VALUES["theta_e_deg"]
    rho_axis = DEFAULT_AXIS_VALUES["rho_e_db"]
    if fig_id == 1:
        return SweepSpec(
            strategies=all_strats,
            axis="theta_e_deg",
            axis_values=theta_axis,
            n_antennas=32,
            n_paths=12,
            curve_param="n_paths",
            curve_values=(4.0, 8.0, 12.0),
        )
    if fig_id == 2:
        return SweepSpec(
            strategies=all_strats,
            axis="theta_e_deg",
            axis_values=theta_axis,
            n_paths=12,
            curve_param="n_antennas",
            curve_values=(16.0, 32.0, 64.0),
        )
    if fig_id == 3:
        return SweepSpec(
            strategies=all_strats,
            axis="rho_e_db",
            axis_values=rho_axis,
            theta_e_deg=40.0,
        )
    if fig_id == 4:
        return SweepSpec(
            strategies=all_strats,
            axis="rho_e_db",
            axis_values=rho_axis,
            theta_e_deg=55.0,
        )
    raise ValueError(f"unknown figure id {fig_id}; expected 1-4")


# ---------------------------------------------------------------------------
# vectorized symbol-block kernels


def _random_subsets(rng, K, n, m) -> np.ndarray:
    """K uniformly random m-subsets of range(n) as a boolean (K, n) mask."""
    order = np.argsort(rng.random((K, n)), axis=1)
    mask = np.zeros((K, n), dtype=bool)
    np.put_along_axis(mask, order[:, :m], True, axis=1)
    return mask


@dataclass
class SymbolStreams:
    """Vectorized per-symbol gains for one (channel, strategy) block.

    recv holds the receiver's schedule-known coherent gains (K,); eaves
    holds the eavesdropper gains at each requested observation angle
    (T, K); aligned marks, per angle, the symbols that steer a beam at a
    path sharing that angle's cosine (T, K).
    """

    recv: np.ndarray
    eaves: np.ndarray
    aligned: np.ndarray


def _draw_weights(
    ch: ChannelRealization, cfg: ArrayConfig, kind: StrategyKind, m_main: int, l_s: int, K: int, rng
):
    """Draw the weights K symbols of one strategy send.

    Returns (W, cand, steer, row): the R distinct unit-power weight rows
    W (R, n), the candidate path indices cand, the candidates each row
    steers as indices into cand (R, S), and the row each symbol sends (K,).
    """
    n, L = cfg.n_antennas, ch.n_paths
    if kind is StrategyKind.CONVENTIONAL:  # one static beam at the strongest path
        cand, steer = np.array([ch.strongest_index]), np.zeros((1, 1), dtype=int)
        W = array_response(cfg, ch.strongest_aod_deg)[None, :]
        row = np.zeros(K, dtype=int)
    elif kind is StrategyKind.SWITCHED_ARRAY:  # a fresh m-subset of that beam per symbol
        if not 1 <= m_main <= n:
            raise ValueError(f"subset size m must lie in [1, {n}], got {m_main}")
        cand, steer = np.array([ch.strongest_index]), np.zeros((K, 1), dtype=int)
        beam = np.exp(1j * steering_phases(cfg, ch.strongest_aod_deg)) / math.sqrt(m_main)
        W = _random_subsets(rng, K, n, m_main) * beam
        row = np.arange(K)
    elif kind is StrategyKind.RANDOM_PATH:  # the full beam at a uniformly drawn path
        cand, steer = np.arange(L), np.arange(L)[:, None]
        W = array_response(cfg, ch.aods_deg[:, None])
        row = rng.integers(L, size=K)
    elif kind is StrategyKind.JOINT_PATH_ANTENNA:  # m-subset at the strongest, rest at a pool path
        StrategyParams(m_main, l_s).validate(n, L)
        cand = np.array([ch.strongest_index, *secondary_pool(ch, l_s)])
        sec = 1 + rng.integers(cand.size - 1, size=K)
        beams = array_response(cfg, ch.aods_deg[cand][:, None])
        W = np.where(_random_subsets(rng, K, n, m_main), beams[0], beams[sec])
        steer, row = np.stack([np.zeros(K, dtype=int), sec], axis=1), np.arange(K)
    else:
        raise ValueError(f"unknown strategy {kind}")
    return W, cand, steer, row


def simulate_streams(
    ch: ChannelRealization,
    cfg: ArrayConfig,
    kind: StrategyKind,
    m_main: int,
    l_s: int,
    theta_e_list,
    K: int,
    rng: np.random.Generator,
) -> SymbolStreams:
    """Simulate K symbols of one strategy against many observation angles.

    Every strategy sends, per symbol, one of R distinct unit-power weight
    rows W and steers a subset of its candidate paths (`_draw_weights`).
    One observation law serves every observer: G = sqrt(N/L) conj(A) W^T,
    with A the array responses at the observation angles and the candidate
    path angles.  An eavesdropper (unit channel gain) gets G at its angle,
    sqrt(N/L) a(theta_E)^H f; the receiver gets the schedule-known coherent
    gain, the sum of conj(alpha_l) G over the steered paths only (leakage
    from unsteered paths is excluded).
    """
    n, L = cfg.n_antennas, ch.n_paths
    thetas = np.atleast_1d(np.asarray(theta_e_list, dtype=float))
    T = thetas.size
    W, cand, steer, row = _draw_weights(ch, cfg, kind, m_main, l_s, K, rng)
    cand_aods = ch.aods_deg[cand]
    A = array_response(cfg, np.concatenate([thetas, cand_aods])[:, None])
    G = math.sqrt(n / L) * (np.conj(A) @ W.T)  # (T + candidates, R)
    own = G[T + steer, np.arange(len(W))[:, None]]  # each row toward the paths it steers
    recv = (np.conj(ch.gains[cand][steer]) * own).sum(axis=1)
    aligned = cos_aligned(thetas[:, None], cand_aods)[:, steer].any(axis=2)  # (T, R)
    return SymbolStreams(recv[row], G[:T, row], aligned[:, row])


# ---------------------------------------------------------------------------
# sweep driver


def receiver_reference_gain(ch: ChannelRealization, kind: StrategyKind) -> float:
    """Reference channel gain anchoring the receiver's noise floor.

    The static beams ride the strongest path, so rho_R measures that
    link; the randomized techniques spread over the path set, so rho_R
    measures the all-path mean gain as in the path-hopping SNR formula.
    """
    if kind in (StrategyKind.CONVENTIONAL, StrategyKind.SWITCHED_ARRAY):
        return abs(ch.paths[ch.strongest_index].gain)
    return channel_stats(ch).mean_gain


def _channel_rng(spec: SweepSpec, n_paths: int, ens: int) -> np.random.Generator:
    # axis-independent for N / theta / rho axes so ensemble members pair up
    ss = np.random.SeedSequence([spec.base_seed, 0xC0FFEE, n_paths, ens])
    return np.random.default_rng(ss)


def _plan_rng(spec: SweepSpec, strat: StrategyKind, axis_idx: int, ens: int) -> np.random.Generator:
    ss = np.random.SeedSequence(
        [spec.base_seed, 0xBEEF, list(StrategyKind).index(strat), axis_idx, ens]
    )
    return np.random.default_rng(ss)


@dataclass(frozen=True)
class _Point:
    """One applicable (strategy, axis value) point; rho_r and rho_e are linear."""

    strategy: StrategyKind
    cfg: ArrayConfig
    n_paths: int
    m_main: int
    l_s: int
    theta_e_deg: float
    rho_r: float
    rho_e: float


def _strategy_applicable(kind: StrategyKind, spec: SweepSpec, n_antennas: int, n_paths: int):
    if kind is StrategyKind.SWITCHED_ARRAY:
        return 1 <= spec.resolved_m(n_antennas) <= n_antennas
    if kind is StrategyKind.JOINT_PATH_ANTENNA:
        try:  # also rules out L < 2, since 2 <= l_s <= L
            StrategyParams(spec.resolved_m(n_antennas), min(spec.l_s, n_paths)).validate(
                n_antennas, n_paths
            )
        except ValueError:
            return False
    return True


def _sweep(spec: SweepSpec, evaluate) -> ResultTable:
    """The sweep loop shared by `run_sweep` and `compare_analytic`.

    evaluate(point, ch, rng) returns one channel's linear (snr_r, snr_e);
    rng is the plan stream of that (strategy, axis value, channel), which
    only the Monte Carlo evaluation reads.
    """
    rows = []
    rho_r = db_to_linear(spec.rho_r_db)
    for strat in spec.strategies:
        for axis_idx, value in enumerate(spec.axis_values):
            p = {
                "n_antennas": spec.n_antennas,
                "n_paths": spec.n_paths,
                "theta_e_deg": spec.theta_e_deg,
                "rho_e_db": spec.rho_e_db,
            }
            p[spec.axis] = int(value) if spec.axis in ("n_antennas", "n_paths") else float(value)
            n_ant, n_pth = p["n_antennas"], p["n_paths"]
            if not _strategy_applicable(strat, spec, n_ant, n_pth):
                rows.append(
                    SweepRow(strat, spec.axis, float(value), None, None, None, None, "inapplicable")
                )
                continue
            pt = _Point(
                strat,
                ArrayConfig(n_ant, spec.spacing_over_wavelength),
                n_pth,
                spec.resolved_m(n_ant),
                min(spec.l_s, n_pth),
                p["theta_e_deg"],
                rho_r,
                db_to_linear(p["rho_e_db"]),
            )
            rates = np.empty(spec.ensemble)
            snr_r_acc = np.empty(spec.ensemble)
            snr_e_acc = np.empty(spec.ensemble)
            for ens in range(spec.ensemble):
                ch = sample_channel(n_pth, spec.theta_r_deg, _channel_rng(spec, n_pth, ens))
                snr_r, snr_e = evaluate(pt, ch, _plan_rng(spec, strat, axis_idx, ens))
                rates[ens] = secrecy_rate(SnrPair(snr_r, snr_e))
                snr_r_acc[ens] = snr_r
                snr_e_acc[ens] = snr_e
            stderr = (
                float(rates.std(ddof=1) / math.sqrt(spec.ensemble))
                if spec.ensemble > 1
                else 0.0
            )
            rows.append(
                SweepRow(
                    strat,
                    spec.axis,
                    float(value),
                    linear_to_db(float(snr_r_acc.mean())),
                    linear_to_db(float(snr_e_acc.mean())),
                    float(rates.mean()),
                    stderr,
                    "ok",
                )
            )
    rows.sort(key=lambda r: (r.strategy.value, r.axis_value))
    return ResultTable(rows=rows, spec=spec)


def run_sweep(spec: SweepSpec) -> ResultTable:
    """Monte-Carlo evaluation of every (strategy, axis value) sweep point.

    For each point the clamped secrecy rate is averaged over the channel
    ensemble; rows carry the ensemble means (SNRs in dB) and the standard
    error of the rate.  Infeasible combinations yield rows flagged
    inapplicable.
    """

    def evaluate(pt: _Point, ch: ChannelRealization, rng: np.random.Generator):
        # Under the pessimistic random-location model, an eavesdropper
        # sitting on a transmit angle of the joint scheme mixes mainlobe
        # interception (probability 2/L) with sidelobe observation at
        # the non-transmitted path angles; those angles get their own
        # simulated gain streams.
        joint_mix, theta_list = False, [pt.theta_e_deg]
        if pt.strategy is StrategyKind.JOINT_PATH_ANTENNA:
            joint_mix, side = joint_sidelobe_aods(ch, pt.l_s, pt.theta_e_deg)
            if joint_mix:
                theta_list += side
        streams = simulate_streams(
            ch, pt.cfg, pt.strategy, pt.m_main, pt.l_s, theta_list, spec.symbols_per_point, rng
        )
        sigma_r = receiver_reference_gain(ch, pt.strategy) ** 2 / pt.rho_r
        snr_r = receiver_snr(streams.recv, sigma_r)
        if joint_mix:
            aligned = streams.aligned[0]
            snr_e = location_mixture_snr(
                streams.eaves[0][aligned], list(streams.eaves[1:]), pt.n_paths, 1.0 / pt.rho_e
            )
        else:
            snr_e = alignment_mixture_snr(streams.eaves[0], streams.aligned[0], 1.0 / pt.rho_e)
        return snr_r, snr_e

    return _sweep(spec, evaluate)


def compare_analytic(spec: SweepSpec) -> ResultTable:
    """Closed-form rates on the same grid, ensemble-averaged over channels.

    Supports the two randomized techniques only.  The beta moments of the
    joint technique are exact per channel (finite-population correction
    over the antenna subset, see `estimate_joint_moments`), so the column
    depends on the seed only through the channel draws.  The
    random-path eavesdropper SNR assumes an eavesdropper on a path angle
    (`snr_e_random_path` always carries the 1/L mainlobe term), so off the
    channel's path angles its column is not comparable to `run_sweep`'s,
    which intercepts the mainlobe only where theta_E is a path angle.
    """
    for strat in spec.strategies:
        if strat not in ANALYTIC_STRATEGIES:
            raise ValueError(f"compare_analytic supports {ANALYTIC_STRATEGIES}, got {strat}")

    def evaluate(pt: _Point, ch: ChannelRealization, _rng: np.random.Generator):
        n_ant = pt.cfg.n_antennas
        if pt.strategy is StrategyKind.RANDOM_PATH:
            snr_r = snr_r_random_path(n_ant, pt.n_paths, pt.rho_r)
            snr_e = snr_e_random_path(
                n_ant, pt.n_paths, pt.rho_e, pt.theta_e_deg, ch.aods_deg, pt.cfg
            )
            return snr_r, snr_e
        stats = channel_stats(ch)
        moments = estimate_joint_moments(
            ch, pt.cfg, StrategyParams(pt.m_main, pt.l_s), pt.theta_e_deg
        )
        snr_r = snr_r_joint(
            n_ant,
            pt.n_paths,
            pt.m_main,
            abs(ch.paths[ch.strongest_index].gain),
            stats.mean_gain_excl_strongest,
            abs(moments.beta_r_mean) ** 2,
            stats.mean_gain**2 / pt.rho_r,
        )
        snr_e = snr_e_joint(
            n_ant,
            pt.n_paths,
            pt.m_main,
            pt.rho_e,
            moments.beta_e_hat_mean_sq,
            moments.beta_e_mean_sq,
            moments.beta_e_var,
        )
        return snr_r, snr_e

    return _sweep(spec, evaluate)
