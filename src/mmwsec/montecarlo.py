"""Experiment harness: figure presets, sweeps, ensemble averaging, tables.

A sweep (`SweepSpec`) is one curve: one table of (strategy, axis value)
rows.  A figure preset is a family of curves, one run spec per curve
(`figure_preset`).  Each sweep point simulates a block of symbols per
(strategy, channel realization), estimates both observers' SNRs and
averages the clamped secrecy rate over the channel ensemble.  Random
streams are keyed so results are reproducible and schedule-independent:

- a channel by (base seed, role, path count, ensemble index), so a sweep
  draws each one once and shares it across strategies and axis points;
- a strategy's beam counts by (base seed, role, strategy, i, ensemble
  index), i the axis index at which the strategy's kernel block was built
  (`KernelBlock`, below): the rho_E points of one channel share that
  block and its one draw of the counts, and on the other axes i is the
  point's own index;
- the antenna subsets of the switched and joint schemes by (base seed,
  role, j, ensemble index), j the first axis index with the point's
  array size N, not by strategy or axis point: at one ensemble index
  every point of one N sends the same m-subset per symbol
  (`SubsetBlock`), so schemes and points compare on common random
  numbers, and no row depends on which other strategies a sweep requests.

A strategy's law on one channel is one record (`Beams`, built by
`_beams`): the beams a symbol may send and the probability p of each.
The receiver knows the schedule, so a block's symbols are exchangeable:
only how many send each beam is drawn (`_draw_weights`), K p when p is
one-hot and else multinomial(K, p), then a masked strategy's antenna
subsets; `simulate_streams` hands the estimators per-beam moments
(`analysis.BeamMoments`), not per-symbol gains.  The rho_E points of one
channel share one `KernelBlock` per strategy (`_sweep`): its operator,
its one draw and reduction, and its pools of each eavesdropper group
(`SymbolStreams.eve`), so a rho_E point after the first pays only for
its noise floor.

Noise floors are anchored per link-quality convention: the receiver's
noise power is set from its strategy's reference channel gain (the
strongest path, or the all-path mean: `receiver_reference_gain`) so that
the configured rho_R measures the quality of the link actually used.  The
eavesdropper carries unit channel gain and noise 1/rho_E.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .analysis import (
    alignment_mixture_snr,
    BeamMoments,
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
)
from .array_geometry import ArrayConfig, array_response, check_spacing, cos_aligned, steering_phases
from .channel import AOD_SET, ChannelRealization, channel_stats, sample_channel
from .strategies import StrategyKind, check_joint, secondary_pool

DEFAULT_AXIS_VALUES = {
    "theta_e_deg": tuple(float(t) for t in range(1, 181)),
    "rho_e_db": tuple(float(r) for r in np.arange(0.0, 20.01, 2.5)),
    "n_antennas": (16.0, 32.0, 64.0),
    "n_paths": (4.0, 8.0, 12.0),
}
# each sweep axis's SweepSpec field -> its name on the command line and in messages
AXIS_NAMES = {
    "theta_e_deg": "theta-e", "rho_e_db": "rho-e", "n_antennas": "antennas", "n_paths": "paths"
}

# the strategies with closed forms (`compare_analytic`)
ANALYTIC_STRATEGIES = (StrategyKind.RANDOM_PATH, StrategyKind.JOINT_PATH_ANTENNA)


# rho in dB: within this range 10^(rho/10), its reciprocal and every SNR and
# rate the sweep forms from them are finite floats (the receiver SNR
# overflows near 3080 dB)
RHO_DB_LIMIT = 1000.0


def _reject(name: str, values, ok, rule: str):
    """Raise ValueError "<name> <rule>, got <v, ...>" listing every value not ok."""
    bad = ", ".join(f"{v:g}" for v in values if not ok(v))
    if bad:
        raise ValueError(f"{name} {rule}, got {bad}")


def _reject_repeats(name: str, values, show):
    """Raise ValueError "<name> must be distinct, got <show(v), ...> more than once"."""
    bad = ", ".join(show(v) for v, count in Counter(values).items() if count > 1)
    if bad:
        raise ValueError(f"{name} must be distinct, got {bad} more than once")


@dataclass(frozen=True)
class SweepSpec:
    """One curve.  Construction is a run's one validation: it raises
    ValueError, naming the flag, for every setting or axis value the sweep
    cannot evaluate (`_Point.applicable` leaves only per-point cases)."""

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

    def __post_init__(self):
        if not self.strategies:
            raise ValueError("strategy set must be nonempty")
        # one set of rows per strategy, so a repeat would vanish from the table
        _reject_repeats("strategies", self.strategies, lambda s: s.value)
        if self.axis not in AXIS_NAMES:
            raise ValueError(f"axis must be one of {tuple(AXIS_NAMES)}, got {self.axis!r}")
        if not self.axis_values:
            raise ValueError("axis values must be nonempty")
        if self.symbols_per_point < 100:
            raise ValueError(f"symbols must be >= 100, got {self.symbols_per_point}")
        if self.ensemble < 1:
            raise ValueError(f"ensemble must be >= 1, got {self.ensemble}")
        if self.base_seed < 0:  # numpy's SeedSequence would reject it without naming it
            raise ValueError(f"seed must be >= 0, got {self.base_seed}")
        # only cos(theta) enters the model, so an angle outside [1, 180] would
        # silently alias another one
        for name, field in (("theta-r", "theta_r_deg"), ("theta-e", "theta_e_deg")):
            _reject(name, self.values_of(field), lambda v: 1 <= v <= 180, "must lie in [1, 180]")
        # a NaN or infinite rho would reach the sweep as a NaN SNR or a zero noise floor
        rho_e = "rho-e" if self.axis == "rho_e_db" else "rho-e-db"
        for name, field in (("rho-r-db", "rho_r_db"), (rho_e, "rho_e_db")):
            _reject(name, self.values_of(field), math.isfinite, "must be finite")
            _reject(
                name, self.values_of(field), lambda v: abs(v) <= RHO_DB_LIMIT,
                f"must lie in [{-RHO_DB_LIMIT:g}, {RHO_DB_LIMIT:g}] dB",
            )
        # the sweep builds an array or channel of int(value) antennas or paths
        if self.axis in ("n_antennas", "n_paths"):
            _reject(
                f"{AXIS_NAMES[self.axis]} values", self.axis_values,
                lambda v: float(v).is_integer(), "must be whole numbers",
            )
        _reject("antennas", self.values_of("n_antennas"), lambda v: v >= 2, "must be >= 2")
        _reject(
            "paths", self.values_of("n_paths"), lambda v: 1 <= v <= len(AOD_SET),
            f"must lie in [1, {len(AOD_SET)}]",
        )
        # rows are keyed by (strategy, axis value), so a repeat would write a second estimate
        _reject_repeats(f"{AXIS_NAMES[self.axis]} values", self.axis_values, lambda v: f"{v:g}")
        check_spacing(self.spacing_over_wavelength, "spacing")
        if StrategyKind.JOINT_PATH_ANTENNA in self.strategies:
            if self.axis != "n_paths" and self.n_paths < 2:
                raise ValueError(
                    "joint path-and-antenna selection requires paths >= 2 "
                    f"(got paths={self.n_paths})"
                )
            if self.l_s < 2:
                raise ValueError(
                    "joint path-and-antenna selection requires ls >= 2: the pool of the ls "
                    "strongest paths includes the strongest, which is never secondary "
                    f"(got ls={self.l_s})"
                )
        if self.m_main is not None and self.m_main < 1:
            raise ValueError(f"m-main must be >= 1, got {self.m_main}")
        if self.m_main is not None and self.axis != "n_antennas" and self.m_main > self.n_antennas:
            raise ValueError(
                f"m-main must lie in [1, antennas]; got m-main={self.m_main}, "
                f"antennas={self.n_antennas}"
            )
        if self.l_s < 1:
            raise ValueError(f"ls must be >= 1, got {self.l_s}")

    def values_of(self, field: str) -> tuple:
        """Every value of `field` the sweep evaluates: the axis values on its axis."""
        return self.axis_values if field == self.axis else (getattr(self, field),)


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
    """One sweep's rows and the spec that made them: all that its CSV and
    `.meta` hold (`cli.write_outputs`)."""

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


def figure_preset(fig_id: int) -> dict[str, SweepSpec]:
    """Preset sweeps matching the benchmark figure setups: one run spec per
    curve, keyed by the curve's label ("" for a single-curve figure).

    1: secrecy vs eavesdropper angle, N=32, path-count curves L4, L8, L12.
    2: secrecy vs eavesdropper angle, L=12, antenna-count curves N16, N32, N64.
    3: secrecy vs rho_E at theta_E = 40 deg (on the main path), N=32, L=12.
    4: secrecy vs rho_E at theta_E = 55 deg (off the main path), N=32, L=12.
    """
    theta = SweepSpec(
        strategies=tuple(StrategyKind),
        axis="theta_e_deg",
        axis_values=DEFAULT_AXIS_VALUES["theta_e_deg"],
    )
    rho = replace(theta, axis="rho_e_db", axis_values=DEFAULT_AXIS_VALUES["rho_e_db"])
    if fig_id == 1:
        return {f"L{L}": replace(theta, n_paths=L) for L in (4, 8, 12)}
    if fig_id == 2:
        return {f"N{n}": replace(theta, n_antennas=n) for n in (16, 32, 64)}
    if fig_id == 3:
        return {"": replace(rho, theta_e_deg=40.0)}
    if fig_id == 4:
        return {"": replace(rho, theta_e_deg=55.0)}
    raise ValueError(f"unknown figure id {fig_id}; expected 1-4")


# ---------------------------------------------------------------------------
# vectorized symbol-block kernels


# Uniforms per subset draw call: `SubsetBlock` draws its mask
# SUBSET_CHUNK_ELEMENTS // n symbols at a time, so each call's uniforms and
# partition copy stay 128 KB at any array size.  The switched and joint
# kernels apply it in GEMMs of the same element budget, each over one
# beam's contiguous rows, but of at least SUBSET_CHUNK_MIN_ROWS rows, so
# at large n the GEMMs do not shrink to a few rows each.
SUBSET_CHUNK_ELEMENTS = 1 << 14
SUBSET_CHUNK_MIN_ROWS = 32


def _random_subsets(rng, K, n, m) -> np.ndarray:
    """K uniformly random m-subsets of range(n), 1 <= m <= n, as a boolean (K, n) mask.

    Row k marks the m smallest of n fresh uniforms; where uniforms tie at
    the m-th smallest, the lowest-indexed of them fill the row to exactly m.
    """
    u = rng.random((K, n))
    cut = np.partition(u, m - 1, axis=1)[:, m - 1 : m]
    mask = u <= cut
    if np.count_nonzero(mask) > K * m:  # some row has uniforms tied at its cut
        tied = u == cut
        room = m - np.count_nonzero(u < cut, axis=1, keepdims=True)
        mask &= ~tied | (np.cumsum(tied, axis=1) <= room)
    return mask


def _chunk_symbols(n):
    """Rows per mask GEMM at n antennas."""
    return max(1, SUBSET_CHUNK_ELEMENTS // n, SUBSET_CHUNK_MIN_ROWS)


class SubsetBlock:
    """The antenna subsets of one (array size, ensemble index), drawn once
    and read by every masked strategy at every axis point of that size.

    The first `mask` call draws K uniformly random m-subsets of range(n)
    from rng as one read-only (K, n) mask, at most SUBSET_CHUNK_ELEMENTS
    uniforms per `_random_subsets` call; every later call returns the same
    array.  The pieces' uniforms concatenate to one (K, n) draw, so the
    mask does not depend on the piece size.
    """

    def __init__(self, rng):
        self._rng, self._mask, self._m = rng, None, None

    def mask(self, K, n, m):
        """The block's (K, n) mask; every reader must ask for the same K, n and m."""
        if self._mask is None:
            mask, step = np.empty((K, n), dtype=bool), max(1, SUBSET_CHUNK_ELEMENTS // n)
            for start in range(0, K, step):
                mask[start : start + step] = _random_subsets(self._rng, min(step, K - start), n, m)
            mask.flags.writeable = False
            self._mask, self._m = mask, m
        elif (K, n, m) != (*self._mask.shape, self._m):
            raise ValueError(
                f"subset block holds K, n, m = {(*self._mask.shape, self._m)}, asked for {(K, n, m)}"
            )
        return self._mask


@dataclass
class SymbolStreams:
    """One (channel, strategy) block of K symbols, reduced to per-beam moments.

    moments (`BeamMoments`) holds, per beam s, the number of symbols that
    sent it and their mean gain and M2 at each of the T eavesdropper
    angles and at the receiver (column T); recv_abs_sum is the receiver's
    sum of |gain| over the block; table (T, R) marks the beams that steer a
    path sharing angle t's cosine.  The sweep's estimators read only these,
    through the eavesdropper views `eve` (angle 0) and `sidelobes` (angles
    1 to T - 1), each built at its first read and kept: a view's
    `BeamMoments.pool` keeps its pools, so every estimate of a block shared
    by several points pools each group once.
    """

    moments: BeamMoments
    recv_abs_sum: float
    table: np.ndarray

    @functools.cached_property
    def eve(self) -> BeamMoments:
        """The moments at the first eavesdropper angle (column 0)."""
        return self.moments.at(0)

    @functools.cached_property
    def sidelobes(self) -> BeamMoments:
        """The moments at the other eavesdropper angles: columns 1 to T - 1 (T is the receiver)."""
        return self.moments.at(slice(1, len(self.table)))


def _read_only(*arrays):
    for a in arrays:
        if a is not None:
            a.flags.writeable = False
    return arrays


@dataclass(frozen=True, eq=False)
class Beams:
    """One strategy's law on one channel (`_beams`), read-only: R unit-power
    beams B (R, n), the candidate path indices cand, the candidates each
    beam's symbols steer, steer (R, S), as indices into cand, and p (R,),
    the probability that a symbol sends each beam.  A masked strategy
    (`StrategyKind.masked`) switches each symbol's m-subset to the main beam
    B[0]; mean_reference anchors the receiver at the all-path mean gain, not
    the strongest path's (`receiver_reference_gain`)."""

    B: np.ndarray
    cand: np.ndarray
    steer: np.ndarray
    p: np.ndarray
    masked: bool
    mean_reference: bool


def _beams(ch: ChannelRealization, cfg: ArrayConfig, kind: StrategyKind, m_main: int, l_s: int):
    """The `Beams` of one strategy on one channel: the deterministic half of its draw."""
    n, L, strongest = cfg.n_antennas, ch.n_paths, np.array([ch.strongest_index])
    if kind is StrategyKind.CONVENTIONAL:  # one static beam at the strongest path
        cand, steer, p, mean_ref = strongest, np.zeros((1, 1), dtype=int), [1], False
        B = array_response(cfg, ch.strongest_aod_deg)[None, :]
    elif kind is StrategyKind.SWITCHED_ARRAY:  # a fresh m-subset of that beam per symbol
        if not 1 <= m_main <= n:
            raise ValueError(f"subset size m must lie in [1, {n}], got {m_main}")
        cand, steer, p, mean_ref = strongest, np.zeros((2, 1), dtype=int), [0, 1], False
        beam = np.exp(1j * steering_phases(cfg, ch.strongest_aod_deg)) / math.sqrt(m_main)
        B = np.stack([beam, np.zeros(n, dtype=complex)])  # off-subset antennas are silent
    elif kind is StrategyKind.RANDOM_PATH:  # the full beam at a uniformly drawn path
        cand, steer, p, mean_ref = np.arange(L), np.arange(L)[:, None], np.full(L, 1 / L), True
        B = array_response(cfg, ch.aods_deg[:, None])
    elif kind is StrategyKind.JOINT_PATH_ANTENNA:  # m-subset at the strongest, rest at a pool path
        check_joint(m_main, l_s, n, L)
        cand = np.array([ch.strongest_index, *secondary_pool(ch, l_s)])
        steer = np.stack([np.zeros(cand.size, dtype=int), np.arange(cand.size)], axis=1)
        p, mean_ref = [0, *np.full(cand.size - 1, 1 / (cand.size - 1))], True
        B = array_response(cfg, ch.aods_deg[cand][:, None])
    else:
        raise ValueError(f"unknown strategy {kind}")
    B, cand, steer, p = _read_only(B, cand, steer, np.array(p, dtype=float))
    return Beams(B, cand, steer, p, kind.masked, mean_ref)


def _draw_weights(beams: Beams, m_main: int, K: int, rng, subsets: SubsetBlock | None = None):
    """Draw, in factored form, the weights K symbols of one strategy send.

    Returns (count, mask): how many of the K symbols send each of the
    strategy's R beams (`Beams`), (R,), beam s by the count[s] symbols
    after those of beams 0 to s - 1, and a masked strategy's m-subsets
    (K, n), else None.  The receiver knows the schedule, so only the counts
    are drawn: K p when p is one-hot, else multinomial(K, p).  The mask is
    read from `subsets` if given, else drawn from the plan stream after the
    counts (`SubsetBlock`).  rng is the plan stream, or a function of no
    arguments that returns it, called at most once, by a draw that reads it.
    """
    if (beams.p == 1).any():  # every symbol sends one beam: no stream is read
        count = (K * beams.p).astype(int)
    else:
        rng = rng() if callable(rng) else rng
        count = rng.multinomial(K, beams.p)
    if beams.masked and subsets is None:
        subsets = SubsetBlock(rng() if callable(rng) else rng)
    return count, (subsets.mask(K, beams.B.shape[1], m_main) if beams.masked else None)


def _operator(ch: ChannelRealization, cfg: ArrayConfig, beams: Beams, m_main: int, angles):
    """The angle-dependent observation operator of one (strategy, channel).

    Per beam s the observers are the T eavesdroppers at `angles` (a tuple
    of degrees), sqrt(N/L) conj(a(theta)), and the receiver,
    sqrt(N/L) conj(sum of alpha_l a(theta_l)) over the paths beam s steers.
    Returns (table, G, D): the alignment table (T, R), true where beam s
    steers a path sharing angle t's cosine; each beam at each observer,
    G (R, T + 1) with the receiver last; and, for a masked strategy,
    the mask GEMM operands D (R, n, 2(T + 1)), the real and imaginary parts
    of (observers * (B[0] - B[s]))^T interleaved so a product views as
    complex (None otherwise).  For a masked strategy each antenna's
    term of D[s] is taken less its mean over the n antennas, and G[s] is
    the gain of B[s] plus m_main times that mean: the beam's mean gain over
    the m-subsets, with mask D[s] the zero-mean rest.  The arrays are
    read-only: a `KernelBlock` builds them once and shares them.
    """
    B, cand, steer = beams.B, beams.cand, beams.steer
    n, L, T = cfg.n_antennas, ch.n_paths, len(angles)
    thetas, cand_aods = np.array(angles, dtype=float), ch.aods_deg[cand]
    table = cos_aligned(thetas[:, None], cand_aods)[:, steer].any(axis=2)
    scale = math.sqrt(n / L)
    obs = np.empty((len(B), T + 1, n), dtype=complex)  # each beam's observer rows
    obs[:, :T] = scale * np.conj(array_response(cfg, thetas[:, None]))
    steered = ch.gains[cand][steer][:, :, None] * array_response(cfg, cand_aods[:, None])[steer]
    obs[:, T] = scale * np.conj(steered.sum(axis=1))
    G = (obs @ B[:, :, None])[:, :, 0]
    D = None
    if beams.masked:
        D = np.empty((len(B), n, T + 1), dtype=complex)  # viewed as float: re, im interleaved
        np.multiply(obs.transpose(0, 2, 1), (B[0] - B)[:, :, None], out=D)
        # every mask holds m_main ones, so moving each antenna's term by the mean
        # term moves the symbol's gain by m_main times it, the mean over the subsets
        mean_term = D.mean(axis=1)
        G = G + m_main * mean_term
        D -= mean_term[:, None, :]
        D = D.view(float)
    return _read_only(table, G, D)


def _block_key(ch, cfg, kind, m_main, l_s, angles) -> tuple:
    """What a `KernelBlock` is built for: (ch, cfg, kind, m_main, l_s, angles as a float tuple)."""
    thetas = np.atleast_1d(np.asarray(angles, dtype=float))
    return ch, cfg, kind, m_main, l_s, tuple(thetas.tolist())


class KernelBlock:
    """What the `simulate_streams` calls of one (strategy, channel, N, m,
    l_s, angle tuple) share: the strategy's `Beams` and the operator
    (`_operator`), built at the first call, and one reduction (`_reduce`),
    kept with the plan function, subset block and K its counts were drawn
    for.

    A call that hands the block the same three (the same function and
    block objects) gets that `SymbolStreams` back without drawing: a plan
    function builds the same stream at every call, as the sweep's do
    (`_kernel_block`), so the rho_E points of one block draw and reduce
    once.  A Generator advances between draws, so its reductions are never
    kept.
    """

    def __init__(self, key: tuple):
        self.key = key  # `_block_key`
        self._kept = None

    @functools.cached_property
    def beams(self) -> Beams:
        """The `Beams` of the block's strategy and channel, built at the first read."""
        return _beams(*self.key[:5])

    @functools.cached_property
    def operator(self):
        """(table, G, D) of `_operator`, built at the first read."""
        ch, cfg, _, m_main, _, angles = self.key
        return _operator(ch, cfg, self.beams, m_main, angles)

    def streams(self, K: int, rng, subsets: SubsetBlock | None) -> SymbolStreams:
        """Draw K symbols of the block's strategy (`_draw_weights`) and reduce them."""
        kept = self._kept
        if kept is not None and kept[0] is rng and kept[1] is subsets and kept[2] == K:
            return kept[3]
        table, G, D = self.operator
        count, mask = _draw_weights(self.beams, self.key[3], K, rng, subsets)  # key[3]: m_main
        streams = _reduce(table, G, D, count, mask)
        if callable(rng):
            self._kept = rng, subsets, K, streams
        return streams


def _reduce(table, G, D, count, mask) -> SymbolStreams:
    """One draw (count, mask) of `_draw_weights` on the operator (table, G,
    D) of `_operator`, reduced to per-beam moments (`simulate_streams`)."""
    _read_only(count)
    if mask is None:  # every symbol of beam s has the gain G[s]
        moments = BeamMoments(count, G, *_read_only(np.zeros(G.shape)))
        return SymbolStreams(moments, float(count @ np.abs(G[:, -1])), table)
    end = np.cumsum(count)
    start = end - count
    sent = np.flatnonzero(count)  # masked symbols never send beam 0
    squares = np.empty((len(sent), G.shape[1]))
    recv = np.empty(len(mask))  # the receiver's |G[s, T] + y_k| per symbol
    # y is one array for the whole block, not one per beam (a fresh array per
    # beam is a fresh mmap each time), and allocated after the small arrays
    # (allocated before them, its pages faulted in again per block; README)
    y = np.empty((len(mask), G.shape[1]), dtype=complex)
    yf, step = y.view(float), _chunk_symbols(mask.shape[1])
    for i, (s, a, b) in enumerate(zip(sent.tolist(), start[sent].tolist(), end[sent].tolist())):
        for lo in range(a, b, step):  # y_k = mask_k D[s], at most `_chunk_symbols` rows per GEMM
            hi = min(lo + step, b)
            np.matmul(mask[lo:hi].astype(float), D[s], out=yf[lo:hi])
        squares[i] = np.einsum("ij,ij->j", yf[a:b], yf[a:b]).reshape(-1, 2).sum(axis=1)
        np.abs(y[a:b, -1] + G[s, -1], out=recv[a:b])
    sums = np.add.reduceat(y, start[sent], axis=0)  # the last sent beam ends at K
    n_sent = count[sent, None]
    mean, m2 = G.copy(), np.zeros(G.shape)
    mean[sent] += sums / n_sent
    m2[sent] = np.maximum(squares - np.abs(sums) ** 2 / n_sent, 0.0)
    return SymbolStreams(BeamMoments(count, *_read_only(mean, m2)), float(recv.sum()), table)


def simulate_streams(
    ch: ChannelRealization,
    cfg: ArrayConfig,
    kind: StrategyKind,
    m_main: int,
    l_s: int,
    theta_e_list,
    K: int,
    rng: np.random.Generator | Callable[[], np.random.Generator],
    subsets: SubsetBlock | None = None,
    block: KernelBlock | None = None,
) -> SymbolStreams:
    """Simulate K symbols of one strategy against many observation angles.

    Every strategy sends, per symbol, a unit-power weight vector w_k drawn
    in factored form (`_draw_weights`): a beam B[s], with the m-subset
    mask_k switched to the main beam B[0] for a masked strategy.  One
    observation law serves every observer: its gain is o w, with o its
    observer row (`_operator`).  An eavesdropper (unit channel gain) at
    theta_E gets sqrt(N/L) a(theta_E)^H w; the receiver gets the
    schedule-known coherent gain, sqrt(N/L) sum of conj(alpha_l)
    a(theta_l)^H w over the steered paths only (leakage from unsteered
    paths is excluded), so each beam has its own receiver row.

    rng is the plan stream the counts are drawn from, a Generator or a
    function that returns one (`_draw_weights`).  The m-subsets come from
    `subsets`, a block shared with the other masked strategy and the other
    axis points of the same array size, when given; else they are drawn
    from the plan stream after the counts (`SubsetBlock(rng)`).  block is
    the `KernelBlock` of this (strategy, channel, N, m, l_s, angles);
    without one the call builds its own.  A call that hands the block the
    plan function, subsets and K of its kept reduction gets that reduction
    back (`KernelBlock.streams`).

    Returns the block as per-beam moments (`SymbolStreams`, read-only).
    Per beam the law is G (R, T + 1), each beam at each observer, so an
    unmasked strategy's symbols on beam s all have the gain G[s]:
    mean G[s], M2 0.  The masked strategies add a random part
    y_k = mask_k D[s].  Beam s is sent by the contiguous symbols
    [start_s, end_s), whose products fill those rows of one (K, T + 1)
    array per reduction (`_reduce`); one `np.add.reduceat` sums every sent
    beam's rows and one einsum per beam gives its sum of |y|^2, and
    mean = G[s] + sum y / n_s and M2 = sum |y|^2 - |sum y|^2 / n_s,
    clipped at 0.  For these strategies G[s] is the beam's mean gain over
    the subsets and y its zero-mean random part, so the raw sums lose no
    digits to cancellation.  The receiver's |G[s, T] + y_k| fill one float
    per symbol, summed once.
    """
    key = _block_key(ch, cfg, kind, m_main, l_s, theta_e_list)
    if block is None:
        block = KernelBlock(key)
    elif block.key != key:
        raise ValueError("kernel block was built for another strategy, channel or angle set")
    return block.streams(K, rng, subsets)


# ---------------------------------------------------------------------------
# sweep driver


def receiver_reference_gain(ch: ChannelRealization, beams: Beams) -> float:
    """Reference channel gain anchoring the receiver's noise floor: the
    strongest path's, so rho_R measures that link, or, if the strategy's
    `Beams.mean_reference`, the all-path mean as in the path-hopping SNR formula."""
    return ch.mean_gain if beams.mean_reference else abs(ch.gains[ch.strongest_index])


def _channel_rng(spec: SweepSpec, n_paths: int, ens: int) -> np.random.Generator:
    # axis-independent for N / theta / rho axes so ensemble members pair up
    ss = np.random.SeedSequence([spec.base_seed, 0xC0FFEE, n_paths, ens])
    return np.random.default_rng(ss)


def _plan_rng(spec: SweepSpec, strat: StrategyKind, axis_idx: int, ens: int) -> np.random.Generator:
    ss = np.random.SeedSequence(
        [spec.base_seed, 0xBEEF, list(StrategyKind).index(strat), axis_idx, ens]
    )
    return np.random.default_rng(ss)


def _subset_rng(spec: SweepSpec, axis_idx: int, ens: int) -> np.random.Generator:
    # no strategy in the key: the switched and joint schemes share it
    return np.random.default_rng(np.random.SeedSequence([spec.base_seed, 0x5B5E7, axis_idx, ens]))


@dataclass(frozen=True)
class _Point:
    """One axis value's settings; rho_r and rho_e are linear."""

    cfg: ArrayConfig
    n_paths: int
    m_main: int
    l_s: int
    theta_e_deg: float
    rho_r: float
    rho_e: float

    @classmethod
    def at(cls, spec: SweepSpec, value: float) -> _Point:
        """The point at one axis value: m is m_main, or N // 2, and l_s is min(ls, L)."""
        v = {spec.axis: int(value) if spec.axis in ("n_antennas", "n_paths") else float(value)}
        n, L = v.get("n_antennas", spec.n_antennas), v.get("n_paths", spec.n_paths)
        return cls(
            ArrayConfig(n, spec.spacing_over_wavelength),
            L,
            n // 2 if spec.m_main is None else spec.m_main,
            min(spec.l_s, L),
            v.get("theta_e_deg", spec.theta_e_deg),
            db_to_linear(spec.rho_r_db),
            db_to_linear(v.get("rho_e_db", spec.rho_e_db)),
        )

    def applicable(self, kind: StrategyKind) -> bool:
        # `SweepSpec` rejects every other infeasible run: only an antennas-axis N
        # below m, or a paths-axis L below 2 for joint, makes a point inapplicable
        if kind.masked and self.m_main > self.cfg.n_antennas:
            return False
        return kind is not StrategyKind.JOINT_PATH_ANTENNA or self.n_paths >= 2


def _check_row(row: SweepRow, snr_r: float):
    """Raise ValueError, naming the strategy, axis value and field, unless
    every field of an `ok` row is finite, its stderr is >= 0 and its rate
    lies in [0, log2(1 + snr_r)], with snr_r the row's mean linear receiver
    SNR (the rate is a mean of terms each at most log2(1 + its snr_r), so by
    concavity at most this)."""
    where = f"{row.strategy.value} at {AXIS_NAMES[row.axis]} {row.axis_value:g}"
    fields = {
        "snr_r_db": row.snr_r_db,
        "snr_e_db": row.snr_e_db,
        "secrecy_rate_bps_hz": row.rate_bps_hz,
        "stderr": row.stderr,
    }
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ValueError(f"{where}: {name} is {value}, not finite")
    if row.stderr < 0:
        raise ValueError(f"{where}: stderr is {row.stderr}, below 0")
    # a few ulps of slack: the rate and snr_r are means summed in another order
    cap = math.log2(1.0 + snr_r)
    if not 0.0 <= row.rate_bps_hz <= cap * (1 + 1e-12):
        raise ValueError(
            f"{where}: secrecy_rate_bps_hz is {row.rate_bps_hz}, outside [0, {cap}]"
        )


def _kernel_block(
    blocks: dict, spec: SweepSpec, kind: StrategyKind, i: int, ens: int, pt: _Point,
    ch: ChannelRealization, angles,
):
    """The `KernelBlock` of (kind, ch, pt's N, m and l_s, angles) and its plan: a
    function of no arguments that builds the plan stream of (kind, i, ens), i
    the axis index at which the block was built.  Returns the strategy's
    (block, plan) in blocks if the block was built for that key, else a new
    pair that replaces it."""
    key = _block_key(ch, pt.cfg, kind, pt.m_main, pt.l_s, angles)
    held = blocks.get(kind)
    if held is None or held[0].key != key:
        held = blocks[kind] = KernelBlock(key), functools.partial(_plan_rng, spec, kind, i, ens)
    return held


def _sweep(spec: SweepSpec, evaluate) -> ResultTable:
    """The sweep loop shared by `run_sweep` and `compare_analytic`.

    evaluate(kind, point, ch, subsets, block) returns one channel's linear
    (snr_r, snr_e); subsets is the `SubsetBlock` of that (array size,
    ensemble index), keyed by the first axis index with that N, and
    block(angles) returns the `KernelBlock` of that (strategy, channel,
    point) at the given angles with its plan, a function of no arguments
    that builds the plan stream keyed by the axis index at which the block
    was built (`_kernel_block`).  The loop runs ensemble index, then axis
    point, then strategy, and draws each channel once per (path count,
    ensemble index) as one object for every strategy and point.  Each
    strategy keeps only the kernel block of the last key it saw, and every
    block is dropped at the first point of each ensemble index and at a
    point that differs from the last in more than rho_E: on the rho_E axis
    the points of one channel share each strategy's block and plan
    function, so the block draws their counts once, and on the other axes
    each point builds its own.  Every `ok` row is checked before the table
    is returned (`_check_row`).
    """
    points = [_Point.at(spec, v) for v in spec.axis_values]
    # a point can share the kernel blocks of the one before only if it differs in rho_E alone
    shares = [
        i > 0 and replace(pt, rho_e=points[i - 1].rho_e) == points[i - 1]
        for i, pt in enumerate(points)
    ]
    # rate, snr_r and snr_e per (strategy, axis value, ensemble index)
    acc = np.empty((len(spec.strategies), 3, len(points), spec.ensemble))
    blocks = {}  # strategy -> (kernel block, plan) of the last key it saw
    for ens in range(spec.ensemble):
        channels = {}  # path count -> channel: one draw serves every strategy and point
        for i, pt in enumerate(points):
            # antennas-axis values are distinct, and off that axis every point has one N
            if i == 0 or spec.axis == "n_antennas":
                subsets = SubsetBlock(_subset_rng(spec, i, ens))
            if not shares[i]:
                blocks.clear()
            for s, strat in enumerate(spec.strategies):
                if not pt.applicable(strat):
                    continue
                ch = channels.get(pt.n_paths)
                if ch is None:
                    ch = channels[pt.n_paths] = sample_channel(
                        pt.n_paths, spec.theta_r_deg, _channel_rng(spec, pt.n_paths, ens)
                    )
                block = functools.partial(_kernel_block, blocks, spec, strat, i, ens, pt, ch)
                snr_r, snr_e = evaluate(strat, pt, ch, subsets, block)
                acc[s, :, i, ens] = secrecy_rate(snr_r, snr_e), snr_r, snr_e
    rows = []
    for strat, (rates, snr_r_acc, snr_e_acc) in zip(spec.strategies, acc):
        for i, (value, pt) in enumerate(zip(spec.axis_values, points)):
            if not pt.applicable(strat):
                rows.append(
                    SweepRow(strat, spec.axis, float(value), None, None, None, None, "inapplicable")
                )
                continue
            stderr = (
                float(rates[i].std(ddof=1) / math.sqrt(spec.ensemble))
                if spec.ensemble > 1
                else 0.0
            )
            snr_r = float(snr_r_acc[i].mean())
            row = SweepRow(
                strat,
                spec.axis,
                float(value),
                linear_to_db(snr_r),
                linear_to_db(float(snr_e_acc[i].mean())),
                float(rates[i].mean()),
                stderr,
                "ok",
            )
            _check_row(row, snr_r)
            rows.append(row)
    rows.sort(key=lambda r: (r.strategy.value, r.axis_value))
    return ResultTable(rows=rows, spec=spec)


def run_sweep(spec: SweepSpec) -> ResultTable:
    """Monte-Carlo evaluation of every (strategy, axis value) sweep point.

    For each point the clamped secrecy rate is averaged over the channel
    ensemble; rows carry the ensemble means (SNRs in dB) and the standard
    error of the rate.  A point whose axis value puts N below m (switched,
    joint) or L below 2 (joint) yields a row flagged inapplicable.
    """

    def evaluate(kind: StrategyKind, pt: _Point, ch: ChannelRealization, subsets, block):
        # Under the pessimistic random-location model, an eavesdropper
        # sitting on a transmit angle of the joint scheme mixes mainlobe
        # interception (probability 2/L) with sidelobe observation at
        # the non-transmitted path angles; those angles get their own
        # simulated gain streams.
        joint_mix, theta_list = False, [pt.theta_e_deg]
        if kind is StrategyKind.JOINT_PATH_ANTENNA:
            joint_mix, side = joint_sidelobe_aods(ch, pt.l_s, pt.theta_e_deg)
            if joint_mix:
                theta_list += side
        kernel, plan = block(theta_list)
        streams = simulate_streams(
            ch, pt.cfg, kind, pt.m_main, pt.l_s, theta_list, spec.symbols_per_point, plan,
            subsets, kernel,
        )
        sigma_r = receiver_reference_gain(ch, kernel.beams) ** 2 / pt.rho_r
        snr_r = receiver_snr(streams.recv_abs_sum, spec.symbols_per_point, sigma_r)
        eve, aligned = streams.eve, streams.table[0]
        if joint_mix:
            snr_e = location_mixture_snr(
                eve, aligned, streams.sidelobes, pt.n_paths, 1.0 / pt.rho_e
            )
        else:
            snr_e = alignment_mixture_snr(eve, aligned, 1.0 / pt.rho_e)
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

    def evaluate(kind: StrategyKind, pt: _Point, ch: ChannelRealization, _subsets, _block):
        n_ant = pt.cfg.n_antennas
        if kind is StrategyKind.RANDOM_PATH:
            snr_r = snr_r_random_path(n_ant, pt.n_paths, pt.rho_r)
            snr_e = snr_e_random_path(
                n_ant, pt.n_paths, pt.rho_e, pt.theta_e_deg, ch.aods_deg, pt.cfg
            )
            return snr_r, snr_e
        stats = channel_stats(ch)
        moments = estimate_joint_moments(ch, pt.cfg, pt.m_main, pt.l_s, pt.theta_e_deg)
        snr_r = snr_r_joint(
            n_ant,
            pt.n_paths,
            pt.m_main,
            abs(ch.gains[ch.strongest_index]),
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
