"""Unit tests for the sweep harness and vectorized symbol kernels."""

import functools
import itertools
import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracle import (
    alignment_mixture_snr_of_samples,
    beam_moments,
    draw_gains,
    joint_symbols,
    kernel_gains,
    location_mixture_snr_of_samples,
    masked_beam_variance,
    observed_gain,
    receiver_gain,
    receiver_snr_of_samples,
    sent_symbols,
)

from mmwsec import montecarlo
from mmwsec.analysis import BeamMoments, alignment_mixture_snr, location_mixture_snr, receiver_snr
from mmwsec.array_geometry import ArrayConfig, array_response, cos_aligned
from mmwsec.channel import ChannelRealization, sample_channel
from mmwsec.montecarlo import (
    KernelBlock,
    ResultTable,
    SubsetBlock,
    SweepRow,
    SweepSpec,
    _block_key,
    _check_row,
    _draw_weights,
    _random_subsets,
    compare_analytic,
    figure_preset,
    receiver_reference_gain,
    run_sweep,
    simulate_streams,
)
from mmwsec.strategies import StrategyKind, secondary_pool

ALL = tuple(StrategyKind)
THETA_R = 40.0


def small_spec(**kw):
    defaults = dict(
        strategies=ALL,
        axis="theta_e_deg",
        axis_values=(40.0,),
        symbols_per_point=300,
        ensemble=4,
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(strategies=())
    with pytest.raises(ValueError):
        small_spec(axis="bogus")
    with pytest.raises(ValueError):
        small_spec(axis_values=())
    with pytest.raises(ValueError, match="symbols must be >= 100, got 99"):
        small_spec(symbols_per_point=99)
    with pytest.raises(ValueError, match="ensemble must be >= 1, got 0"):
        small_spec(ensemble=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        small_spec(base_seed=-1)
    for axis in ("rho_e_db", "n_paths"):  # the paths axis takes min(ls, L), still >= 1
        with pytest.raises(ValueError, match="ls must be >= 1, got -3"):
            small_spec(
                strategies=(StrategyKind.CONVENTIONAL,), axis=axis, axis_values=(4.0, 12.0), l_s=-3
            )
    for spacing in (0.0, 0.51, float("nan")):  # ArrayConfig's rule, named by its flag
        with pytest.raises(ValueError, match=f"spacing must lie in \\(0, 0.5\\].*got {spacing}"):
            small_spec(spacing_over_wavelength=spacing)


@pytest.mark.parametrize("axis, name", [("n_antennas", "antennas"), ("n_paths", "paths")])
@pytest.mark.parametrize("bad", [16.5, float("inf"), float("nan")])
def test_count_axes_reject_fractional_and_non_finite_values(axis, name, bad):
    with pytest.raises(ValueError, match=f"{name} values must be whole numbers, got {bad:g}"):
        small_spec(axis=axis, axis_values=(16.0, bad))
    assert small_spec(axis=axis, axis_values=(16.0, 32.0)).axis_values == (16.0, 32.0)


@pytest.mark.parametrize(
    "axis, name, values",
    [
        ("rho_e_db", "rho-e", (10.0, 10.0)),
        ("theta_e_deg", "theta-e", (40.0, 55.0, 40.0)),
        ("n_antennas", "antennas", (16.0, 32.0, 16.0)),
        ("n_paths", "paths", (4.0, 4.0)),
        ("strategies", "strategies", tuple(map(StrategyKind, ["joint", "conventional", "joint"]))),
    ],
)
def test_axis_values_must_be_distinct(axis, name, values):
    # rows are keyed by (strategy, axis value): a repeat would write two rows under one key,
    # and a repeated strategy used to return one set of rows
    if axis == "strategies":
        kwargs, message = dict(strategies=values), "strategies must be distinct, got joint"
    else:
        kwargs = dict(axis=axis, axis_values=values)
        message = f"{name} values must be distinct, got {values[0]:g}"
    with pytest.raises(ValueError, match=message + " more than once"):
        small_spec(**kwargs)


def test_figure_presets_match_captions():
    f1 = figure_preset(1)
    assert list(f1) == ["L4", "L8", "L12"]
    assert [spec.n_paths for spec in f1.values()] == [4, 8, 12]
    for spec in f1.values():
        assert spec.n_antennas == 32
        assert spec.rho_r_db == 10.0
        assert spec.rho_e_db == 15.0
        assert spec.axis == "theta_e_deg"
    f2 = figure_preset(2)
    assert list(f2) == ["N16", "N32", "N64"]
    assert [spec.n_antennas for spec in f2.values()] == [16, 32, 64]
    assert all(spec.n_paths == 12 for spec in f2.values())
    f3, f4 = figure_preset(3), figure_preset(4)
    assert list(f3) == list(f4) == [""]
    assert f3[""].theta_e_deg == 40.0
    assert f3[""].n_paths == 12
    assert f3[""].axis == "rho_e_db"
    assert f4[""].theta_e_deg == 55.0
    with pytest.raises(ValueError):
        figure_preset(5)


def test_random_subsets_shape_and_uniformity():
    rng = np.random.default_rng(70)
    mask = _random_subsets(rng, 4000, 16, 5)
    assert mask.shape == (4000, 16)
    assert np.all(mask.sum(axis=1) == 5)
    inclusion = mask.mean(axis=0)
    assert np.allclose(inclusion, 5 / 16, atol=0.03)


class _Uniforms:
    """Stub generator: `.random` hands out the rows of a fixed (K, n) array in
    order, and records how many rows each call asked for."""

    def __init__(self, u):
        self.u, self.taken, self.calls = u, 0, []

    def random(self, shape):
        rows = self.u[self.taken : self.taken + shape[0]]
        assert rows.shape == shape
        self.taken += shape[0]
        self.calls.append(shape[0])
        return rows.copy()


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 40), K=st.integers(1, 30), data=st.data())
def test_subset_draw_keeps_m_smallest_and_chunks_concatenate(n, K, data):
    m = data.draw(st.integers(1, n), label="m")
    ties = st.integers(0, 3).map(lambda i: i / 4)  # many rows tie at their cut
    u = data.draw(
        hnp.arrays(float, (K, n), elements=st.one_of(ties, st.floats(0, 1, exclude_max=True))),
        label="u",
    )
    if m < n:  # force a tie at row 0's m-th smallest
        srt = np.sort(u[0])
        u[0][u[0] == srt[m]] = srt[m - 1]
    mask = _random_subsets(_Uniforms(u), K, n, m)
    assert np.all(mask.sum(axis=1) == m)
    for row, keep in zip(u, mask):  # always an m-smallest set, ties or not
        assert row[keep].max() <= row[~keep].min(initial=1.0)
    # tie-free rows: the m smallest, which is what an argsort of the row selects
    srt = np.sort(u, axis=1)
    tie_free = srt[:, m - 1] < srt[:, m] if m < n else np.ones(K, dtype=bool)
    by_argsort = np.zeros_like(mask)
    np.put_along_axis(by_argsort, np.argsort(u, axis=1)[:, :m], True, axis=1)
    assert np.array_equal(mask[tie_free], by_argsort[tie_free])
    # a block drawn in chunks is one whole-block draw, on crafted and on generated uniforms
    step = data.draw(st.integers(1, K), label="chunk symbols")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    stub = _Uniforms(u)
    with mock.patch.object(montecarlo, "SUBSET_CHUNK_ELEMENTS", step * n):
        chunked = SubsetBlock(stub).mask(K, n, m)
        drawn = SubsetBlock(np.random.default_rng(seed)).mask(K, n, m)
    assert stub.calls == [min(step, K - start) for start in range(0, K, step)]
    assert np.array_equal(chunked, mask)
    assert np.array_equal(drawn, _random_subsets(np.random.default_rng(seed), K, n, m))


def test_subset_chunks_keep_a_floor_of_symbols_per_beam():
    # at n = 2048 the element budget alone would give the kernel 8-symbol GEMMs;
    # each GEMM takes one beam's beam-sorted rows, at least SUBSET_CHUNK_MIN_ROWS of them
    assert montecarlo._chunk_symbols(2048) == montecarlo.SUBSET_CHUNK_MIN_ROWS == 32


def test_subset_draw_keeps_its_element_budget_at_large_n(monkeypatch):
    # the kernel's per-GEMM row floor (32 rows) does not size the draw:
    # each `_random_subsets` call keeps to SUBSET_CHUNK_ELEMENTS uniforms, 8 symbols here
    calls = []
    spied = montecarlo._random_subsets

    def spy(rng, K, n, m):
        calls.append(K)
        return spied(rng, K, n, m)

    monkeypatch.setattr(montecarlo, "_random_subsets", spy)
    n, K = 2048, 200
    ch = sample_channel(12, THETA_R, np.random.default_rng(87))
    simulate_streams(
        ch, ArrayConfig(n), StrategyKind.JOINT_PATH_ANTENNA, n // 2, 5, [55.0], K,
        np.random.default_rng(88),
    )
    assert sum(calls) == K
    assert max(calls) <= max(1, montecarlo.SUBSET_CHUNK_ELEMENTS // n)


def test_receiver_reference_gain_convention():
    ch = sample_channel(12, THETA_R, np.random.default_rng(71))
    strongest = abs(ch.gains[ch.strongest_index])
    mean_all = np.abs(ch.gains).mean()
    assert receiver_reference_gain(ch, StrategyKind.CONVENTIONAL) == strongest
    assert receiver_reference_gain(ch, StrategyKind.SWITCHED_ARRAY) == strongest
    assert receiver_reference_gain(ch, StrategyKind.RANDOM_PATH) == pytest.approx(mean_all)
    assert receiver_reference_gain(ch, StrategyKind.JOINT_PATH_ANTENNA) == pytest.approx(
        mean_all
    )


def test_streams_match_reference_simulator_values():
    """The vectorized kernels and the per-symbol oracle give the same gain
    alphabet for the static beam and the path-hopping beam: every symbol on
    a sent beam has that beam's gain (M2 0), and the beams' gains are the
    oracle's."""
    cfg = ArrayConfig(32)
    ch = sample_channel(12, THETA_R, np.random.default_rng(72))
    for kind, paths in ((StrategyKind.CONVENTIONAL, [ch.strongest_index]),
                        (StrategyKind.RANDOM_PATH, range(12))):
        streams = simulate_streams(
            ch, cfg, kind, 16, 5, [55.0], 2000, np.random.default_rng(73)
        )
        beams = [array_response(cfg, ch.aods_deg[l]) for l in paths]
        ref_r = [receiver_gain(ch, cfg, w, [l]) for w, l in zip(beams, paths)]
        ref_e = [observed_gain(cfg, 12, 55.0, w) for w in beams]
        sent = streams.moments.count > 0
        assert np.all(streams.moments.m2 == 0)
        levels = streams.moments.mean[sent]
        for got, ref in ((levels[:, -1], ref_r), (levels[:, 0], ref_e)):
            assert np.allclose(
                np.unique(np.round(got, 9)), np.unique(np.round(ref, 9)), atol=1e-8
            )


def test_joint_draws_uniform_secondary_paths_and_subsets():
    # over 10k symbols each pool path is the secondary one 1/(l_s - 1) of
    # the time, and each antenna sits on the main beam m/N of the time
    cfg = ArrayConfig(32)
    ch = sample_channel(12, THETA_R, np.random.default_rng(75))
    w, main, paths = joint_symbols(ch, cfg, 16, 12, 10_000, 76)
    freq = np.bincount(paths[:, 1], minlength=12) / 10_000
    assert freq[ch.strongest_index] == 0
    assert np.allclose(np.delete(freq, ch.strongest_index), 1 / 11, atol=0.01)
    on_main = np.isclose(w, array_response(cfg, THETA_R), rtol=0, atol=1e-12)
    assert np.allclose(on_main.mean(axis=0), 16 / 32, atol=0.03)
    # draw order: every pool beam's count first, then the antenna subsets
    kind = StrategyKind.JOINT_PATH_ANTENNA
    _, cand, _ = montecarlo._beams(ch, cfg, kind, 16, 12)
    count, mask = _draw_weights(kind, cand.size, 32, 16, 10_000, np.random.default_rng(76))
    replay = np.random.default_rng(76)
    pool = cand.size - 1
    assert np.array_equal(count, [0, *replay.multinomial(10_000, np.full(pool, 1 / pool))])
    assert np.array_equal(mask, _random_subsets(replay, 10_000, 32, 16))


# (N, L, m, l_s, angles): today's shape; every non-strongest path in the
# pool; one antenna on the main beam; the full array on it (switched on the
# whole array, joint with an empty secondary set); a single angle (T = 1)
ORACLE_SHAPES = [
    (16, 8, 6, 4, "mixed"),
    (16, 8, 6, 8, "mixed"),
    (16, 8, 1, 4, "mixed"),
    (16, 8, 16, 4, "mixed"),
    (64, 8, 32, 4, "pool"),
]


def _oracle_angles(ch, l_s, angles):
    pool = secondary_pool(ch, l_s)
    never = [i for i in range(ch.n_paths) if i != ch.strongest_index and i not in pool]
    if angles == "pool":
        return [ch.aods_deg[pool[0]]]
    return [THETA_R, ch.aods_deg[pool[0]], *ch.aods_deg[never[:1]], 55.0, 140.0]


def _check_streams_against_oracle(n, L, m, l_s, angles):
    cfg = ArrayConfig(n)
    ch = sample_channel(L, THETA_R, np.random.default_rng(81))
    K = 60
    thetas = _oracle_angles(ch, l_s, angles)
    for kind in ALL:
        streams = kernel_gains(ch, cfg, kind, m, l_s, thetas, K, 82)
        w, paths = sent_symbols(ch, cfg, kind, m, l_s, K, 82)
        for k in range(K):
            assert streams.recv[k] == pytest.approx(
                receiver_gain(ch, cfg, w[k], paths[k]), abs=1e-12
            )
            for t, theta in enumerate(thetas):
                assert streams.eaves[t, k] == pytest.approx(
                    observed_gain(cfg, ch.n_paths, theta, w[k]), abs=1e-12
                )
                steered = ch.aods_deg[paths[k]]
                assert streams.aligned[t, k] == any(cos_aligned(theta, a) for a in steered)
        if len(thetas) > 1:  # each kind sees aligned and unaligned symbols among the angles
            assert streams.aligned.any() and not streams.aligned.all()


def test_streams_match_reference_simulator_per_symbol():
    """Every symbol of the block each kernel reduces, rebuilt from its
    operator and draw, equals the oracle's gains for the weights the kernel
    sent, at the strongest path, a secondary candidate, a never-steered
    path angle and two off-path angles, on every shape of ORACLE_SHAPES."""
    for shape in ORACLE_SHAPES:
        _check_streams_against_oracle(*shape)


# ORACLE_SHAPES at K = 60; 3 symbols on joint's 7 masked beams, so most send
# nothing: on seed 83 the first two, an interior one and the last one are empty;
# and all but one of 256 antennas on the main beam at K = 600, where each beam's
# random part has a mean far above its spread (raw sums of it, uncentered, miss
# M2 by about 1e-9)
MOMENT_SHAPES = [(*shape, 60, 82) for shape in ORACLE_SHAPES] + [
    (16, 8, 6, 8, "mixed", 3, 83),
    (256, 8, 255, 4, "mixed", 600, 82),
]


def _check_moments_against_oracle(n, L, m, l_s, angles, K, seed):
    cfg = ArrayConfig(n)
    ch = sample_channel(L, THETA_R, np.random.default_rng(81))
    thetas = _oracle_angles(ch, l_s, angles)
    T, noise = len(thetas), 1 / 10**1.5
    for kind in ALL:
        s = simulate_streams(ch, cfg, kind, m, l_s, thetas, K, np.random.default_rng(seed))
        g = kernel_gains(ch, cfg, kind, m, l_s, thetas, K, seed)
        got, ref = s.moments, beam_moments(np.vstack([g.eaves, g.recv]), g.row, s.table.shape[1])
        assert np.array_equal(got.count, ref.count) and got.count.sum() == K
        sent = ref.count > 0
        assert np.allclose(got.mean[sent], ref.mean[sent], rtol=0, atol=1e-12)
        assert np.allclose(got.m2, ref.m2, rtol=0, atol=1e-12) and np.all(got.m2 >= 0)
        assert s.recv_abs_sum == pytest.approx(np.abs(g.recv).sum(), rel=1e-12)
        assert receiver_snr(s.recv_abs_sum, K, noise) == pytest.approx(
            receiver_snr_of_samples(g.recv, noise), rel=1e-12
        )
        eve, aligned = got.at(0), s.table[0]
        assert alignment_mixture_snr(eve, aligned, noise) == pytest.approx(
            alignment_mixture_snr_of_samples(g.eaves[0], g.aligned[0], noise), rel=1e-12
        )
        # a block that sent no aligned symbol reads the aligned beams' exact mean gains
        G = montecarlo._operator(ch, cfg, kind, m, l_s, tuple(thetas))[1]
        main_gain = G[aligned, 0].mean() if aligned.any() else 0.0
        assert location_mixture_snr(eve, aligned, got.at(slice(1, T)), L, noise) == pytest.approx(
            location_mixture_snr_of_samples(
                g.eaves[0][g.aligned[0]], list(g.eaves[1:]), L, noise, main_gain
            ),
            rel=1e-12,
        )


@pytest.mark.parametrize("n, L, m, l_s, angles, K, seed", MOMENT_SHAPES)
def test_kernel_moments_match_two_pass_statistics(n, L, m, l_s, angles, K, seed):
    """Per beam and observer, the kernel's count, mean and M2 equal two-pass
    numpy statistics of the same block's per-symbol gains, rebuilt without
    the kernel's sort, chunked GEMMs or reductions (`kernel_gains`); its
    receiver sum equals the sum of |recv|, and each moment-based estimator
    equals the sample formula it replaces, all within 1e-12."""
    _check_moments_against_oracle(n, L, m, l_s, angles, K, seed)


def test_streams_match_reference_simulator_across_chunks(monkeypatch):
    # 7-row mask GEMMs at N = 16 (one row at N = 64 and 256): each beam's symbols
    # span several full GEMMs and a partial one
    monkeypatch.setattr(montecarlo, "SUBSET_CHUNK_ELEMENTS", 7 * 16)
    monkeypatch.setattr(montecarlo, "SUBSET_CHUNK_MIN_ROWS", 1)
    for shape in MOMENT_SHAPES:
        _check_moments_against_oracle(*shape)


# Relative error of a sample variance over K_s symbols is about sqrt(2 / K_s)
# for real Gaussian data; the masked gains are complex and not Gaussian, so
# the bound is a multiple of it (the worst case over these channels reads
# under 2 units)
VARIANCE_UNITS = 4.0


@pytest.mark.parametrize("kind", [StrategyKind.SWITCHED_ARRAY, StrategyKind.JOINT_PATH_ANTENNA])
def test_masked_beam_variance_matches_finite_population_sampling(kind):
    """Each sent beam's M2 / count at each eavesdropper angle lies within
    VARIANCE_UNITS * sqrt(2 / K_s) (relative) of the beam's exact
    finite-population variance (`oracle.masked_beam_variance`), which reads
    only the beams: a beam reduced over another beam's symbols, or with
    another beam's operand, fails it."""
    K, cfg, m, l_s, thetas = 40_000, ArrayConfig(32), 16, 5, [55.0, 70.0, 140.0]
    worst = 0.0
    for seed in range(5):
        ch = sample_channel(12, THETA_R, np.random.default_rng(90 + seed))
        s = simulate_streams(ch, cfg, kind, m, l_s, thetas, K, np.random.default_rng(95 + seed))
        exact = masked_beam_variance(ch, cfg, kind, m, l_s, thetas)
        count = s.moments.count
        sent = np.flatnonzero(count)
        assert count[0] == 0 and len(sent) == len(count) - 1
        for b in sent:
            got = s.moments.m2[b, :-1] / count[b]
            units = np.abs(got / exact[b] - 1) / np.sqrt(2 / count[b])
            worst = max(worst, float(units.max()))
    assert worst < VARIANCE_UNITS


MEMO_SPECS = [
    dict(axis="rho_e_db", axis_values=(0.0, 10.0, 20.0)),
    dict(axis="theta_e_deg", axis_values=(40.0, 55.0, 140.0)),
    dict(axis="n_antennas", axis_values=(16.0, 32.0), theta_e_deg=55.0),
]


@pytest.mark.parametrize("axis_spec", MEMO_SPECS, ids=lambda d: d["axis"])
def test_operator_memo_is_transparent(monkeypatch, axis_spec):
    # the sweep's kernel blocks, each shared by the points of one key, against a
    # fresh block per simulate_streams call: the masked rows regroup their GEMMs,
    # which may move a joint moment by an ulp
    spec = small_spec(symbols_per_point=200, ensemble=3, **axis_spec)
    shared = run_sweep(spec).rows
    simulate = montecarlo.simulate_streams
    monkeypatch.setattr(
        montecarlo, "simulate_streams", lambda *args: simulate(*args[:-1])  # drop the block
    )
    fresh = run_sweep(spec).rows
    assert len(shared) == len(fresh)
    for a, b in zip(shared, fresh):
        if a.strategy is not StrategyKind.JOINT_PATH_ANTENNA:
            assert a == b
            continue
        assert (a.strategy, a.axis_value, a.status) == (b.strategy, b.axis_value, b.status)
        for field in ("snr_r_db", "snr_e_db", "rate_bps_hz", "stderr"):
            assert getattr(a, field) == pytest.approx(getattr(b, field), rel=0, abs=1e-9)


def test_operator_memo_is_read_only_and_cleared_per_sweep(monkeypatch):
    cfg = ArrayConfig(16)
    ch = sample_channel(8, THETA_R, np.random.default_rng(83))
    subsets = SubsetBlock(np.random.default_rng(85))
    for kind in ALL:
        block = KernelBlock(_block_key(ch, cfg, kind, 6, 4, [55.0]))
        args = (ch, cfg, kind, 6, 4, [55.0], 100)
        plan = functools.partial(np.random.default_rng, 84)
        first = simulate_streams(*args, plan, subsets, block)
        shared = [
            *montecarlo._beams(ch, cfg, kind, 6, 4),
            *block.operator,
            subsets.mask(100, 16, 6),
            first.moments.count, first.moments.mean, first.moments.m2, first.table,
        ]
        for a in shared:
            if a is not None:
                assert not a.flags.writeable
        # a repeat with the same plan function is served the kept reduction, and
        # a Generator's draw is never kept
        assert simulate_streams(*args, plan, subsets, block) is first
        drawn = simulate_streams(*args, np.random.default_rng(84), subsets, block)
        assert drawn is not first
        assert simulate_streams(*args, np.random.default_rng(84), subsets, block) is not drawn
        assert simulate_streams(*args, plan, subsets, block) is first
    with pytest.raises(ValueError, match="built for another"):
        simulate_streams(ch, cfg, kind, 6, 4, [40.0], 100, plan, subsets, block)

    made = []

    class Recorded(KernelBlock):
        def __init__(self, key):
            super().__init__(key)
            made.append(weakref.ref(self))

    def evaluate(kind, pt, ch, subsets, block):
        block([pt.theta_e_deg])
        live = [b for b in (r() for r in made) if b is not None]
        # each strategy holds at most one block, and none of an earlier channel
        # or, off the rho_E axis, of an earlier point
        assert max(Counter(b.key[2] for b in live).values()) == 1
        assert all(b.key[0] is ch and b.key[5] == (pt.theta_e_deg,) for b in live)
        return 1.0, 0.5

    monkeypatch.setattr(montecarlo, "KernelBlock", Recorded)
    # per ensemble index, the two rho_E points share each strategy's block
    for axis, values, per_ensemble in (
        ("rho_e_db", (0.0, 10.0), 4), ("theta_e_deg", (40.0, 55.0), 8)
    ):
        made.clear()
        montecarlo._sweep(small_spec(axis=axis, axis_values=values, ensemble=2), evaluate)
        assert len(made) == 2 * per_ensemble
        assert all(r() is None for r in made)  # none outlives the sweep


def test_masked_reduction_matches_two_pass_statistics_on_any_counts():
    # joint counts over one K = 400 mask, reduced by one reduceat over the sent
    # beams' starts: beams that send nothing first, inside and last, and
    # segments of many lengths, against two-pass statistics of the same gains
    K, cfg, m, l_s, thetas = 400, ArrayConfig(16), 6, 5, [40.0, 55.0, 70.0]
    ch = sample_channel(8, THETA_R, np.random.default_rng(88))
    mask = SubsetBlock(np.random.default_rng(89)).mask(K, 16, m)
    key = _block_key(ch, cfg, StrategyKind.JOINT_PATH_ANTENNA, m, l_s, thetas)
    operator = montecarlo._operator(*key)
    draws = [
        [0, 100, 100, 200, 0],
        [0, 110, 90, 200, 0],
        [0, 150, 120, 130, 0],
        [0, 240, 110, 0, 50],
        [0, 0, 0, 0, 400],
        [0, 1, 0, 398, 1],
    ]
    for count in map(np.array, draws):
        got = montecarlo._reduce(*operator, count, mask)
        g = draw_gains(*operator, count, mask)
        ref = beam_moments(np.vstack([g.eaves, g.recv]), g.row, len(count))
        assert np.array_equal(got.moments.count, count)
        sent = count > 0
        assert np.allclose(got.moments.mean[sent], ref.mean[sent], rtol=0, atol=1e-12)
        assert np.array_equal(got.moments.mean[~sent], operator[1][~sent])
        assert np.allclose(got.moments.m2, ref.m2, rtol=0, atol=1e-12)
        assert got.recv_abs_sum == pytest.approx(np.abs(g.recv).sum(), rel=1e-12)


SHARING_SPECS = [
    dict(axis="rho_e_db", axis_values=(0.0, 10.0, 20.0)),
    dict(axis="n_antennas", axis_values=(16.0, 32.0), theta_e_deg=55.0),
    # switched and joint are inapplicable at N = 8, beside blocks of the other sizes
    pytest.param(
        dict(axis="n_antennas", axis_values=(8.0, 16.0, 32.0), m_main=12, theta_e_deg=55.0),
        id="n_antennas-inapplicable",
    ),
    # joint is inapplicable at L = 1, so its block key must not come from its own points
    dict(axis="n_paths", axis_values=(1.0, 2.0, 12.0)),
]


def _csv_rows(spec):
    return run_sweep(spec).to_csv().splitlines()[1:]


@pytest.mark.parametrize("axis_spec", SHARING_SPECS, ids=lambda d: d["axis"])
def test_rows_do_not_depend_on_the_other_strategies_requested(axis_spec):
    # switched and joint share subsets, so neither may depend on the other being run
    tiny = dict(symbols_per_point=200, ensemble=2, **axis_spec)
    full = _csv_rows(small_spec(**tiny))
    assert _csv_rows(small_spec(strategies=ALL[::-1], **tiny)) == full
    for kind in ALL:
        alone = _csv_rows(small_spec(strategies=(kind,), **tiny))
        assert alone == [line for line in full if line.startswith(kind.value + ",")]


@pytest.mark.parametrize(
    "axis_spec",
    [
        dict(axis="rho_e_db", axis_values=(0.0, 10.0, 20.0)),
        dict(axis="n_antennas", axis_values=(16.0, 32.0), theta_e_deg=55.0),
    ],
    ids=lambda d: d["axis"],
)
def test_switched_and_joint_read_one_subset_block_per_array_size_and_channel(
    monkeypatch, axis_spec
):
    K, ensemble = 300, 2
    drawn = []
    spied = montecarlo._random_subsets

    def spy(rng, K, n, m):
        drawn.append(K * n)
        return spied(rng, K, n, m)

    reads = {}  # block -> every reader's mask
    read = SubsetBlock.mask

    def record(block, *args):
        mask = read(block, *args)
        reads.setdefault(block, []).append(mask)
        return mask

    monkeypatch.setattr(montecarlo, "_random_subsets", spy)
    monkeypatch.setattr(SubsetBlock, "mask", record)
    spec = small_spec(
        strategies=(StrategyKind.SWITCHED_ARRAY, StrategyKind.JOINT_PATH_ANTENNA),
        symbols_per_point=K, ensemble=ensemble, **axis_spec,
    )
    sizes = [int(v) for v in spec.axis_values] if spec.axis == "n_antennas" else [32]
    run_sweep(spec)
    assert sum(drawn) == ensemble * K * sum(sizes)  # K * N elements per (N, channel)
    blocks = list(reads.values())
    assert len(blocks) == ensemble * len(sizes)
    # switched and joint each read the mask once per kernel block: the rho_E
    # points of one N share one block per strategy, and each antennas point
    # is the only one of its N
    for masks in blocks:
        assert len(masks) == 2
        assert all(np.array_equal(masks[0], m) for m in masks)
    # each block is one whole draw keyed by the first axis index of its N, so
    # the antennas axis keeps one stream per axis index
    keyed = [
        spied(
            montecarlo._subset_rng(spec, j, ens), K, n,
            montecarlo._Point.at(spec, spec.axis_values[j]).m_main,
        )
        for ens in range(ensemble)
        for j, n in enumerate(sizes)
    ]
    for masks, want in zip(blocks, keyed, strict=True):
        assert np.array_equal(masks[0], want)
    for a, b in itertools.combinations([masks[0] for masks in blocks], 2):
        # each (N, channel) gets its own block: across ensemble indices, and across N
        assert a.shape != b.shape or not np.array_equal(a, b)


def test_subset_block_is_one_draw_whatever_its_first_reader(monkeypatch):
    # chunks of 3 symbols or of 12: the block is still one (K, n) draw, and every
    # later reader gets the first reader's read-only array
    whole = _random_subsets(np.random.default_rng(86), 50, 16, 6)
    for step in (3, 12):
        monkeypatch.setattr(montecarlo, "SUBSET_CHUNK_ELEMENTS", step * 16)
        block = SubsetBlock(np.random.default_rng(86))
        first = block.mask(50, 16, 6)
        assert np.array_equal(first, whole) and not first.flags.writeable
        assert block.mask(50, 16, 6) is first
    with pytest.raises(ValueError, match="subset block holds"):
        block.mask(50, 16, 5)


def test_sweep_hands_over_uniform_subsets():
    # each antenna sits on the main beam m/N of the time in the block the sweep hands over
    seen = []

    def evaluate(kind, pt, ch, subsets, block):
        if not seen:
            K, n = 10_000, pt.cfg.n_antennas
            seen.append(subsets.mask(K, n, pt.m_main))
        return 1.0, 0.5

    spec = small_spec(
        strategies=(StrategyKind.SWITCHED_ARRAY,), axis="rho_e_db", axis_values=(10.0,),
        symbols_per_point=10_000, ensemble=1,
    )
    montecarlo._sweep(spec, evaluate)
    (block,) = seen
    assert np.all(block.sum(axis=1) == 16)
    assert np.allclose(block.mean(axis=0), 16 / 32, atol=0.03)


def test_plan_streams_are_built_only_by_the_draws_that_read_them(monkeypatch):
    # conventional and switched (with the sweep's subset block) read no plan
    # stream, so the sweep builds one per random-path and joint kernel block only,
    # keyed by the axis index at which the block was built: one at the first
    # index for both rho_E points, which share the block's draw, and each
    # point's own for the theta_E points
    built = []
    spied = montecarlo._plan_rng

    def spy(spec, strat, axis_idx, ens):
        built.append((strat, axis_idx, ens))
        return spied(spec, strat, axis_idx, ens)

    for axis, values, block_index in (
        ("rho_e_db", (0.0, 10.0), (0,)), ("theta_e_deg", (40.0, 55.0), (0, 1))
    ):
        spec = small_spec(axis=axis, axis_values=values, ensemble=2, symbols_per_point=100)
        rows = _csv_rows(spec)
        built.clear()
        monkeypatch.setattr(montecarlo, "_plan_rng", spy)
        assert _csv_rows(spec) == rows
        monkeypatch.setattr(montecarlo, "_plan_rng", spied)
        assert sorted(built, key=str) == sorted(
            itertools.product(
                (StrategyKind.RANDOM_PATH, StrategyKind.JOINT_PATH_ANTENNA), block_index, range(2)
            ),
            key=str,
        )


def test_rho_e_points_of_one_channel_share_one_reduction(monkeypatch):
    # every rho_E point of one (strategy, channel) draws the same counts from
    # the same plan stream, so its kernel block serves the one reduction again
    served = {}  # (strategy, channel) -> every call's streams
    simulate = montecarlo.simulate_streams

    def spy(ch, cfg, kind, *args):
        streams = simulate(ch, cfg, kind, *args)
        served.setdefault((kind, ch.aods_deg.tobytes()), []).append(streams)
        return streams

    monkeypatch.setattr(montecarlo, "simulate_streams", spy)
    values = (0.0, 10.0, 20.0)
    run_sweep(small_spec(axis="rho_e_db", axis_values=values, ensemble=2, symbols_per_point=200))
    assert len(served) == len(ALL) * 2
    for calls in served.values():
        assert len(calls) == len(values) and all(streams is calls[0] for streams in calls)


def test_rho_e_points_of_one_channel_draw_and_pool_once(monkeypatch):
    # the rho_E points of one (strategy, channel) share its block's one count
    # draw and its eavesdropper views' pools, while each point still simulates
    # its block and calls its estimators once
    drawn, pooled, calls = Counter(), [], Counter()
    draw, pool = montecarlo._draw_weights, BeamMoments._pool

    def draw_spy(kind, *args):
        drawn[kind] += 1
        return draw(kind, *args)

    def pool_spy(moments, beams):
        pooled.append(moments._pool_key(beams))
        return pool(moments, beams)

    def counted(name):
        fn = getattr(montecarlo, name)

        def spy(*args):
            calls[name] += 1
            return fn(*args)

        return spy

    monkeypatch.setattr(montecarlo, "_draw_weights", draw_spy)
    monkeypatch.setattr(BeamMoments, "_pool", pool_spy)
    estimators = ("receiver_snr", "alignment_mixture_snr", "location_mixture_snr")
    for name in ("simulate_streams", *estimators):
        monkeypatch.setattr(montecarlo, name, counted(name))
    values, ensemble = (0.0, 10.0, 20.0), 2
    run_sweep(
        small_spec(axis="rho_e_db", axis_values=values, ensemble=ensemble, symbols_per_point=200)
    )
    assert drawn == {kind: ensemble for kind in ALL}
    # two groups per (strategy, channel), each pooled at its first point and kept:
    # the unaligned and aligned beams at the eavesdropper, or, as theta_E =
    # theta_R lies on a transmit angle of joint, joint's mainlobe and its pool of
    # every beam at the sidelobe angles
    assert len(pooled) == ensemble * len(ALL) * 2 and None not in pooled
    points = len(ALL) * len(values) * ensemble
    assert calls["simulate_streams"] == calls["receiver_snr"] == points
    assert calls["location_mixture_snr"] == len(values) * ensemble
    assert calls["alignment_mixture_snr"] == points - calls["location_mixture_snr"]


def test_mean_gain_is_computed_once_per_channel(monkeypatch):
    computed = []

    def mean_gain(ch):
        computed.append(ch)
        return float(np.abs(ch.gains).mean())

    spied = functools.cached_property(mean_gain)
    spied.__set_name__(ChannelRealization, "mean_gain")
    monkeypatch.setattr(ChannelRealization, "mean_gain", spied)
    spec = small_spec(
        strategies=(StrategyKind.RANDOM_PATH, StrategyKind.JOINT_PATH_ANTENNA),
        axis="rho_e_db", axis_values=(0.0, 10.0, 20.0), ensemble=2, symbols_per_point=100,
    )
    run_sweep(spec)
    assert len(computed) == 2  # one channel per ensemble index, read by 12 evaluations
    ch = computed[0]
    assert ch.mean_gain == receiver_reference_gain(ch, StrategyKind.JOINT_PATH_ANTENNA)


def test_random_path_alignment_label_frequency():
    cfg = ArrayConfig(32)
    ch = sample_channel(12, THETA_R, np.random.default_rng(78))
    streams = simulate_streams(
        ch, cfg, StrategyKind.RANDOM_PATH, 16, 5, [THETA_R], 20_000,
        np.random.default_rng(79),
    )
    count = streams.moments.count
    frac = count[streams.table[0]].sum() / count.sum()
    assert frac == pytest.approx(1 / 12, abs=0.01)
    off = simulate_streams(
        ch, cfg, StrategyKind.RANDOM_PATH, 16, 5, [39.5], 1000,
        np.random.default_rng(80),
    )
    assert off.moments.count[off.table[0]].sum() == 0


def test_run_sweep_deterministic():
    spec = small_spec(ensemble=1, symbols_per_point=100)
    a = run_sweep(spec).to_csv()
    b = run_sweep(spec).to_csv()
    assert a == b


def test_zero_secrecy_baselines_on_path():
    spec = small_spec(
        strategies=(StrategyKind.CONVENTIONAL, StrategyKind.SWITCHED_ARRAY),
        rho_r_db=10.0,
        rho_e_db=15.0,
    )
    table = run_sweep(spec)
    for row in table.rows:
        assert row.rate_bps_hz == 0.0
        assert row.stderr == 0.0


def test_random_path_positive_rate_on_path():
    spec = small_spec(strategies=(StrategyKind.RANDOM_PATH,))
    (row,) = run_sweep(spec).rows
    assert row.rate_bps_hz > 0


def test_strategy_ordering_on_path():
    # headline qualitative result: joint >= random-path >= baselines = 0
    spec = small_spec(ensemble=10, symbols_per_point=1000)
    rows = {r.strategy: r for r in run_sweep(spec).rows}
    assert rows[StrategyKind.JOINT_PATH_ANTENNA].rate_bps_hz > rows[
        StrategyKind.RANDOM_PATH
    ].rate_bps_hz
    assert rows[StrategyKind.RANDOM_PATH].rate_bps_hz > 0
    assert rows[StrategyKind.SWITCHED_ARRAY].rate_bps_hz == 0.0
    assert rows[StrategyKind.CONVENTIONAL].rate_bps_hz == 0.0


def test_inapplicable_rows_flagged_not_dropped():
    spec = small_spec(
        strategies=(StrategyKind.RANDOM_PATH, StrategyKind.JOINT_PATH_ANTENNA),
        axis="n_paths",
        axis_values=(1.0, 4.0),
    )
    table = run_sweep(spec)
    assert len(table.rows) == 4
    joint_rows = [r for r in table.rows if r.strategy is StrategyKind.JOINT_PATH_ANTENNA]
    by_value = {r.axis_value: r for r in joint_rows}
    assert by_value[1.0].status == "inapplicable"
    assert by_value[1.0].rate_bps_hz is None
    assert by_value[4.0].status == "ok"


def test_joint_without_secondary_candidates_is_rejected():
    # l_s = 1 leaves only the strongest path in the pool, at every path count,
    # so the spec rejects the run with the CLI's message instead of writing rows
    with pytest.raises(ValueError, match="joint path-and-antenna selection requires ls >= 2"):
        small_spec(
            strategies=(StrategyKind.JOINT_PATH_ANTENNA, StrategyKind.CONVENTIONAL),
            axis="n_paths", axis_values=(2.0, 12.0), l_s=1, ensemble=1, symbols_per_point=100,
        )


def test_switched_rows_inapplicable_outside_the_array():
    # on the antennas axis m_main stays fixed while N moves: it must lie in [1, N]
    spec = small_spec(
        strategies=(StrategyKind.SWITCHED_ARRAY,), axis="n_antennas",
        axis_values=(16.0, 32.0), m_main=24, ensemble=2, symbols_per_point=100,
    )
    assert {r.axis_value: r.status for r in run_sweep(spec).rows} == {
        16.0: "inapplicable",
        32.0: "ok",
    }
    with pytest.raises(ValueError, match="m-main must be >= 1, got 0"):
        SweepSpec(**{**spec.__dict__, "m_main": 0})


def mostly(good, bad):
    """Values from good, or one time in eight from bad."""
    return st.integers(0, 7).flatmap(lambda i: bad if i == 3 else good)


# bad rho: nan, +-inf, dB whose linear ratio overflows, and +-3082 dB, whose
# ratio is finite but whose receiver SNR overflows
RHO_DB = mostly(
    st.floats(-1000, 1000), st.floats() | st.floats(-3100, 3100) | st.sampled_from([-3082.0, 3082.0])
)
ANGLE = mostly(st.integers(1, 180).map(float) | st.floats(1, 180), st.floats())
ANTENNAS = mostly(st.integers(2, 70), st.integers(-1, 1))
PATHS = mostly(st.integers(1, 180), st.sampled_from([0, 181, 200]))
AXIS_VALUES = {
    "theta_e_deg": ANGLE,
    "rho_e_db": RHO_DB,
    "n_antennas": mostly(ANTENNAS, st.just(16.5)).map(float),
    "n_paths": mostly(PATHS, st.just(2.5)).map(float),
}


@st.composite
def any_spec(draw):
    """SweepSpec arguments over every axis, mostly in range."""
    axis = draw(st.sampled_from(sorted(AXIS_VALUES)))
    return dict(
        strategies=tuple(draw(st.lists(st.sampled_from(ALL), min_size=1, max_size=4, unique=True))),
        axis=axis,
        axis_values=tuple(draw(st.lists(AXIS_VALUES[axis], min_size=1, max_size=3))),
        n_antennas=draw(ANTENNAS),
        n_paths=draw(PATHS),
        m_main=draw(st.none() | mostly(st.integers(1, 72), st.integers(-1, 0))),
        l_s=draw(mostly(st.integers(2, 200), st.integers(-1, 1))),
        rho_r_db=draw(RHO_DB),
        rho_e_db=draw(RHO_DB),
        theta_r_deg=draw(ANGLE),
        theta_e_deg=draw(ANGLE),
        symbols_per_point=100,
        ensemble=draw(st.integers(1, 2)),
        base_seed=draw(st.integers(0, 3)),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kwargs=any_spec())
# joint's 157 pool beams leave theta_E's own beam unsent in 100 symbols, and
# l_s = L leaves no sidelobe angle: the location mixture used to read 0 (-inf dB)
@example(kwargs=dict(
    strategies=(StrategyKind.JOINT_PATH_ANTENNA,), axis="n_paths", axis_values=(158.0,),
    n_antennas=2, l_s=158, rho_r_db=0.0, rho_e_db=0.0, theta_r_deg=1.0, theta_e_deg=2.0,
    symbols_per_point=100, ensemble=1,
))
def test_spec_rejects_a_run_or_every_ok_row_is_sound(kwargs):
    # one validator: a spec the library accepts runs without an error or a
    # numpy warning (the suite turns RuntimeWarning into an error), and
    # every ok row meets the benchmark checker's row invariants
    try:
        spec = SweepSpec(**kwargs)
    except ValueError:
        return
    for row in run_sweep(spec).rows:
        if row.status == "inapplicable":
            continue
        assert row.status == "ok"
        values = (row.snr_r_db, row.snr_e_db, row.rate_bps_hz, row.stderr)
        assert all(np.isfinite(values)), row
        assert row.stderr >= 0, row
        assert 0 <= row.rate_bps_hz <= np.log2(1 + 10 ** (row.snr_r_db / 10)) + 1e-9, row


def _row(**kw):
    fields = dict(snr_r_db=10.0, snr_e_db=0.0, rate_bps_hz=1.0, stderr=0.1)
    return SweepRow(
        StrategyKind.JOINT_PATH_ANTENNA, "rho_e_db", 12.5, **{**fields, **kw}, status="ok"
    )


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(snr_r_db=float("nan")), "snr_r_db is nan, not finite"),
        (dict(snr_e_db=-np.inf), "snr_e_db is -inf, not finite"),
        (dict(rate_bps_hz=np.inf), "secrecy_rate_bps_hz is inf, not finite"),
        (dict(stderr=float("nan")), "stderr is nan, not finite"),
        (dict(stderr=-0.5), "stderr is -0.5, below 0"),
        (dict(rate_bps_hz=-1e-9), "secrecy_rate_bps_hz is -1e-09, outside [0, 3.45"),
        (dict(rate_bps_hz=3.5), "secrecy_rate_bps_hz is 3.5, outside [0, 3.45"),
    ],
)
def test_row_check_names_strategy_axis_value_and_field(fields, message):
    # receiver SNR 10 (linear) caps the rate at log2(11) = 3.459
    _check_row(_row(), 10.0)
    _check_row(_row(rate_bps_hz=np.log2(11.0), stderr=0.0), 10.0)
    with pytest.raises(ValueError) as err:
        _check_row(_row(**fields), 10.0)
    assert str(err.value).startswith("joint at rho-e 12.5: " + message)


def test_rows_sorted_and_rates_valid():
    spec = small_spec(axis_values=(55.0, 40.0), ensemble=2, symbols_per_point=100)
    table = run_sweep(spec)
    keys = [(r.strategy.value, r.axis_value) for r in table.rows]
    assert keys == sorted(keys)
    for r in table.rows:
        assert r.rate_bps_hz >= 0 and np.isfinite(r.rate_bps_hz)
        assert r.stderr >= 0


def test_stderr_shrinks_with_ensemble():
    base = small_spec(
        strategies=(StrategyKind.RANDOM_PATH,), axis_values=(55.0,),
        symbols_per_point=500,
    )
    small = run_sweep(SweepSpec(**{**base.__dict__, "ensemble": 25})).rows[0]
    large = run_sweep(SweepSpec(**{**base.__dict__, "ensemble": 100})).rows[0]
    assert small.stderr > 0
    ratio = small.stderr / large.stderr
    assert 1.2 < ratio < 3.5  # expect about 2 = sqrt(100/25)


def test_csv_shape():
    spec = small_spec(ensemble=1, symbols_per_point=100)
    text = run_sweep(spec).to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == ResultTable.CSV_HEADER
    assert len(lines) == 5
    assert text.endswith("\n")


def test_compare_analytic_rejects_baselines():
    spec = small_spec(strategies=(StrategyKind.CONVENTIONAL,))
    with pytest.raises(ValueError):
        compare_analytic(spec)


def test_compare_analytic_random_path_receiver_column():
    spec = small_spec(
        strategies=(StrategyKind.RANDOM_PATH,), axis="rho_e_db",
        axis_values=(5.0, 15.0), ensemble=2, symbols_per_point=100,
    )
    for row in compare_analytic(spec).rows:
        # N rho_R / L = 26.667 -> 14.26 dB
        assert row.snr_r_db == pytest.approx(10 * np.log10(32 * 10 / 12), abs=1e-6)


def test_compare_analytic_tracks_monte_carlo():
    spec = small_spec(
        strategies=(StrategyKind.RANDOM_PATH,), ensemble=20, symbols_per_point=20_000
    )
    mc = run_sweep(spec).rows[0]
    cf = compare_analytic(spec).rows[0]
    assert cf.rate_bps_hz == pytest.approx(mc.rate_bps_hz, rel=0.10)


def test_compare_analytic_clamped_rows_agree():
    # strong eavesdropper drives both estimates to the clamp
    spec = small_spec(
        strategies=(StrategyKind.RANDOM_PATH,), rho_e_db=30.0, ensemble=3,
        symbols_per_point=500,
    )
    mc = run_sweep(spec).rows[0]
    cf = compare_analytic(spec).rows[0]
    assert mc.rate_bps_hz == 0.0
    assert cf.rate_bps_hz == 0.0


@settings(max_examples=15, deadline=None)
@given(order=st.permutations(ALL), k=st.integers(1, len(ALL)))
def test_rows_independent_of_strategy_order_and_subset(order, k):
    tiny = dict(axis_values=(40.0, 55.0), symbols_per_point=100, ensemble=2)
    full = run_sweep(small_spec(**tiny)).rows
    chosen = tuple(order[:k])
    rows = run_sweep(small_spec(strategies=chosen, **tiny)).rows
    assert rows == [r for r in full if r.strategy in chosen]
