"""Unit tests for the sweep harness and vectorized symbol kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwsec.array_geometry import ArrayConfig
from mmwsec.channel import sample_channel
from mmwsec.montecarlo import (
    LABEL_MAIN,
    LABEL_NONE,
    ResultTable,
    SweepSpec,
    _random_subsets,
    compare_analytic,
    figure_preset,
    receiver_reference_gain,
    run_sweep,
    simulate_streams,
)
from mmwsec.signal_engine import ObserverKind, ObserverSpec, simulate_symbols
from mmwsec.strategies import StrategyKind, StrategyParams

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
    with pytest.raises(ValueError):
        small_spec(symbols_per_point=99)
    with pytest.raises(ValueError):
        small_spec(ensemble=0)


def test_figure_presets_match_captions():
    f1 = figure_preset(1)
    assert f1.n_antennas == 32
    assert f1.rho_r_db == 10.0
    assert f1.rho_e_db == 15.0
    assert f1.axis == "theta_e_deg"
    assert f1.curve_param == "n_paths"
    f2 = figure_preset(2)
    assert f2.n_paths == 12
    assert f2.curve_param == "n_antennas"
    f3 = figure_preset(3)
    assert f3.theta_e_deg == 40.0
    assert f3.n_paths == 12
    assert f3.axis == "rho_e_db"
    f4 = figure_preset(4)
    assert f4.theta_e_deg == 55.0
    with pytest.raises(ValueError):
        figure_preset(5)


def test_random_subsets_shape_and_uniformity():
    rng = np.random.default_rng(70)
    mask = _random_subsets(rng, 4000, 16, 5)
    assert mask.shape == (4000, 16)
    assert np.all(mask.sum(axis=1) == 5)
    inclusion = mask.mean(axis=0)
    assert np.allclose(inclusion, 5 / 16, atol=0.03)


def test_receiver_reference_gain_convention():
    ch = sample_channel(12, THETA_R, np.random.default_rng(71))
    strongest = abs(ch.paths[ch.strongest_index].gain)
    mean_all = np.abs(ch.gains).mean()
    assert receiver_reference_gain(ch, StrategyKind.CONVENTIONAL) == strongest
    assert receiver_reference_gain(ch, StrategyKind.SWITCHED_ARRAY) == strongest
    assert receiver_reference_gain(ch, StrategyKind.RANDOM_PATH) == pytest.approx(mean_all)
    assert receiver_reference_gain(ch, StrategyKind.JOINT_PATH_ANTENNA) == pytest.approx(
        mean_all
    )


def test_streams_match_reference_simulator_values():
    """The vectorized kernels and the per-symbol reference draw from the
    same gain alphabet for every strategy."""
    cfg = ArrayConfig(32)
    ch = sample_channel(12, THETA_R, np.random.default_rng(72))
    obs = [
        ObserverSpec(ObserverKind.RECEIVER, THETA_R),
        ObserverSpec(ObserverKind.EAVESDROPPER, 55.0),
    ]
    for kind in (StrategyKind.CONVENTIONAL, StrategyKind.RANDOM_PATH):
        streams = simulate_streams(
            ch, cfg, kind, 16, 5, [55.0], 2000, np.random.default_rng(73)
        )
        ref = simulate_symbols(
            ch, cfg, kind, StrategyParams(16, 5), obs, 2000, np.random.default_rng(74)
        )
        vec_vals = np.unique(np.round(streams.recv, 9))
        ref_vals = np.unique(np.round(ref.gains[0], 9))
        assert np.allclose(vec_vals, ref_vals, atol=1e-8)
        vec_e = np.unique(np.round(streams.eaves[0], 9))
        ref_e = np.unique(np.round(ref.gains[1], 9))
        assert np.allclose(vec_e, ref_e, atol=1e-8)


def test_streams_match_reference_simulator_moments():
    # switched / joint plans are random per symbol: compare stream moments
    cfg = ArrayConfig(32)
    ch = sample_channel(12, THETA_R, np.random.default_rng(75))
    obs = [
        ObserverSpec(ObserverKind.RECEIVER, THETA_R),
        ObserverSpec(ObserverKind.EAVESDROPPER, 55.0),
    ]
    for kind in (StrategyKind.SWITCHED_ARRAY, StrategyKind.JOINT_PATH_ANTENNA):
        streams = simulate_streams(
            ch, cfg, kind, 16, 5, [55.0], 8000, np.random.default_rng(76)
        )
        ref = simulate_symbols(
            ch, cfg, kind, StrategyParams(16, 5), obs, 8000, np.random.default_rng(77)
        )
        assert np.abs(streams.recv).mean() == pytest.approx(
            np.abs(ref.gains[0]).mean(), rel=0.02
        )
        assert np.abs(streams.eaves[0]).mean() == pytest.approx(
            np.abs(ref.gains[1]).mean(), rel=0.05
        )


def test_random_path_alignment_label_frequency():
    cfg = ArrayConfig(32)
    ch = sample_channel(12, THETA_R, np.random.default_rng(78))
    streams = simulate_streams(
        ch, cfg, StrategyKind.RANDOM_PATH, 16, 5, [THETA_R], 20_000,
        np.random.default_rng(79),
    )
    frac = np.mean(streams.labels[0] == LABEL_MAIN)
    assert frac == pytest.approx(1 / 12, abs=0.01)
    off = simulate_streams(
        ch, cfg, StrategyKind.RANDOM_PATH, 16, 5, [39.5], 1000,
        np.random.default_rng(80),
    )
    assert np.all(off.labels[0] == LABEL_NONE)


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


def test_joint_rows_inapplicable_without_secondary_candidates():
    # l_s = 1 leaves only the strongest path in the pool, at every path count
    spec = small_spec(
        strategies=(StrategyKind.JOINT_PATH_ANTENNA, StrategyKind.CONVENTIONAL),
        axis="n_paths", axis_values=(2.0, 12.0), l_s=1, ensemble=1, symbols_per_point=100,
    )
    status = {(r.strategy, r.axis_value): r.status for r in run_sweep(spec).rows}
    assert status == {
        (StrategyKind.CONVENTIONAL, 2.0): "ok",
        (StrategyKind.CONVENTIONAL, 12.0): "ok",
        (StrategyKind.JOINT_PATH_ANTENNA, 2.0): "inapplicable",
        (StrategyKind.JOINT_PATH_ANTENNA, 12.0): "inapplicable",
    }


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
