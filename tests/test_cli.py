"""End-to-end tests of the command-line front end."""

from pathlib import Path

import pytest

from mmwsec import montecarlo
from mmwsec.channel import sample_channel
from mmwsec.cli import main, parse_strategies
from mmwsec.montecarlo import ResultTable
from mmwsec.strategies import StrategyKind

GOLDEN = Path(__file__).parent / "golden"

FAST = [
    "--symbols", "100",
    "--ensemble", "1",
    "--seed", "7",
]


def run_cli(args):
    return main(args)


def test_parse_strategies():
    assert parse_strategies("all") == tuple(StrategyKind)
    assert parse_strategies("joint,random-path") == (
        StrategyKind.JOINT_PATH_ANTENNA,
        StrategyKind.RANDOM_PATH,
    )
    from mmwsec.cli import CliError

    with pytest.raises(CliError):
        parse_strategies("")
    with pytest.raises(CliError):
        parse_strategies("bogus")


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--frequency", "60"])
    assert exc.value.code != 0


def test_joint_requires_multiple_paths(capsys):
    code = run_cli(["sweep", "--theta-e", "40", "--paths", "1", "--strategies", "joint"])
    assert code != 0
    assert "paths" in capsys.readouterr().err


@pytest.mark.parametrize(
    "axis_args",
    [["--axis", "rho-e", "--values", "10"], ["--axis", "paths", "--values", "2,12"]],
)
def test_joint_requires_a_secondary_candidate(tmp_path, capsys, axis_args):
    code = run_cli(
        ["sweep", *axis_args, "--strategies", "joint,conventional", "--ls", "1", *FAST,
         "-o", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "requires ls >= 2" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_single_channel_ensemble_warns_about_stderr(tmp_path, capsys):
    args = ["sweep", "--axis", "rho-e", "--values", "10", "--strategies", "random-path",
            "--symbols", "100", "-o", str(tmp_path / "x.csv")]
    assert run_cli([*args, "--ensemble", "1"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("warning:")] == [
        "warning: ensemble=1: the stderr column reads 0 because one channel gives "
        "no spread estimate"
    ]
    assert run_cli([*args, "--ensemble", "2"]) == 0
    assert "warning" not in capsys.readouterr().err


def test_contradictory_m_main(capsys):
    code = run_cli(
        ["sweep", "--antennas", "16", "--m-main", "20", "--strategies", "random-path"]
    )
    assert code != 0
    assert "m-main" in capsys.readouterr().err


def test_switched_subset_size_checked_on_antennas_axis(tmp_path, capsys):
    out = tmp_path / "sw.csv"
    base = ["sweep", "--axis", "antennas", "--values", "16,32", "--strategies", "switched"]
    assert run_cli([*base, *FAST, "--m-main", "0", "-o", str(out)]) == 2
    assert "m-main" in capsys.readouterr().err
    assert run_cli([*base, *FAST, "--m-main", "24", "-o", str(out)]) == 0
    status = [line.split(",")[-1] for line in out.read_text().splitlines()[1:]]
    assert status == ["inapplicable", "ok"]  # a 24-subset of 16 antennas does not exist


def test_observation_angles_checked_on_every_axis(tmp_path, capsys):
    # only cos(theta) enters the model, so 200 deg would alias 160 deg
    out = tmp_path / "x.csv"
    args = ["--strategies", "conventional,random-path", *FAST, "-o", str(out)]
    assert run_cli(["sweep", "--axis", "theta-e", "--values", "0,200,-30", *args]) == 2
    assert "theta-e must lie in [1, 180], got 0, 200, -30" in capsys.readouterr().err
    assert run_cli(["sweep", "--theta-r", "181", *args]) == 2
    assert "theta-r must lie in [1, 180], got 181" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "3082", "4000", "-4000"])
def test_link_qualities_must_be_finite(tmp_path, capsys, bad):
    # a NaN rho used to write ok rows holding -inf; an infinite one a 307.79 dB
    # SNR, or a division by zero; 4000 dB overflowed 10^(dB/10) and -4000 dB
    # rounded it to 0, each ending in a traceback; 3082 dB wrote ok rows of
    # infinite SNR and rate
    out = tmp_path / "x.csv"
    args = ["--strategies", "conventional,random-path", *FAST, "-o", str(out)]
    rule = "must be finite" if bad in ("nan", "inf") else "must lie in [-1000, 1000] dB"
    assert run_cli(["sweep", "--axis", "rho-e", "--values", f"10,{bad}", *args]) == 2
    assert f"rho-e {rule}, got {bad}" in capsys.readouterr().err
    for flag in ("--rho-r-db", "--rho-e-db"):
        assert run_cli(["sweep", "--axis", "theta-e", "--values", "40", flag, bad, *args]) == 2
        assert f"{flag[2:]} {rule}, got {bad}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("axis", ["antennas", "paths"])
@pytest.mark.parametrize("bad", ["16.5", "inf", "nan"])
def test_count_axes_take_whole_numbers(tmp_path, capsys, axis, bad):
    # 16.5 used to write a row labelled 16.5 holding N = 16's numbers; inf
    # ended in an OverflowError traceback, nan in numpy's conversion error
    out = tmp_path / "x.csv"
    args = ["--strategies", "conventional", *FAST, "-o", str(out)]
    assert run_cli(["sweep", "--axis", axis, "--values", f"16,{bad}", *args]) == 2
    assert f"{axis} values must be whole numbers, got {bad}" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_axis_values_are_rejected(tmp_path, capsys):
    # two rows keyed (random-path, 10) used to hold different numbers
    out = tmp_path / "x.csv"
    code = run_cli(
        ["sweep", "--axis", "rho-e", "--values", "10,10", "--strategies",
         "conventional,random-path", "--symbols", "200", "--ensemble", "3", "-o", str(out)]
    )
    assert code == 2
    assert "rho-e values must be distinct, got 10 more than once" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_strategies_are_rejected(tmp_path, capsys):
    # a strategy gets one set of rows, so a repeat used to vanish from the CSV but stay in .meta
    out = tmp_path / "x.csv"
    code = run_cli(
        ["sweep", "--axis", "rho-e", "--values", "10", "--strategies", "joint,conventional,joint",
         "--symbols", "200", "--ensemble", "2", "-o", str(out)]
    )
    assert code == 2
    assert "strategies must be distinct, got joint more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_is_rejected_by_name(tmp_path, capsys, source):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -1\n")
    seed = ["--seed", "-1"] if source == "flag" else ["--config", str(cfg)]
    out = tmp_path / "x.csv"
    code = run_cli(
        ["sweep", "--axis", "rho-e", "--values", "10", "--strategies", "conventional",
         "--symbols", "200", "--ensemble", "2", *seed, "-o", str(out)]
    )
    assert code == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["sweep", "--axis", "antennas", "--values", "16,32", "--antennas", "64"], "",
         "flag antennas sets n_antennas, which this run sweeps along its antennas axis"),
        (["sweep", "--axis", "rho-e", "--values", "10"], "rho_e_db = 3\n",
         "config key rho_e_db sets rho_e_db, which this run sweeps along its rho-e axis"),
        (["figure", "1", "--paths", "8"], "",
         "flag paths sets n_paths, which this run sweeps over its curves 4,8,12"),
        (["figure", "2"], "antennas = 64\n",
         "config key antennas sets n_antennas, which this run sweeps over its curves 16,32,64"),
    ],
    ids=["flag-axis", "config-axis", "flag-curve", "config-curve"],
)
def test_a_setting_the_run_sweeps_is_rejected_by_name(tmp_path, capsys, argv, config, message):
    # the sweep would write every axis value or curve anyway and drop the setting
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    code = run_cli([*argv, "--config", str(cfg), *FAST, "-o", str(tmp_path / "x.csv")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv*"))


def test_all_stands_alone(capsys):
    code = run_cli(["sweep", "--strategies", "all,joint", *FAST])
    assert code == 2
    assert "'all' stands alone" in capsys.readouterr().err


def test_empty_strategy_list(capsys):
    code = run_cli(["sweep", "--strategies", ",", *FAST])
    assert code != 0


def test_sweep_writes_csv_and_meta(tmp_path):
    out = tmp_path / "out.csv"
    code = run_cli(
        [
            "sweep", "--axis", "rho-e", "--values", "10,15",
            "--strategies", "random-path", *FAST, "-o", str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == ResultTable.CSV_HEADER
    assert len(lines) == 3
    meta = (tmp_path / "out.csv.meta").read_text()
    assert "base_seed=7" in meta
    assert "strategies=random-path" in meta
    assert "version=" in meta


def test_rerun_is_byte_identical(tmp_path):
    args = [
        "sweep", "--axis", "theta-e", "--values", "40,55",
        "--strategies", "random-path,joint", *FAST,
    ]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli([*args, "-o", str(out1)]) == 0
    assert run_cli([*args, "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_figure_three_covers_all_strategies(tmp_path):
    out = tmp_path / "fig3.csv"
    code = run_cli(["figure", "3", *FAST, "-o", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()[1:]
    strategies = {line.split(",")[0] for line in lines}
    assert strategies == {"conventional", "switched", "random-path", "joint"}
    rho_values = {line.split(",")[2] for line in lines}
    assert rho_values == {"0", "2.5", "5", "7.5", "10", "12.5", "15", "17.5", "20"}


@pytest.mark.parametrize(
    "fig, field, curves",
    [("1", "n_paths", {"L4": 4, "L8": 8, "L12": 12}),
     ("2", "n_antennas", {"N16": 16, "N32": 32, "N64": 64})],
    ids=["1", "2"],
)
def test_figure_emits_one_file_per_curve(tmp_path, fig, field, curves):
    out = tmp_path / "fig.csv"
    code = run_cli(
        [
            "figure", fig, *FAST,
            "--strategies", "random-path",
            "-o", str(out),
        ]
    )
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        name for label in curves for name in (f"fig_{label}.csv", f"fig_{label}.csv.meta")
    )
    for label, value in curves.items():
        # each curve's file holds its own curve's run, not a neighbour's
        meta = (tmp_path / f"fig_{label}.csv.meta").read_text().splitlines()
        assert dict(line.split("=", 1) for line in meta)[field] == str(value)


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("antennas = 16  # array size\npaths=6\n")
    out = tmp_path / "out.csv"
    code = run_cli(
        [
            "sweep", "--axis", "rho-e", "--values", "15",
            "--strategies", "random-path", "--config", str(cfg),
            "--antennas", "8", *FAST, "-o", str(out),
        ]
    )
    assert code == 0
    meta = (tmp_path / "out.csv.meta").read_text()
    assert "n_antennas=8" in meta  # flag wins
    assert "n_paths=6" in meta  # config wins over default


@pytest.mark.parametrize(
    "config, flags, meta",
    [("theta_e = 200\n", ["--theta-e", "40"], ["theta_e_deg=40"]),
     ("m_main = 40\n", ["--antennas", "64"], ["n_antennas=64", "m_main=40"])],
    ids=["overridden", "combined"],
)
def test_only_the_effective_configuration_is_validated(tmp_path, config, flags, meta):
    # a config value a flag overrides is never run, and one that is run is
    # checked against the flags it runs with
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out.csv"
    code = run_cli(
        ["sweep", "--axis", "rho-e", "--values", "15", "--strategies", "switched",
         "--config", str(cfg), *flags, *FAST, "-o", str(out)]
    )
    assert code == 0
    lines = (tmp_path / "out.csv.meta").read_text().splitlines()
    assert all(line in lines for line in meta)


@pytest.mark.parametrize(
    "axis, values, strategy, message",
    [("antennas", "1,16", "switched", "antennas must be >= 2, got 1"),
     ("paths", "0,12", "joint", "paths must lie in [1, 180], got 0")],
)
def test_array_and_path_counts_are_checked_for_every_strategy(
    tmp_path, capsys, axis, values, strategy, message
):
    # these used to write an inapplicable row here, and fail for another strategy
    out = tmp_path / "x.csv"
    code = run_cli(
        ["sweep", "--axis", axis, "--values", values, "--strategies", strategy, *FAST,
         "-o", str(out)]
    )
    assert code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_bad_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frequency=60\n")
    code = run_cli(
        ["sweep", "--strategies", "random-path", "--config", str(cfg), *FAST]
    )
    assert code != 0
    assert "frequency" in capsys.readouterr().err


def test_inapplicable_only_run_fails(tmp_path, capsys):
    out = tmp_path / "out.csv"
    code = run_cli(
        [
            "sweep", "--axis", "paths", "--values", "1",
            "--strategies", "joint", *FAST, "-o", str(out),
        ]
    )
    assert code != 0


def test_analytic_overlay_output(tmp_path):
    out = tmp_path / "out.csv"
    code = run_cli(
        [
            "sweep", "--axis", "rho-e", "--values", "15",
            "--strategies", "random-path", "--analytic", *FAST, "-o", str(out),
        ]
    )
    assert code == 0
    assert (tmp_path / "out_analytic.csv").exists()


def test_analytic_requires_supported_strategy(tmp_path, capsys):
    # the check used to come after the Monte Carlo sweep had written its CSV and .meta
    for command in (["sweep", "--axis", "rho-e", "--values", "15"], ["figure", "3"]):
        code = run_cli(
            [*command, "--strategies", "conventional", "--analytic", *FAST,
             "-o", str(tmp_path / "x.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--analytic requires random-path or joint among the strategies" in err
        assert not list(tmp_path.iterdir())


def test_grating_lobe_spacing_is_rejected(tmp_path, capsys):
    code = run_cli(
        ["sweep", "--spacing", "1.0", "--strategies", "random-path", *FAST,
         "-o", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "grating lobes" in capsys.readouterr().err


GOLDEN_COMMANDS = {
    # L = 1 makes the joint row inapplicable and --analytic covers the closed forms
    "paths": [
        "sweep", "--axis", "paths", "--values", "1,2,12", "--strategies", "all",
        "--analytic", "--symbols", "200", "--ensemble", "2", "--seed", "5",
    ],
    # one subset stream per array size: these bytes predate sharing subsets across axis points
    "antennas": [
        "sweep", "--axis", "antennas", "--values", "16,32", "--strategies", "all",
        "--theta-e", "55", "--symbols", "200", "--ensemble", "2", "--seed", "5",
    ],
    # on the strongest path, beside it, off path (55) and in a far sidelobe (140)
    "theta": [
        "sweep", "--axis", "theta-e", "--values", "39,40,55,140", "--strategies", "all",
        "--m-main", "12", "--symbols", "200", "--ensemble", "2", "--seed", "5",
    ],
}


def test_an_unsound_row_stops_the_run_before_any_write(tmp_path, capsys, monkeypatch):
    # an estimator that returns nan makes the row's eavesdropper SNR -inf dB; a
    # failure in a later table (the closed forms, figure 1's last curve) used to
    # leave the earlier tables' files behind
    def nan(*args):
        return float("nan")

    def no_channel_at_12(L, *args):
        if L == 12:
            raise ValueError("no channel at L = 12")
        return sample_channel(L, *args)

    cases = [
        ("alignment_mixture_snr", nan, ["sweep", "--axis", "rho-e", "--values", "0,10",
         "--strategies", "conventional"], "conventional at rho-e 0: snr_e_db is -inf, not finite"),
        ("snr_e_joint", nan, ["sweep", "--axis", "rho-e", "--values", "10", "--strategies",
         "joint", "--analytic"], "joint at rho-e 10: snr_e_db is -inf, not finite"),
        ("sample_channel", no_channel_at_12, ["figure", "1"], "no channel at L = 12"),
    ]
    for i, (name, patched, argv, message) in enumerate(cases):
        out = tmp_path / str(i)
        out.mkdir()
        with monkeypatch.context() as m:
            m.setattr(montecarlo, name, patched)
            assert run_cli([*argv, *FAST, "-o", str(out / "x.csv")]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert list(out.iterdir()) == [], argv


def test_outputs_match_golden_bytes(tmp_path):
    """Fixed commands rewrite the committed CSV, closed-form CSV and `.meta`
    files byte for byte.  The files were written with numpy 2.4.6 on x86-64;
    another BLAS or libm may move a last printed digit.
    """
    for stem, argv in GOLDEN_COMMANDS.items():
        out = tmp_path / stem / f"{stem}.csv"
        out.parent.mkdir()
        assert run_cli([*argv, "-o", str(out)]) == 0
        names = sorted(p.name for p in GOLDEN.glob(f"{stem}*"))
        assert names == sorted(p.name for p in out.parent.iterdir())
        for name in names:
            assert (out.parent / name).read_bytes() == (GOLDEN / name).read_bytes(), name
