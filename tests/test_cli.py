"""End-to-end tests of the command-line front end."""

from pathlib import Path

import pytest

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


def test_figure_one_emits_one_file_per_curve(tmp_path):
    out = tmp_path / "fig1.csv"
    code = run_cli(
        [
            "figure", "1", *FAST,
            "--strategies", "random-path",
            "-o", str(out),
        ]
    )
    assert code == 0
    for L in (4, 8, 12):
        assert (tmp_path / f"fig1_L{L}.csv").exists()
        assert (tmp_path / f"fig1_L{L}.csv.meta").exists()


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
    code = run_cli(
        [
            "sweep", "--axis", "rho-e", "--values", "15",
            "--strategies", "conventional", "--analytic", *FAST,
            "-o", str(tmp_path / "x.csv"),
        ]
    )
    assert code != 0


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
    # on the strongest path, beside it, off path (55) and in a far sidelobe (140)
    "theta": [
        "sweep", "--axis", "theta-e", "--values", "39,40,55,140", "--strategies", "all",
        "--m-main", "12", "--symbols", "200", "--ensemble", "2", "--seed", "5",
    ],
}


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
