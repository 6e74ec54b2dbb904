"""Command-line front end: figure presets, custom sweeps, CSV output.

Configuration precedence is preset < config file < command-line flags.
Every run writes the result table plus a `<output>.meta` sidecar with the
full effective configuration, which is sufficient to reproduce the CSV
byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .montecarlo import (
    ANALYTIC_STRATEGIES,
    DEFAULT_AXIS_VALUES,
    SweepSpec,
    compare_analytic,
    figure_preset,
    run_sweep,
)
from .strategies import StrategyKind

STRATEGY_NAMES = {kind.value: kind for kind in StrategyKind}

AXIS_NAMES = {
    "theta-e": "theta_e_deg",
    "rho-e": "rho_e_db",
    "antennas": "n_antennas",
    "paths": "n_paths",
}


class CliError(Exception):
    """User-facing configuration error; message names the violated constraint."""


def _add_common_flags(p: argparse.ArgumentParser):
    for key, _, conv, help_text in _FIELDS:
        # strategies stays a string here so a bad list exits through CliError
        kind = conv if conv in (int, float) else None
        p.add_argument("--" + key.replace("_", "-"), type=kind, help=help_text)
    p.add_argument("--config", help="flat key=value config file ('#' comments)")
    p.add_argument("--output", "-o", default="results.csv", help="output CSV path")
    p.add_argument(
        "--analytic",
        action="store_true",
        help="also write closed-form rates to <output stem>_analytic.csv",
    )
    p.add_argument("-v", "--verbose", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmwsec",
        description="Secrecy-rate sweeps for randomized mmWave beamforming strategies",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="run a preset benchmark figure sweep")
    fig.add_argument("fig_id", type=int, choices=(1, 2, 3, 4), metavar="1-4")
    _add_common_flags(fig)

    sw = sub.add_parser("sweep", help="run a custom parameter sweep")
    sw.add_argument(
        "--axis",
        choices=sorted(AXIS_NAMES),
        default="rho-e",
        help="sweep axis (default rho-e)",
    )
    sw.add_argument("--values", help="comma-separated axis values (defaults per axis)")
    _add_common_flags(sw)
    return parser


def parse_strategies(text: str) -> tuple[StrategyKind, ...]:
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise CliError("strategy list must be nonempty")
    if names == ["all"]:
        return tuple(STRATEGY_NAMES.values())
    out = []
    for name in names:
        if name not in STRATEGY_NAMES:
            raise CliError(
                f"unknown strategy {name!r}; choose from {sorted(STRATEGY_NAMES)}"
            )
        out.append(STRATEGY_NAMES[name])
    return tuple(out)


def load_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and '#' comments ignored."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read config file {path}: {e}") from e
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key] = val
    return values


# One row per sweep setting: (config key, which is also the flag's argparse
# dest, SweepSpec field, type, help).  Rows are in `.meta` order.
_FIELDS = (
    (
        "strategies",
        "strategies",
        parse_strategies,
        "comma-separated strategy list: " + ",".join(STRATEGY_NAMES) + " or 'all'",
    ),
    ("antennas", "n_antennas", int, "transmit antenna count N"),
    ("paths", "n_paths", int, "channel path count L"),
    ("m_main", "m_main", int, "main-path antenna subset size M"),
    ("ls", "l_s", int, "secondary-path candidate pool size L_S"),
    ("rho_r_db", "rho_r_db", float, "receiver gain-to-noise ratio (dB)"),
    ("rho_e_db", "rho_e_db", float, "eavesdropper gain-to-noise ratio (dB)"),
    ("theta_r", "theta_r_deg", float, "receiver strongest-path angle (deg)"),
    ("theta_e", "theta_e_deg", float, "eavesdropper angle (deg)"),
    ("spacing", "spacing_over_wavelength", float, "element spacing d/lambda"),
    ("symbols", "symbols_per_point", int, "symbols per sweep point"),
    ("ensemble", "ensemble", int, "channel realizations per point"),
    ("seed", "base_seed", int, "base random seed"),
)


def _apply(spec: SweepSpec, values: dict, source: str) -> SweepSpec:
    """Set every table field whose key has a value in `values`."""
    updates = {}
    for key, field, conv, _ in _FIELDS:
        if values.get(key) is not None:
            try:
                updates[field] = conv(values[key])
            except ValueError as e:
                raise CliError(f"{source} {key}: {e}") from e
    return replace(spec, **updates) if updates else spec


def apply_config_file(spec: SweepSpec, path: str) -> SweepSpec:
    values = load_config_file(path)
    keys = sorted(key for key, *_ in _FIELDS)
    for key in values:
        if key not in keys:
            raise CliError(f"unknown config key {key!r}; valid keys: {keys}")
    return _apply(spec, values, "config key")


def apply_flags(spec: SweepSpec, args: argparse.Namespace) -> SweepSpec:
    return _apply(spec, vars(args), "flag")


def validate_spec(spec: SweepSpec):
    if StrategyKind.JOINT_PATH_ANTENNA in spec.strategies:
        if spec.axis != "n_paths" and spec.n_paths < 2:
            raise CliError(
                "joint path-and-antenna selection requires paths >= 2 "
                f"(got paths={spec.n_paths})"
            )
        if spec.l_s < 2:
            raise CliError(
                "joint path-and-antenna selection requires ls >= 2: the pool of the ls "
                "strongest paths includes the strongest, which is never secondary "
                f"(got ls={spec.l_s})"
            )
    if spec.m_main is not None and spec.m_main < 1:
        raise CliError(f"m-main must be >= 1, got {spec.m_main}")
    if spec.m_main is not None and spec.axis != "n_antennas":
        if spec.m_main > spec.n_antennas:
            raise CliError(
                f"m-main must lie in [1, antennas]; got m-main={spec.m_main}, "
                f"antennas={spec.n_antennas}"
            )
    if spec.axis != "n_paths" and not 1 <= spec.l_s:
        raise CliError(f"ls must be >= 1, got {spec.l_s}")


def spec_metadata(spec: SweepSpec) -> dict[str, str]:
    meta = {
        "tool": "mmwsec",
        "version": __version__,
        "strategies": ",".join(s.value for s in spec.strategies),
        "axis": spec.axis,
        "axis_values": ",".join(f"{v:g}" for v in spec.axis_values),
    }
    for _, field, conv, _ in _FIELDS:  # strategies, written above, is neither
        value = getattr(spec, field)
        if conv is float:
            meta[field] = f"{value:g}"
        elif conv is int:
            meta[field] = "auto" if value is None else str(value)
    return meta


def write_outputs(table, spec: SweepSpec, output: str, verbose: bool):
    ok_rows = [r for r in table.rows if r.status == "ok"]
    if not ok_rows:
        raise CliError("no applicable (strategy, axis value) combinations in this run")
    out = Path(output)
    try:
        out.write_text(table.to_csv())
        meta_lines = [f"{k}={v}" for k, v in spec_metadata(spec).items()]
        Path(str(out) + ".meta").write_text("\n".join(meta_lines) + "\n")
    except OSError as e:
        raise CliError(f"cannot write output {output}: {e}") from e
    if verbose:
        print(f"wrote {out} ({len(table.rows)} rows)", file=sys.stderr)


def _run_one(spec: SweepSpec, args: argparse.Namespace, output: str):
    table = run_sweep(spec)
    write_outputs(table, spec, output, args.verbose)
    if args.analytic:
        analytic_strats = tuple(s for s in spec.strategies if s in ANALYTIC_STRATEGIES)
        if not analytic_strats:
            raise CliError(
                "--analytic requires random-path or joint among the strategies"
            )
        aspec = replace(spec, strategies=analytic_strats)
        atable = compare_analytic(aspec)
        stem = Path(output)
        apath = stem.with_name(stem.stem + "_analytic" + stem.suffix)
        write_outputs(atable, aspec, str(apath), args.verbose)


def _curve_outputs(spec: SweepSpec, output: str):
    """Expand a multi-curve preset into (spec, path) pairs, one per curve value."""
    if not spec.curve_param:
        return [(spec, output)]
    out = Path(output)
    runs = []
    for v in spec.curve_values:
        sub = replace(spec, **{spec.curve_param: int(v)}, curve_param=None, curve_values=())
        tag = {"n_paths": "L", "n_antennas": "N"}.get(spec.curve_param, spec.curve_param)
        path = out.with_name(f"{out.stem}_{tag}{int(v)}{out.suffix}")
        runs.append((sub, str(path)))
    return runs


def run(args: argparse.Namespace) -> int:
    if args.command == "figure":
        spec = figure_preset(args.fig_id)
    else:
        axis = AXIS_NAMES[args.axis]
        if args.values is not None:
            try:
                values = tuple(float(v) for v in args.values.split(",") if v.strip())
            except ValueError as e:
                raise CliError(f"--values: {e}") from e
            if not values:
                raise CliError("--values must contain at least one number")
        else:
            values = DEFAULT_AXIS_VALUES[axis]
        spec = SweepSpec(
            strategies=tuple(STRATEGY_NAMES.values()),
            axis=axis,
            axis_values=values,
        )
    if args.config:
        spec = apply_config_file(spec, args.config)
    spec = apply_flags(spec, args)
    validate_spec(spec)
    if spec.ensemble == 1:
        print(
            "warning: ensemble=1: the stderr column reads 0 because one channel gives "
            "no spread estimate",
            file=sys.stderr,
        )
    for sub_spec, path in _curve_outputs(spec, args.output):
        validate_spec(sub_spec)
        _run_one(sub_spec, args, path)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
