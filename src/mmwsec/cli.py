"""Command-line front end: figure presets, custom sweeps, CSV output.

Configuration precedence is preset < config file < command-line flags.
The config file's values and the flags are set on each run spec at once,
so only the effective configuration is validated, and only by `SweepSpec`.
Every run writes the result table plus a `<output>.meta` sidecar with the
full effective configuration (the table's own spec), which is sufficient
to reproduce the CSV byte for byte.  A run computes all of its tables
before it writes any file, so a run that fails writes nothing.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .montecarlo import (
    ANALYTIC_STRATEGIES,
    AXIS_NAMES,
    DEFAULT_AXIS_VALUES,
    ResultTable,
    SweepSpec,
    compare_analytic,
    figure_preset,
    run_sweep,
)
from .strategies import StrategyKind

STRATEGY_NAMES = {kind.value: kind for kind in StrategyKind}


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
        choices=sorted(AXIS_NAMES.values()),
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
    if "all" in names:
        raise CliError(
            "'all' stands alone: give it by itself, or list strategies from "
            f"{sorted(STRATEGY_NAMES)}"
        )
    for name in names:
        if name not in STRATEGY_NAMES:
            raise CliError(
                f"unknown strategy {name!r}; choose from {sorted(STRATEGY_NAMES)}"
            )
    return tuple(STRATEGY_NAMES[name] for name in names)


def load_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines of table keys; blank lines and '#' comments ignored."""
    values, keys = {}, sorted(key for key, *_ in _FIELDS)
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
        if key not in keys:
            raise CliError(f"unknown config key {key!r}; valid keys: {keys}")
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


def apply_settings(specs: dict[str, SweepSpec], args: argparse.Namespace) -> dict[str, SweepSpec]:
    """The run specs with every table field the config file (if any) or a
    flag gives set in one `replace`, flags winning, so `SweepSpec` checks
    only the effective configuration.  Setting a field the run sweeps (its
    axis, or a field its specs differ in) is an error: the sweep would
    override it."""
    sources = [("config key", load_config_file(args.config))] if args.config else []
    updates = {}
    axis = next(iter(specs.values())).axis
    for source, values in [*sources, ("flag", vars(args))]:
        for key, field, conv, _ in _FIELDS:
            if values.get(key) is None:
                continue
            curve = [getattr(spec, field) for spec in specs.values()]
            if field == axis or len(set(curve)) > 1:
                swept = (
                    f"along its {AXIS_NAMES[field]} axis"
                    if field == axis
                    else "over its curves " + ",".join(f"{v:g}" for v in curve)
                )
                raise CliError(f"{source} {key} sets {field}, which this run sweeps {swept}")
            try:
                updates[field] = conv(values[key])
            except ValueError as e:
                raise CliError(f"{source} {key}: {e}") from e
    return {label: replace(spec, **updates) for label, spec in specs.items()}


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


def write_outputs(table: ResultTable, output: str, verbose: bool):
    """Write the table's CSV to output and its spec to `<output>.meta`."""
    out = Path(output)
    try:
        out.write_text(table.to_csv())
        meta_lines = [f"{k}={v}" for k, v in spec_metadata(table.spec).items()]
        Path(str(out) + ".meta").write_text("\n".join(meta_lines) + "\n")
    except OSError as e:
        raise CliError(f"cannot write output {output}: {e}") from e
    if verbose:
        print(f"wrote {out} ({len(table.rows)} rows)", file=sys.stderr)


def run(args: argparse.Namespace) -> int:
    """Run every curve of the figure or sweep, then write every table: curve
    label "L4" writes `<output stem>_L4<suffix>`, the label "" of a
    one-curve run `output`, and `--analytic` each curve's closed forms to
    `<its stem>_analytic<suffix>`."""
    if args.command == "figure":
        specs = figure_preset(args.fig_id)
    else:
        axis = {name: field for field, name in AXIS_NAMES.items()}[args.axis]
        if args.values is not None:
            try:
                values = tuple(float(v) for v in args.values.split(",") if v.strip())
            except ValueError as e:
                raise CliError(f"--values: {e}") from e
            if not values:
                raise CliError("--values must contain at least one number")
        else:
            values = DEFAULT_AXIS_VALUES[axis]
        specs = {
            "": SweepSpec(strategies=tuple(STRATEGY_NAMES.values()), axis=axis, axis_values=values)
        }
    specs = apply_settings(specs, args)
    for spec in specs.values():
        if args.analytic and not set(spec.strategies) & set(ANALYTIC_STRATEGIES):
            raise CliError("--analytic requires random-path or joint among the strategies")
    if any(spec.ensemble == 1 for spec in specs.values()):
        print(
            "warning: ensemble=1: the stderr column reads 0 because one channel gives "
            "no spread estimate",
            file=sys.stderr,
        )
    out, tables = Path(args.output), {}  # output path -> table
    for label, spec in specs.items():
        path = out.with_name(f"{out.stem}_{label}{out.suffix}") if label else out
        tables[path] = run_sweep(spec)
        if args.analytic:
            aspec = replace(
                spec, strategies=tuple(s for s in spec.strategies if s in ANALYTIC_STRATEGIES)
            )
            tables[path.with_name(path.stem + "_analytic" + path.suffix)] = compare_analytic(aspec)
    if any(all(r.status != "ok" for r in table.rows) for table in tables.values()):
        raise CliError("no applicable (strategy, axis value) combinations in this run")
    for path, table in tables.items():
        write_outputs(table, str(path), args.verbose)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (CliError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
