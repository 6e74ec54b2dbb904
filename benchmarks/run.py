#!/usr/bin/env python3
"""mmwsec sweep benchmark.

Runs one workload as repeated in-process calls of ``mmwsec.cli.main(argv)``,
one invocation at a time in a closed loop, for ``--seconds`` seconds, and
checks every CSV it writes against the committed reference in
``benchmarks/reference/<workload>/``.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced invocations and
prints the per-layer metrics (see layers.py).  The last line of standard
output is one JSON object: correct, attempted and failed rows, metrics.

Run from anywhere inside a checkout of the repository:

    python3 benchmarks/run.py --workload rho-onpath --seed 0 --seconds 45 --trace 0
    python3 benchmarks/run.py --workload all        # every workload, one table

The package is imported from the checkout's ``src/``; the run fails
without printing a result if that is missing.  Outputs, spans and result
records go to ``.bench_out/`` in the checkout.  BLAS threading is left at
the user's default and recorded, never pinned.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from csvcheck import check_outputs, parse
from layers import PER_LAYER, LayerProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference"
REFERENCE_SEED = 0
MIN_INVOCATIONS = 3
SETUP_REPS = 7
# Interpreter start, package import and BLAS initialisation: what a user
# pays before the first sweep can run.
SETUP_CODE = "import numpy, mmwsec.cli; a = numpy.ones((64, 64)); a @ a"

# Each workload is one CLI command line; E (--ensemble) is the size knob.
WORKLOADS = {
    "rho-onpath": (["figure", "3"], 8),
    "antennas-offpath": (
        ["sweep", "--axis", "antennas", "--values", "16,32,64",
         "--strategies", "all", "--theta-e", "55"],
        32,
    ),
    "analytic-rho": (
        ["sweep", "--axis", "rho-e", "--values", "0,10,20",
         "--strategies", "random-path,joint", "--analytic"],
        2,
    ),
}

# (name, unit, better, bound): the end-to-end metrics of BENCHMARK.json.
# failed_frac is printed beside them but is not listed there, because the
# benchmark requires listed metrics to be non-zero; the result line carries
# it exactly as failed / attempted.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("sweep_s", "s", "lower", 0.25),
    ("evals_per_s", "1/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def import_package():
    """Import mmwsec from this checkout's src/, or raise ImportError."""
    sys.path.insert(0, str(SRC))
    import mmwsec

    if Path(mmwsec.__file__).resolve().parent != SRC / "mmwsec":
        raise ImportError(f"mmwsec imported from {mmwsec.__file__}, not from {SRC}")


def environment(seed: int, ensemble: int | None) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        top, rev = (git.stdout.split() + ["", ""])[:2]
        revision = rev if git.returncode == 0 and Path(top).resolve() == ROOT else None
    except (OSError, subprocess.TimeoutExpired):
        revision = None
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        **{
            var: os.environ.get(var, "unset (default = nproc)")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "git_revision": revision or "unknown (not a git checkout)",
        "seed": seed,
        "ensemble": {name: ensemble or e for name, (_, e) in WORKLOADS.items()},
    }


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that import mmwsec and run one BLAS call."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def tail_percentile(samples: list[float]):
    """Highest whole percentile with at least ten samples beyond it, if >= p50."""
    n = len(samples)
    if n < 20:
        return None
    pct = 100 * (n - 10) // n
    return pct, sorted(samples)[n - 11]


class Run:
    """One workload run: invocations, their checks and their timings."""

    def __init__(self, name: str, ensemble: int | None):
        from mmwsec.cli import main

        self.main = main
        self.name = name
        argv, default_e = WORKLOADS[name]
        self.ensemble = ensemble or default_e
        self.statistical = ensemble is None  # the references hold the default E
        self.refs = {p.name: p.read_text() for p in sorted((REFERENCE / name).glob("*.csv"))}
        if not self.refs:
            raise FileNotFoundError(f"no reference CSVs in {REFERENCE / name}")
        self.outdir = OUT / name
        self.argv = argv + ["--ensemble", str(self.ensemble), "-o", str(self.outdir / "out.csv")]
        self.attempted = 0
        self.failures: list[str] = []
        self.first: dict[int, dict] = {}  # seed -> outputs of its first invocation

    def evals_per_invocation(self) -> int:
        """(strategy, axis value, channel) evaluations, Monte Carlo and closed form."""
        ok = sum(r["status"] == "ok" for text in self.refs.values() for r in parse(text).values())
        return ok * self.ensemble

    def invoke(self, seed: int, call=None) -> tuple[float, float]:
        """One checked CLI invocation; returns (wall seconds, CPU seconds)."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)
        argv = self.argv + ["--seed", str(seed)]
        error = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            rc = call(self.main, argv) if call else self.main(argv)
            if rc != 0:
                error = f"exit code {rc}"
        except (Exception, SystemExit):
            error = traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        outputs = {} if error else {
            f: (self.outdir / f).read_text() for f in self.refs if (self.outdir / f).exists()
        }
        if error:
            print(f"{self.name}: invocation failed: {error}", file=sys.stderr)
        attempted, failed = check_outputs(
            outputs, self.refs, self.first.get(seed),
            statistical=self.statistical and seed == REFERENCE_SEED,
        )
        self.first.setdefault(seed, outputs)
        self.attempted += attempted
        for key, why in failed.items():
            self.failures.append(f"seed {seed}: row {key}: {why}")
            print(f"{self.name}: {self.failures[-1]}", file=sys.stderr)
        return wall, cpu


def run_workload(name: str, seed: int, seconds: float, trace: bool, ensemble: int | None):
    env = environment(seed, ensemble)
    setup = [] if trace else measure_setup()
    run = Run(name, ensemble)
    # Warm-up, and the statistical check against the reference seed.
    run.invoke(REFERENCE_SEED)

    plain, traced = [], []
    probe = LayerProbe() if trace else None
    t_start = time.perf_counter()
    i = 0
    while (
        time.perf_counter() - t_start < seconds
        or len(plain) < MIN_INVOCATIONS
        or (trace and len(traced) < MIN_INVOCATIONS)
    ):
        if trace and i % 2:
            probe.install()
            try:
                traced.append(run.invoke(seed, probe.invoke))
            finally:
                probe.restore()
        else:
            plain.append(run.invoke(seed))
        i += 1

    sweep_s = statistics.median(w for w, _ in plain)
    notes = [f"sweep_s samples {len(plain)}"]
    tail = tail_percentile([w for w, _ in plain])
    if tail:
        notes.append(f"sweep_s p{tail[0]} {tail[1]:.6f} s")
    trace_ok = True
    if trace:
        traced_s = statistics.median(w for w, _ in traced)
        values = probe.metrics(traced_s / sweep_s - 1.0)
        units = {n: u for n, u, _ in PER_LAYER}
        # Layer self times plus cli.main's own must add up to the root spans,
        # which must fit in the wall time measured around them.
        self_total = sum(probe.tracer.self_times_ns().values())
        root_total = probe.tracer.root_total_ns()
        traced_wall = sum(w for w, _ in traced)
        trace_ok = self_total == root_total <= traced_wall * 1e9
        notes.append(
            f"trace: layer + cli.main self time {self_total / 1e9:.6f} s, "
            f"root spans {root_total / 1e9:.6f} s, traced wall {traced_wall:.6f} s"
        )
        notes.append(f"traced sweep_s median {traced_s:.6f} s over {len(traced)} invocations")
        probe.tracer.write(OUT / name / f"spans-seed{seed}.tsv")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "sweep_s": sweep_s,
            "evals_per_s": run.evals_per_invocation() / sweep_s,
            "cpu_s": statistics.median(c for _, c in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = {n: u for n, u, _, _ in END_TO_END}

    failed = len(run.failures)
    result = {
        "correct": failed == 0 and trace_ok,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    record = {
        "workload": name, "argv": run.argv + ["--seed", str(seed)], "trace": trace,
        "env": env, "setup_s": setup, "plain": plain, "traced": traced, "notes": notes,
        "failures": run.failures, "result": result,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(f"workload {name}: mmwsec {' '.join(record['argv'])}")
    print("env " + json.dumps(env))
    for note in notes:
        print(note)
    for n, v in values.items():
        print(f"{n} {v:.6g} {units[n]}")
    print(f"failed_frac {failed / run.attempted:.6g} ratio ({failed}/{run.attempted} rows)")
    print(json.dumps(result))


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.ensemble:
            cmd += ["--ensemble", str(args.ensemble)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print()
    for name, r in results.items():
        cells = [f"{m} {v['value']:.6g} {v['unit']}" for m, v in r["metrics"].items()]
        cells.append(f"failed_frac {r['failed'] / r['attempted']:.6g} ratio")
        print(f"{name:17s} " + " | ".join(cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ensemble", type=int,
        help="override E (smoke tests); skips the statistical reference check",
    )
    args = parser.parse_args(argv)
    try:
        import_package()
    except ImportError as e:
        print(f"error: cannot import mmwsec from {SRC}: {e}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.ensemble)
    return 0


if __name__ == "__main__":
    sys.exit(main())
