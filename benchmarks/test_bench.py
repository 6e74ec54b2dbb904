"""Tests of the benchmark itself: smoke runs, the CSV checker and the tracer.

    python3 -m pytest benchmarks -q
"""

import json
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import csvcheck  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def references(workload):
    return {p.name: p.read_text() for p in sorted((run.REFERENCE / workload).glob("*.csv"))}


def test_benchmark_json_matches_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    # antennas-offpath runs from the command line but is not listed (see README).
    assert [w["name"] for w in spec["workloads"]] == ["rho-onpath", "analytic-rho"]
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [tuple(m.values()) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_smoke_all_workloads_print_every_metric_with_unit():
    lines, result = bench("--workload", "all", "--seed", "1", "--seconds", "0", "--ensemble", "1")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in run.WORKLOADS:
        (row,) = [line for line in lines if line.startswith(workload + " ")]
        for name, unit, _, _ in run.END_TO_END:
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit and metric["value"] > 0
            assert f"{name} {metric['value']:.6g} {unit}" in row
        assert row.endswith("failed_frac 0 ratio")


@pytest.mark.parametrize("workload, reuse", [("rho-onpath", 1 / 9), ("antennas-offpath", 1.0)])
def test_traced_smoke_reports_per_layer_metrics(workload, reuse):
    _, result = bench("--workload", workload, "--seed", "2", "--seconds", "0", "--ensemble", "1", "--trace", "1")
    assert result["correct"]
    metrics = result["metrics"]
    assert [(n, metrics[n]["unit"]) for n, _, _ in layers.PER_LAYER] == [
        (n, u) for n, u, _ in layers.PER_LAYER
    ]
    assert metrics["montecarlo.simulate_streams.reuse_ratio"]["value"] == pytest.approx(reuse)
    assert metrics["analysis.estimate_joint_moments.calls"]["value"] == 0


def test_checker_accepts_reference():
    refs = references("analytic-rho")
    attempted, failed = csvcheck.check_outputs(refs, refs, refs, statistical=True)
    assert attempted == 12 and failed == {}


def shifted(text, strategy, delta):
    lines = text.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith(strategy + ","))
    fields = lines[i].split(",")
    fields[5] = f"{float(fields[5]) + delta:.6f}"
    lines[i] = ",".join(fields)
    return "".join(lines)


def test_checker_rejects_shifted_rate():
    refs = references("rho-onpath")
    # 0.1 bit/s/Hz is about 15 standard errors of this random-path row.
    out = {"out.csv": shifted(refs["out.csv"], "random-path", 0.1)}
    _, failed = csvcheck.check_outputs(out, refs, statistical=True)
    assert list(failed) == [("out.csv", "random-path", "0")]
    # Deterministic rows are checked on every seed, to print precision.
    out = {"out.csv": shifted(refs["out.csv"], "conventional", 1e-5)}
    _, failed = csvcheck.check_outputs(out, refs, statistical=False)
    assert list(failed) == [("out.csv", "conventional", "0")]


def test_checker_rejects_missing_row():
    refs = references("antennas-offpath")
    lines = refs["out.csv"].splitlines(keepends=True)
    dropped = lines.pop(4)
    attempted, failed = csvcheck.check_outputs({"out.csv": "".join(lines)}, refs)
    strategy, _, value = dropped.split(",")[:3]
    assert attempted == 12
    assert failed == {("out.csv", strategy, value): "row missing"}


def test_checker_rejects_change_between_same_seed_invocations():
    refs = references("rho-onpath")
    later = {"out.csv": shifted(refs["out.csv"], "joint", 1e-6)}
    _, failed = csvcheck.check_outputs(later, refs, earlier=refs)
    assert list(failed) == [("out.csv", "joint", "0")]


def test_tracer_self_times_sum_to_wrapped_total():
    ns = types.SimpleNamespace()

    def leaf(x):
        time.sleep(0.002)
        return x

    def mid(x):
        time.sleep(0.001)
        return ns.leaf(x) + ns.leaf(x)

    ns.leaf, ns.mid = leaf, mid
    tracer = Tracer()
    tracer.wrap(ns, "leaf", "leaf")
    tracer.wrap(ns, "mid", "mid")
    assert tracer.call("root", lambda: ns.mid(1) + ns.leaf(2)) == 4
    tracer.restore()
    assert ns.leaf is leaf and ns.mid is mid

    selfs = tracer.self_times_ns()
    assert sum(selfs.values()) == tracer.root_total_ns()
    assert tracer.counts["leaf.calls"] == 3 and tracer.counts["mid.calls"] == 1
    (_, start, end, _), = [s for s in tracer.spans if s[0] == "mid"]
    assert 1e6 <= selfs["mid"] < end - start - 4e6
    assert selfs["leaf"] >= 6e6


def test_tracer_rejects_open_span():
    tracer = Tracer()
    tracer._open("dangling")
    with pytest.raises(RuntimeError):
        tracer.self_times_ns()
