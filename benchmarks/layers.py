"""Per-layer probes: which mmwsec functions the traced run wraps, and the
per-layer metrics computed from the spans and counters.

Every value is reported per traced CLI invocation.  ``self_s`` is span time
minus child-span time; ``calls`` counts calls.  ``cmacs`` of the Monte
Carlo kernels are not measured: they are computed from the call arguments
(K symbols, n antennas, T observation angles, L paths) as the complex
multiply-accumulates each kernel's array expressions perform:

    conventional  T*n          (one coupling sum per angle)
    switched      K*n*T        (mask @ phasor per angle)
    random-path   T*L*n        (coupling table; symbols only index it)
    joint         2*K*n*(T+1)  (two subset sums for the receiver, two per angle)

``array_geometry`` has no probe: ``montecarlo`` inlines its helpers, so none
of its functions sits on a workload's blocking path.
"""

from __future__ import annotations

import inspect
import os

import numpy as np

from spans import Tracer

STRATEGIES = ("conventional", "switched", "random-path", "joint")
KERNEL = "montecarlo.simulate_streams"

# (metric name, unit, better)
PER_LAYER = (
    [
        (f"{KERNEL}.{k}.{field}", unit, "lower")
        for k in STRATEGIES
        for field, unit in (
            ("calls", "count"),
            ("self_s", "s"),
            ("symbol_angles", "count"),
            ("ns_per_symbol_angle", "ns"),
            ("cmacs", "computed_cmac"),
        )
    ]
    + [
        ("montecarlo.random_subsets.calls", "count", "lower"),
        ("montecarlo.random_subsets.self_s", "s", "lower"),
        ("montecarlo.random_subsets.elements", "count", "lower"),
        ("montecarlo.random_subsets.ns_per_element", "ns", "lower"),
        (f"{KERNEL}.reuse_ratio", "ratio", "higher"),
        ("montecarlo.joint_mix_frac", "ratio", "lower"),
        ("montecarlo.run_sweep.self_s", "s", "lower"),
        ("montecarlo.compare_analytic.self_s", "s", "lower"),
    ]
    + [
        (f"analysis.{fn}.{field}", unit, "lower")
        for fn in ("receiver_snr", "alignment_mixture_snr", "location_mixture_snr")
        for field, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("analysis.secrecy_rate.calls", "count", "lower"),
        ("analysis.estimate_joint_moments.calls", "count", "lower"),
        ("analysis.estimate_joint_moments.self_s", "s", "lower"),
        ("analysis.estimate_joint_moments.draws", "count", "lower"),
        ("analysis.estimate_joint_moments.ms_per_call", "ms", "lower"),
        ("analysis.snr_e_random_path.calls", "count", "lower"),
        ("analysis.snr_e_random_path.self_s", "s", "lower"),
    ]
    + [
        (f"{layer}.{fn}.{field}", unit, "lower")
        for layer, fn in (
            ("signal_engine", "beta_r_term"),
            ("signal_engine", "beta_e_term"),
            ("signal_engine", "beta_e_hat_term"),
            ("signal_engine", "dirichlet_B"),
            ("channel", "sample_channel"),
            ("channel", "channel_stats"),
            ("strategies", "secondary_pool"),
        )
        for field, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("cli.write_outputs.calls", "count", "lower"),
        ("cli.write_outputs.self_s", "s", "lower"),
        ("cli.write_outputs.bytes", "B", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)


def _cmacs(kind: str, K: int, n: int, T: int, L: int) -> int:
    return {
        "conventional": T * n,
        "switched": K * n * T,
        "random-path": T * L * n,
        "joint": 2 * K * n * (T + 1),
    }[kind]


class LayerProbe:
    """Wraps the layers' functions in one process and turns spans into metrics."""

    def __init__(self):
        self.tracer = Tracer()
        self.invocations = 0
        self._blocks: set = set()

    def install(self):
        from mmwsec import analysis, cli, montecarlo

        t = self.tracer
        sim_sig = inspect.signature(montecarlo.simulate_streams)
        subsets_sig = inspect.signature(montecarlo._random_subsets)
        write_sig = inspect.signature(cli.write_outputs)

        def sim_label(args, kwargs):
            kind = sim_sig.bind(*args, **kwargs).arguments["kind"]
            return f"{KERNEL}.{kind.value}"

        def sim_hook(tr, args, kwargs, _result):
            a = sim_sig.bind(*args, **kwargs).arguments
            kind, ch, n, K = a["kind"].value, a["ch"], a["cfg"].n_antennas, a["K"]
            T = np.atleast_1d(a["theta_e_list"]).size
            base = f"{KERNEL}.{kind}"
            tr.counts[base + ".symbol_angles"] += K * T
            tr.counts[base + ".cmacs"] += _cmacs(kind, K, n, T, ch.n_paths)
            self._blocks.add((kind, ch.aods_deg.tobytes(), ch.gains.tobytes(), n, ch.n_paths))

        def subsets_hook(tr, args, kwargs, _result):
            a = subsets_sig.bind(*args, **kwargs).arguments
            tr.counts["montecarlo.random_subsets.elements"] += a["K"] * a["n"]

        def write_hook(tr, args, kwargs, _result):
            out = write_sig.bind(*args, **kwargs).arguments["output"]
            tr.counts["cli.write_outputs.bytes"] += os.path.getsize(out) + os.path.getsize(
                out + ".meta"
            )

        t.wrap(cli, "write_outputs", "cli.write_outputs", write_hook)
        t.wrap(cli, "run_sweep", "montecarlo.run_sweep")
        t.wrap(cli, "compare_analytic", "montecarlo.compare_analytic")
        t.wrap(montecarlo, "simulate_streams", sim_label, sim_hook)
        t.wrap(montecarlo, "_random_subsets", "montecarlo.random_subsets", subsets_hook)
        for fn in (
            "receiver_snr", "alignment_mixture_snr", "location_mixture_snr",
            "secrecy_rate", "estimate_joint_moments", "snr_e_random_path",
        ):
            t.wrap(montecarlo, fn, f"analysis.{fn}")
        for fn in ("sample_channel", "channel_stats"):
            t.wrap(montecarlo, fn, f"channel.{fn}")
        for ns in (montecarlo, analysis):
            t.wrap(ns, "secondary_pool", "strategies.secondary_pool")
        for fn in ("beta_r_term", "beta_e_term", "beta_e_hat_term", "dirichlet_B"):
            t.wrap(analysis, fn, f"signal_engine.{fn}")

    def restore(self):
        self.tracer.restore()

    def invoke(self, fn, *args):
        """Run one CLI invocation under the root span ``cli.main``."""
        self._blocks = set()
        try:
            return self.tracer.call("cli.main", fn, *args)
        finally:
            self.tracer.counts[f"{KERNEL}.distinct_blocks"] += len(self._blocks)
            self.invocations += 1

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        """Per-invocation per-layer metrics, keyed as in PER_LAYER."""
        inv = self.invocations
        c = self.tracer.counts
        self_ns = self.tracer.self_times_ns()
        out = {}
        for name, _unit, _better in PER_LAYER:
            stem, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = c[name] / inv
            elif field == "self_s":
                out[name] = self_ns.get(stem, 0) / 1e9 / inv
            elif field in ("symbol_angles", "cmacs", "elements", "bytes"):
                out[name] = c[name] / inv
        for k in STRATEGIES:
            base = f"{KERNEL}.{k}"
            sa = c[base + ".symbol_angles"]
            out[base + ".ns_per_symbol_angle"] = self_ns.get(base, 0) / sa if sa else 0.0
        elems = c["montecarlo.random_subsets.elements"]
        out["montecarlo.random_subsets.ns_per_element"] = (
            self_ns.get("montecarlo.random_subsets", 0) / elems if elems else 0.0
        )
        sim_calls = sum(c[f"{KERNEL}.{k}.calls"] for k in STRATEGIES)
        out[f"{KERNEL}.reuse_ratio"] = c[f"{KERNEL}.distinct_blocks"] / sim_calls if sim_calls else 0.0
        joint_calls = c[f"{KERNEL}.joint.calls"]
        out["montecarlo.joint_mix_frac"] = (
            c["analysis.location_mixture_snr.calls"] / joint_calls if joint_calls else 0.0
        )
        # Each sampled draw evaluates beta_r_term once.
        out["analysis.estimate_joint_moments.draws"] = c["signal_engine.beta_r_term.calls"] / inv
        ejm = "analysis.estimate_joint_moments"
        ejm_ns = sum(e - s for n, s, e, _ in self.tracer.spans if n == ejm)
        out[ejm + ".ms_per_call"] = ejm_ns / 1e6 / c[ejm + ".calls"] if c[ejm + ".calls"] else 0.0
        out["trace.spans"] = len(self.tracer.spans) / inv
        out["trace.overhead_frac"] = overhead_frac
        return {name: out[name] for name, _, _ in PER_LAYER}
