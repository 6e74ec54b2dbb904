#!/usr/bin/env python3
"""Milliseconds and minor page faults per switched and joint block and its estimates.

Times one `simulate_streams` block of K = 10,000 symbols at L = 12
paths, m = N/2 antennas on the main beam, observed at 40 and 55 degrees
(switched once per N, joint at l_s = 5 and 12), together with the
estimator calls the sweep makes on it: the receiver SNR, and the
alignment mixture at 40 degrees (switched) or the location mixture with
55 degrees as its sidelobe angle (joint).  The block and the estimates
are timed as one, as the sweep runs them.  Every call draws a fresh
channel.  Prints one JSON object with the median milliseconds and the
median minor page faults (`ru_minflt` of this process) over REPS calls
per configuration (fewer at N = 1024).  It gives no fault count at
N = 1024: there glibc's dynamic mmap and trim thresholds decide whether a
block's operator and 10 MB mask come back from the heap or from fresh
pages, so the count follows the allocator's state, not the kernel (runs
of two trees read from 0 to 144 faults per joint block).

Beside them, `figure3_ms` times the pattern of figure 3's nine rho_E
points: nine calls on one channel and one `SubsetBlock`, switched and
joint (l_s = 5) at every N, with their estimates; the median milliseconds
of the nine together.  The nine calls get one plan function, which builds
the plan stream from one key, as the sweep's rho_E points of one channel
do (`montecarlo._kernel_block`), so they draw the same counts.  Where
`simulate_streams` takes a `KernelBlock`, the nine calls share one, as
the sweep's do, and where the streams hold the eavesdropper views
(`SymbolStreams.eve`), the estimates read them, as the sweep does.  The
other tree's `simulate_streams` must accept a plan function.

With `--other`, it compares two trees instead: each pair runs this script
once on `--src` and once on `--other`, each in a fresh interpreter, and
the order flips every pair (pair 0 runs the other tree first), as
`pairs.py` does.  It prints, per column and configuration, each side's
median over the pairs, how many pairs `--src` read lower (wins) and how
many read the same (ties).

    python3 scripts/kernel_ms.py                      # this checkout's src/
    python3 scripts/kernel_ms.py --src OTHER/src      # another checkout
    python3 scripts/kernel_ms.py --other OTHER/src --pairs 10
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ANTENNAS = (16, 32, 64, 256, 1024)
POOLS = (5, 12)
K, L, THETA_R, ANGLES, NOISE = 10_000, 12, 40.0, (40.0, 55.0), 10**-1.5
REPS, REPS_LARGE = 11, 5
POINTS = 9  # figure 3's rho_E points
COLUMNS = ("median_ms", "median_minor_faults", "figure3_ms")


def alternate(trees: dict[str, str], pairs: int) -> dict:
    """Each column's per-configuration medians of both trees over `pairs`
    alternating pairs of fresh interpreters, with this tree's wins and ties."""
    runs = {side: [] for side in trees}
    for i in range(pairs):
        for side in ("other", "this") if i % 2 == 0 else ("this", "other"):
            cmd = [sys.executable, __file__, "--src", trees[side]]
            out = subprocess.run(cmd, check=True, capture_output=True).stdout
            runs[side].append(json.loads(out))
    report = {**trees, "pairs": pairs}
    for column in COLUMNS:
        report[column] = {}
        for label in runs["this"][0][column]:
            this, other = ([run[column][label] for run in runs[side]] for side in ("this", "other"))
            report[column][label] = {
                "this": statistics.median(this),
                "other": statistics.median(other),
                "wins": sum(a < b for a, b in zip(this, other)),
                "ties": sum(a == b for a, b in zip(this, other)),
            }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--other", help="another checkout's src/, timed in alternating pairs")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.other:
        if args.pairs < 2:
            parser.error("--pairs must be >= 2")
        print(json.dumps(alternate({"this": args.src, "other": args.other}, args.pairs), indent=1))
        return 0
    sys.path.insert(0, args.src)
    from mmwsec import analysis
    from mmwsec.array_geometry import ArrayConfig
    from mmwsec.channel import sample_channel
    from mmwsec import montecarlo
    from mmwsec.montecarlo import SubsetBlock, simulate_streams
    from mmwsec.strategies import StrategyKind

    def estimate(streams, joint):
        """The sweep's receiver and eavesdropper estimates of one block."""
        if hasattr(streams, "eve"):
            eve, side = streams.eve, streams.sidelobes
        else:  # streams that build no views
            eve, side = streams.moments.at(0), streams.moments.at([1])
        aligned = streams.table[0]
        analysis.receiver_snr(streams.recv_abs_sum, K, 1.0)
        if joint:
            return analysis.location_mixture_snr(eve, aligned, side, L, NOISE)
        return analysis.alignment_mixture_snr(eve, aligned, NOISE)

    seeds = itertools.count()
    configs = [("switched", StrategyKind.SWITCHED_ARRAY, n, POOLS[0]) for n in ANTENNAS]
    configs += [("joint", StrategyKind.JOINT_PATH_ANTENNA, n, ls) for n in ANTENNAS for ls in POOLS]
    table, faults = {}, {}
    for name, kind, n, l_s in configs:
        cfg, ms, minflt = ArrayConfig(n), [], []
        for _ in range(1 + (REPS_LARGE if n >= 1024 else REPS)):  # the first call warms up
            seed = next(seeds)
            ch = sample_channel(L, THETA_R, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            estimate(simulate_streams(ch, cfg, kind, n // 2, l_s, ANGLES, K, rng), name == "joint")
            ms.append((time.perf_counter() - t0) * 1e3)
            minflt.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
        label = f"{name} N={n}" + (f" l_s={l_s}" if name == "joint" else "")
        table[label] = round(statistics.median(ms[1:]), 2)
        if n < 1024:
            faults[label] = statistics.median(minflt[1:])
    shares_blocks = "block" in inspect.signature(simulate_streams).parameters
    points = {}
    for name, kind, n, l_s in configs:
        if l_s != POOLS[0]:
            continue
        cfg, ms = ArrayConfig(n), []
        for _ in range(1 + (REPS_LARGE if n >= 1024 else REPS)):
            seed = next(seeds)
            ch = sample_channel(L, THETA_R, np.random.default_rng(seed))
            subsets = SubsetBlock(np.random.default_rng(seed))
            extra = ()
            if shares_blocks:
                key = montecarlo._block_key(ch, cfg, kind, n // 2, l_s, ANGLES)
                extra = (montecarlo.KernelBlock(key),)
            plan = functools.partial(np.random.default_rng, [seed, 0])  # one per block
            t0 = time.perf_counter()
            for _ in range(POINTS):
                streams = simulate_streams(
                    ch, cfg, kind, n // 2, l_s, ANGLES, K, plan, subsets, *extra
                )
                estimate(streams, name == "joint")
            ms.append((time.perf_counter() - t0) * 1e3)
        label = f"{name} N={n}" + (f" l_s={l_s}" if name == "joint" else "")
        points[label] = round(statistics.median(ms[1:]), 2)
    print(
        json.dumps(
            {
                "src": args.src, "K": K, "L": L, "median_ms": table,
                "median_minor_faults": faults, "figure3_ms": points,
                "figure3_shares_blocks": shares_blocks,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
