#!/usr/bin/env python3
"""Time one `mmwsec` command in alternating pairs of this checkout and another.

Each pair runs the command once with this checkout's src/ and once with
the other's, each in a fresh interpreter (`twotree.invoke`), and the
order flips every pair: pair 0 runs the other tree first.  Prints one
JSON object per command: each side's median and quartiles of wall time,
its median and interquartile range of CPU time (user plus system) and
its median peak RSS, the per-pair wall-time ratios this / other, how many pairs
this tree won, and whether it won at least 9 in 10 of them with a median
below the other's by more than the other's interquartile range.  With no
command after `--`, it times `twotree.NORTH_STAR`.  The command omits the
program name; a run that exits nonzero stops the script with a one-line
message naming the command and the tree's src/.

    python3 scripts/pairs.py --src OTHER/src --pairs 10 -- figure 3 --ensemble 8
    python3 scripts/pairs.py --src OTHER/src       # the north-star commands
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

from twotree import NORTH_STAR, argv_of, invoke

ROOT = Path(__file__).resolve().parent.parent


def summary(seconds: list[float], cpu: list[float], rss: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    cpu_q1, cpu_median, cpu_q3 = statistics.quantiles(cpu, n=4, method="inclusive")
    return {
        "median_s": round(median, 4),
        "q1_s": round(q1, 4),
        "q3_s": round(q3, 4),
        "iqr_s": round(q3 - q1, 4),
        "cpu_median_s": round(cpu_median, 4),
        "cpu_iqr_s": round(cpu_q3 - cpu_q1, 4),
        "peak_rss_mb_median": round(statistics.median(rss), 2),
        "runs_s": [round(s, 4) for s in seconds],
    }


def time_pairs(argv: list[str], trees: dict[str, str], pairs: int, tmp: Path) -> dict:
    runs = {side: ([], [], []) for side in trees}  # wall s, CPU s, peak RSS MB
    for i in range(pairs):
        for side in ("other", "this") if i % 2 == 0 else ("this", "other"):
            for series, value in zip(runs[side], invoke(trees[side], argv, tmp / f"{side}{i}")):
                series.append(value)
    this, other = (summary(*runs[side]) for side in ("this", "other"))
    ratios = [a / b for a, b in zip(runs["this"][0], runs["other"][0])]
    wins = sum(r < 1 for r in ratios)
    return {
        "this": this,
        "other": other,
        "ratios": [round(r, 4) for r in ratios],
        "wins": wins,
        "faster": wins >= 0.9 * pairs and other["median_s"] - this["median_s"] > other["iqr_s"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the other checkout's src/")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("command", nargs="*", help="mmwsec arguments, after --")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    commands = {" ".join(args.command): args.command} if args.command else {
        name: argv_of(command) for name, command in NORTH_STAR.items()
    }
    trees = {"this": str(ROOT / "src"), "other": args.src}
    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        for k, (name, argv_) in enumerate(commands.items()):
            result = time_pairs(argv_, trees, args.pairs, Path(tmp, str(k)))
            report[name] = {"command": "mmwsec " + " ".join(argv_), **result}
    print(json.dumps({**trees, "pairs": args.pairs, "commands": report}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
