#!/usr/bin/env python3
"""Minor page faults, wall and CPU time per `mmwsec` invocation.

Runs one mmwsec command line in-process, `figure 3 --ensemble 8` unless
another is given: one warm-up invocation, then five timed ones, each
counted with resource.getrusage (faults and CPU are the whole process's,
all threads).  Prints one JSON object.

    python3 scripts/minor_faults.py                      # this checkout's src/
    python3 scripts/minor_faults.py --src OTHER/src      # another checkout
    python3 scripts/minor_faults.py -- sweep --axis antennas --values 16,32,64 \
        --strategies all --theta-e 55 --ensemble 32
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

DEFAULT_COMMAND = ["figure", "3", "--ensemble", "8"]
REPS = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("command", nargs="*", help="mmwsec arguments, after --")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from mmwsec.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        cmd = [*(args.command or DEFAULT_COMMAND), "-o", str(Path(tmp) / "out.csv")]
        cli_main(cmd)  # warm-up: imports, allocator and BLAS set-up
        faults, wall, cpu = [], [], []
        for _ in range(REPS):
            r0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
            if cli_main(cmd) != 0:
                raise SystemExit(f"mmwsec {' '.join(cmd[:-2])} failed")
            r1, t1 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
            faults.append(r1.ru_minflt - r0.ru_minflt)
            wall.append(t1 - t0)
            cpu.append(r1.ru_utime + r1.ru_stime - r0.ru_utime - r0.ru_stime)
    print(json.dumps({
        "command": "mmwsec " + " ".join(cmd[:-2]),
        "src": args.src,
        "minor_faults_per_invocation": faults,
        "median_minor_faults": statistics.median(faults),
        "median_wall_s": round(statistics.median(wall), 4),
        "median_cpu_s": round(statistics.median(cpu), 4),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
