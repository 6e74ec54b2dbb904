"""What `rekey_check.py` and `pairs.py` share: the command lists and the
runner that invokes `mmwsec` from a given `src/` in a fresh interpreter.

Each command is one `mmwsec` command line.  The runner writes its output
under a given directory, as `-o DIR/out.csv`, and returns the wall time,
the CPU time and the peak resident set size of that interpreter.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

# Seven small runs over every axis and both evaluators: a change that keeps
# their bytes keeps the sweep's output (`rekey_check.py`).
SAME_BYTES = {
    "fig3_s0": "mmwsec figure 3 --ensemble 8 --seed 0",
    "fig3_s3": "mmwsec figure 3 --ensemble 8 --seed 3",
    "fig4": "mmwsec figure 4 --ensemble 8",
    "analytic": "mmwsec sweep --axis rho-e --values 0,10,20 --strategies random-path,joint --analytic --ensemble 2",
    "antennas": "mmwsec sweep --axis antennas --values 16,32,64 --strategies all --theta-e 55 --ensemble 4",
    "theta": "mmwsec sweep --axis theta-e --values 1,40,55,140,180 --strategies all --symbols 1000 --ensemble 4",
    "paths": "mmwsec sweep --axis paths --values 4,8,12 --strategies all --theta-e 40 --ensemble 4 --symbols 10007",
}

# The end-to-end commands a user waits for: figure 3, its closed form, and
# one curve of figure 1 at ensemble 20 rather than the default 200, so ten
# pairs of it take minutes, not an hour (`pairs.py`).
NORTH_STAR = {
    "fig3": "mmwsec figure 3",
    "fig3_analytic": "mmwsec figure 3 --analytic",
    "fig1_L12_e20": "mmwsec sweep --axis theta-e --strategies all --paths 12 --ensemble 20",
}

RUN = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from mmwsec.cli import main; sys.exit(main(sys.argv[2:]))"
)


def argv_of(command: str) -> list[str]:
    """A command's arguments, without the program name."""
    return shlex.split(command)[1:]


def invoke(src: str, argv: list[str], out_dir: Path) -> tuple[float, float, float]:
    """Run `mmwsec argv -o out_dir/out.csv` with the package in src, in a
    fresh interpreter; return its wall seconds, its CPU seconds (user plus
    system) and its peak RSS in MB.  Exits with a one-line message naming
    the command and src if it exits nonzero."""
    out_dir.mkdir(parents=True)
    cmd = [sys.executable, "-c", RUN, src, *argv, "-o", str(out_dir / "out.csv")]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=out_dir, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.exit(f"`mmwsec {shlex.join(argv)}` exited with status {proc.returncode} with src {src}")
    return seconds, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024  # Linux reports KB
