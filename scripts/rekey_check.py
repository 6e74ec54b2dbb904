#!/usr/bin/env python3
"""Compare the files of the `same_bytes` commands (`twotree.SAME_BYTES`) in two trees.

Runs each command once with this checkout's src/ and once with another
checkout's, each in a fresh interpreter, and prints, per command, whether
every written file has the same bytes.  For the rows of a CSV that
differ, it prints per strategy how many changed and the worst
|delta rate| / hypot(SE, SE_other).  A row whose two SEs are both 0
counts as 0 if the rates agree and as infinite otherwise; a row missing
or inapplicable on one side counts as infinite.  Prints one JSON object,
and exits 1 if any file differs, else 0.

    python3 scripts/rekey_check.py --src OTHER/src
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import tempfile
from collections import Counter
from pathlib import Path

from twotree import SAME_BYTES, argv_of, invoke

ROOT = Path(__file__).resolve().parent.parent


def run(src: str, argv: list[str], out_dir: Path) -> dict[str, bytes]:
    """Every file `mmwsec argv -o out_dir/out.csv` writes, by name."""
    invoke(src, argv, out_dir)
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def rows(data: bytes) -> dict[tuple[str, str], dict[str, str]]:
    return {(r["strategy"], r["axis_value"]): r for r in csv.DictReader(data.decode().splitlines())}


def shift(a: dict[str, str], b: dict[str, str]) -> float:
    """|delta rate| / hypot(SE_a, SE_b) of two `ok` rows."""
    gap = abs(float(a["secrecy_rate_bps_hz"]) - float(b["secrecy_rate_bps_hz"]))
    se = math.hypot(float(a["stderr"]), float(b["stderr"]))
    return gap / se if se else (0.0 if gap == 0 else math.inf)


def compare(ours: dict[str, bytes], theirs: dict[str, bytes]) -> dict:
    if sorted(ours) != sorted(theirs):
        return {"files": {"this": sorted(ours), "other": sorted(theirs)}}
    result = {"identical_files": [n for n in ours if ours[n] == theirs[n]], "changed_rows": {}}
    worst = {}
    for name in ours:
        if ours[name] == theirs[name] or not name.endswith(".csv"):
            continue
        a, b = rows(ours[name]), rows(theirs[name])
        changed = [key for key in a if a[key] != b.get(key)] + [key for key in b if key not in a]
        result["changed_rows"][name] = dict(Counter(strategy for strategy, _ in changed))
        for key in changed:
            if key in a and key in b and a[key]["status"] == b[key]["status"] == "ok":
                s = shift(a[key], b[key])
            else:
                s = math.inf
            worst[key[0]] = round(max(worst.get(key[0], 0.0), s), 3)
    result["worst_rate_shift_in_hypot_se"] = worst
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the other checkout's src/")
    args = parser.parse_args(argv)
    report, differs = {}, False
    with tempfile.TemporaryDirectory() as tmp:
        for name, command in SAME_BYTES.items():
            argv_ = argv_of(command)
            ours = run(str(ROOT / "src"), argv_, Path(tmp, "this", name))
            theirs = run(args.src, argv_, Path(tmp, "other", name))
            report[name] = {"command": command, **compare(ours, theirs)}
            differs |= ours != theirs
    print(json.dumps({"this": str(ROOT / "src"), "other": args.src, "commands": report}, indent=1))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
