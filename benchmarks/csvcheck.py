"""Correctness checks of the result CSVs a workload writes.

Each row of a run is compared with the committed reference row of the same
(strategy, axis value):

* the status matches;
* every numeric field of an ``ok`` row is finite, the standard error is
  non-negative and 0 <= rate <= log2(1 + SNR_R), which holds for any seed
  because the rate is a mean of clamped log-differences;
* a row whose reference standard error is 0 is deterministic (it does not
  depend on the channel draw, e.g. the conventional beam) and must match
  the reference to print precision on any seed;
* at the reference seed, every other row's rate lies within
  ``K_SE * hypot(SE_run, SE_ref)`` of the reference rate.  A change that
  re-keys the random streams but keeps the model passes this; a shifted
  rate does not.

A row also fails when it differs from the same row of an earlier
invocation with the same seed, since identical configurations must give
byte-identical CSVs.
"""

from __future__ import annotations

import math

HEADER = "strategy,axis,axis_value,snr_r_db,snr_e_db,secrecy_rate_bps_hz,stderr,status"
NUMERIC = ("snr_r_db", "snr_e_db", "secrecy_rate_bps_hz", "stderr")
K_SE = 4.0
PRINT_TOL = 1.5e-6  # values are printed with six decimals


def parse(text: str) -> dict[tuple[str, str], dict[str, str]]:
    """Rows of a result CSV keyed by (strategy, axis value)."""
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError(f"unexpected CSV header: {lines[0] if lines else '(empty)'}")
    keys = HEADER.split(",")
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(keys):
            raise ValueError(f"malformed CSV row: {line!r}")
        row = dict(zip(keys, fields))
        rows[(row["strategy"], row["axis_value"])] = row
    return rows


def _row_problem(row, ref, statistical: bool) -> str | None:
    if row["status"] != ref["status"]:
        return f"status {row['status']} != reference {ref['status']}"
    if row["status"] != "ok":
        return None
    try:
        v = {k: float(row[k]) for k in NUMERIC}
    except ValueError:
        return "empty or non-numeric field"
    if not all(math.isfinite(x) for x in v.values()):
        return "non-finite value"
    r = {k: float(ref[k]) for k in NUMERIC}
    rate, se = v["secrecy_rate_bps_hz"], v["stderr"]
    if se < 0:
        return f"negative stderr {se}"
    if not 0.0 <= rate <= math.log2(1.0 + 10.0 ** (v["snr_r_db"] / 10.0)) + PRINT_TOL:
        return f"rate {rate} outside [0, log2(1 + SNR_R)]"
    if r["stderr"] == 0.0:
        off = [k for k in NUMERIC if abs(v[k] - r[k]) > PRINT_TOL]
        return f"deterministic row differs in {off}" if off else None
    if statistical:
        tol = K_SE * math.hypot(se, r["stderr"])
        if abs(rate - r["secrecy_rate_bps_hz"]) > tol:
            return (
                f"rate {rate} differs from reference {r['secrecy_rate_bps_hz']} "
                f"by more than {K_SE:g} * hypot(SE) = {tol:.6f}"
            )
    return None


def check_outputs(outputs, references, earlier=None, statistical=False):
    """Check one invocation's CSVs.

    outputs, references and earlier map a file name to CSV text; earlier
    holds the first invocation with the same seed, if any.  statistical
    turns on the rate comparison, which is valid only at the reference
    seed.  Returns (rows attempted, {(file, strategy, axis value): reason}).
    """
    attempted = 0
    failed = {}
    for fname, ref_text in references.items():
        ref_rows = parse(ref_text)
        text = outputs.get(fname)
        if text is None:
            attempted += len(ref_rows)
            failed.update({(fname, *k): "file not written" for k in ref_rows})
            continue
        try:
            rows = parse(text)
        except ValueError as e:
            attempted += len(ref_rows)
            failed.update({(fname, *k): str(e) for k in ref_rows})
            continue
        base = parse(earlier[fname]) if earlier and fname in earlier else None
        keys = list(ref_rows) + [k for k in rows if k not in ref_rows]
        attempted += len(keys)
        for key in keys:
            if key not in ref_rows:
                problem = "row not in reference"
            elif key not in rows:
                problem = "row missing"
            else:
                problem = _row_problem(rows[key], ref_rows[key], statistical)
                if problem is None and base is not None and base.get(key) != rows[key]:
                    problem = "differs from an earlier same-seed invocation"
            if problem:
                failed[(fname, *key)] = problem
    return attempted, failed
