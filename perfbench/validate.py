"""Output checks for one workload process.

Golden bytes are not pinned, because a planned engine change moves them
once; instead every process of a run must reproduce the first one's bytes
(``digest``), and each output must pass the checks below.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

_CSV_HEADER = "k,mean,variance,std_error,min,max,count"
_WALL_TIME_LINE = re.compile(rb'^\s*"wall_time_seconds": .*\n', re.MULTILINE)
_ASSUMPTIONS = ("A2-sup-prob", "A3-monotone", "A5-contraction-log")
# Criterion 09 of the acceptance suite: a time average and the ensemble tail
# agree within five combined standard errors.
_LLN_SES = 5.0


def _load_json(path: Path, errors: list):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        errors.append(f"{path.name}: {exc}")
        return None


def _nonfinite(obj) -> bool:
    if isinstance(obj, dict):
        return any(_nonfinite(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_nonfinite(v) for v in obj)
    return isinstance(obj, float) and not math.isfinite(obj)


def _read_csv(path: Path, errors: list):
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        errors.append(f"{path.name}: {exc}")
        return None
    if not lines or lines[0] != _CSV_HEADER:
        errors.append(f"{path.name}: bad header")
        return None
    try:
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except ValueError:
        errors.append(f"{path.name}: non-numeric field")
        return None
    if any(len(r) != 7 for r in rows):
        errors.append(f"{path.name}: expected 7 fields per row")
        return None
    if any(not math.isfinite(v) for r in rows for v in r):
        errors.append(f"{path.name}: non-finite value")
    return rows


def _check_orbits(out: Path, config: dict, meta: dict, errors: list) -> None:
    horizon, runs = config["horizon"], config["runs"]
    divergent = {}
    for entry in meta.get("divergent_runs", []):
        divergent[entry["sample_size"]] = divergent.get(entry["sample_size"], 0) + 1
    tails = []
    for n in config["sample_sizes"]:
        for stem in ("distance", "timeavg"):
            rows = _read_csv(out / f"{stem}_n{n}.csv", errors)
            if rows is None:
                continue
            if len(rows) != horizon + 1:
                errors.append(f"{stem}_n{n}.csv: {len(rows)} rows, expected {horizon + 1}")
            if [int(r[0]) for r in rows] != list(range(len(rows))):
                errors.append(f"{stem}_n{n}.csv: step column is not 0..K")
            expected = runs - divergent.get(n, 0)
            if any(int(r[6]) != expected for r in rows):
                errors.append(f"{stem}_n{n}.csv: count is not {expected}")
            if stem == "distance" and rows:
                tail = rows[len(rows) // 2:]
                tails.append((n, sum(r[1] for r in tail) / len(tail)))
    for (n_lo, lo), (n_hi, hi) in zip(tails, tails[1:]):
        if hi > lo:
            errors.append(f"tail mean orbit distance rises from n={n_lo} ({lo:.6g}) "
                          f"to n={n_hi} ({hi:.6g})")


def _check_lln(out: Path, config: dict, errors: list) -> None:
    for n in config["sample_sizes"]:
        report = _load_json(out / f"lln_n{n}.json", errors)
        if report is None:
            continue
        if _nonfinite(report):
            errors.append(f"lln_n{n}.json: non-finite value")
            continue
        ta, ses = report["time_averages"], report["time_average_ses"]
        tail, tail_se = report["tail_mean"], report["tail_se"]
        if len(ta) != config["runs"] or len(ses) != config["runs"]:
            errors.append(f"lln_n{n}.json: expected {config['runs']} time averages")
            continue
        for i, (a, se) in enumerate(zip(ta, ses)):
            if abs(a - tail) > _LLN_SES * math.hypot(se, tail_se):
                errors.append(f"lln_n{n}.json: run {i} time average {a:.6g} is more "
                              f"than {_LLN_SES:g} SE from the tail {tail:.6g}")
        if len(ta) >= 2 and abs(ta[0] - ta[1]) > _LLN_SES * math.hypot(ses[0], ses[1]):
            errors.append(f"lln_n{n}.json: runs 0 and 1 disagree beyond {_LLN_SES:g} SE")


def _check_assumptions(out: Path, errors: list) -> None:
    for aid in _ASSUMPTIONS:
        report = _load_json(out / f"assumption_{aid}.json", errors)
        if report is None:
            continue
        if _nonfinite(report):
            errors.append(f"assumption_{aid}.json: non-finite value")
        if report.get("verdict") == "violated":
            errors.append(f"{aid}: verdict violated")


def check(out: Path, subcommand: str, config: dict) -> tuple[list, int]:
    """Errors found in one command's output directory, and its divergent runs."""
    errors: list = []
    meta = _load_json(out / "meta.json", errors)
    if meta is None:
        return errors, 0
    if _nonfinite(meta):
        errors.append("meta.json: non-finite value")
    if any(v == "violated" for v in meta.get("verdicts", {}).values()):
        errors.append("meta.json: a verdict reads violated")
    if subcommand == "check":
        _check_assumptions(out, errors)
    elif config["experiment"] == "lln":
        _check_lln(out, config, errors)
    else:
        _check_orbits(out, config, meta, errors)
    return errors, int(meta.get("divergent_run_count", 0))


def digest(root: Path) -> str:
    """SHA-256 over every output file's path and bytes, with the
    wall_time_seconds line of each meta.json left out."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "meta.json":
            data = _WALL_TIME_LINE.sub(b"", data)
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()
