#!/usr/bin/env python3
"""Summarizes or compares sets of benchmark runs, per workload and metric.

Record runs with `python3 perfbench/run.py ... --out FILE` (one JSON line
per run). Then:

    python3 perfbench/compare.py BASE            # spread of one set
    python3 perfbench/compare.py BASE CHANGE     # CHANGE against BASE

BASE and CHANGE are record files or directories of them. For every
(workload, trace mode, metric) the tool prints each set's median and
quartiles (statistics.quantiles, n=4) and the spread, the quartile
distance as a share of the median. End-to-end metrics are judged against
their BENCHMARK.json bound:

    unresolved  a set's spread exceeds the bound
    regressed   CHANGE's median is worse than BASE's by more than the bound
    improved    CHANGE's median is better by more than the bound
    same        otherwise

Per-layer metrics have no bound and are reported as "info". The sets'
provenance (build type, compiler, CPU, processor count, CRC backend,
shape, payload size, run length) must match, or the tool refuses unless
--force is given. Exit status: 0 when nothing regressed or is
unresolved (or the single set is steady), 1 otherwise, 2 on refusal.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

PROVENANCE_KEYS = ("build_type", "compiler", "cpu_model", "nproc", "crc32_backend", "shape",
                   "payload_bytes", "seconds")


def load_records(path):
    path = Path(path)
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    records = []
    for file in files:
        for line in file.read_text().splitlines():
            if line.strip():
                records.append(json.loads(line))
    if not records:
        raise SystemExit(f"compare: no records in {path}")
    return records


def group(records):
    """(workload, trace) -> metric -> [values]; plus the provenance seen."""
    groups = {}
    for record in records:
        prov = record["provenance"]
        key = (prov["workload"], int(prov["trace"]))
        metrics = groups.setdefault(key, {})
        for name, entry in record["result"]["metrics"].items():
            metrics.setdefault(name, []).append(float(entry["value"]))
    return groups


def provenance_mismatches(records):
    seen = {}
    for record in records:
        prov = record["provenance"]
        for key in PROVENANCE_KEYS:
            if key in ("shape", "payload_bytes"):
                key_id = (key, prov["workload"])
            else:
                key_id = (key,)
            seen.setdefault(key_id, set()).add(json.dumps(prov.get(key)))
    return {k: v for k, v in seen.items() if len(v) > 1}


def summary(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))
    return med, q1, q3, spread


def verdict(base, change, better, bound):
    if bound is None:
        return "info"
    if base[3] > bound or change[3] > bound:
        return "unresolved"
    if base[0] == 0:
        return "same" if change[0] == 0 else "unresolved"
    delta = (change[0] - base[0]) / abs(base[0])
    worse = delta > bound if better == "lower" else delta < -bound
    gained = delta < -bound if better == "lower" else delta > bound
    return "regressed" if worse else ("improved" if gained else "same")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--spec", default="BENCHMARK.json", help="path to BENCHMARK.json")
    parser.add_argument("--force", action="store_true", help="compare despite provenance mismatch")
    args = parser.parse_args()

    spec = json.loads(Path(args.spec).read_text())
    info = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    base_records = load_records(args.base)
    change_records = load_records(args.change) if args.change else []
    mismatched = provenance_mismatches(base_records + change_records)
    if mismatched and not args.force:
        for key, values in sorted(mismatched.items()):
            print(f"compare: provenance {'/'.join(map(str, key))} differs: {sorted(values)}",
                  file=sys.stderr)
        print("compare: refusing to compare runs of different builds or hosts (--force overrides)",
              file=sys.stderr)
        return 2

    base = group(base_records)
    change = group(change_records) if args.change else {}
    bad = 0
    header = f"{'workload':<17} {'t':>1} {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}"
    if args.change:
        header += f" {'change med':>12} {'spread':>7} {'delta':>8}  verdict"
    else:
        header += "  bound  verdict"
    print(header)
    for key in sorted(set(base) | set(change)):
        workload, trace = key
        names = sorted(set(base.get(key, {})) | set(change.get(key, {})))
        for name in names:
            better, bound = info.get(name, ("lower", None))
            a = base.get(key, {}).get(name)
            b = change.get(key, {}).get(name)
            if args.change and (a is None or b is None):
                print(f"{workload:<17} {trace:>1} {name:<36} missing in one set  unresolved")
                bad += 1
                continue
            sa = summary(a)
            row = f"{workload:<17} {trace:>1} {name:<36} {sa[0]:>12.6g} {sa[1]:>12.6g} {sa[2]:>12.6g} {sa[3]:>7.3f}"
            if args.change:
                sb = summary(b)
                delta = (sb[0] - sa[0]) / abs(sa[0]) if sa[0] else 0.0
                v = verdict(sa, sb, better, bound)
                bad += v in ("regressed", "unresolved")
                row += f" {sb[0]:>12.6g} {sb[3]:>7.3f} {delta:>+8.3f}  {v}"
            else:
                if bound is None:
                    v = "info"
                else:
                    v = "steady" if sa[3] <= bound else "unsteady"
                    bad += v == "unsteady"
                row += f"  {'-' if bound is None else format(bound, '.2f'):>5}  {v}"
            print(row)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
