#!/usr/bin/env python3
"""Merge the benchmark's run files into one result, and compare two results.

    results.py merge DIR             DIR/run-*.json -> result on stdout, summary on stderr
    results.py compare A.json B.json per workload x end-to-end metric: medians, bound, verdict

The metrics, their directions and their bounds are read from
BENCHMARK.json beside this directory. `compare` exits 0 when nothing is
worse, 1 when something is, 2 when the two results must not be compared.
"""

import json
import statistics
import sys
from pathlib import Path

CONTRACT = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
HOST_KEYS = ["nproc", "workers", "rustc", "wal_sync", "out_fs", "seed"]

# What the first prototype saw (ISSUE 13), checked against every result.
EXPECTED = [
    ("occ_hot", "scheduler.parallel_speedup", "< 1", lambda v: v < 1),
    ("stream_local", "core.monitor.contention_factor", "> 2", lambda v: v > 2),
    ("stream_cross", "core.monitor.late_over_early", "> 1.2", lambda v: v > 1.2),
    ("stream_local", "core.monitor.late_over_early", "0.8 to 1.2", lambda v: 0.8 <= v <= 1.2),
]


def runs_of(result, workload, trace):
    return [r for r in result["runs"] if r["workload"] == workload and r["trace"] == trace]


def values(result, workload, section, metric):
    """`metric` over the runs of `workload`: end_to_end from untraced runs, per_layer from traced."""
    trace = 1 if section == "per_layer" else 0
    return [r[section][metric]["value"] for r in runs_of(result, workload, trace)]


def merge(directory):
    runs = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("run-*.json"))]
    if not runs:
        sys.exit(f"no run-*.json under {directory}")
    meta = {k: runs[0][k] for k in HOST_KEYS}
    if any({k: r[k] for k in HOST_KEYS} != meta for r in runs):
        sys.exit("the run files were made on different hosts, workers or seeds")
    result = {"schema": runs[0]["schema"], "meta": meta, "runs": runs, "findings": []}
    for workload, metric, expected, holds in EXPECTED:
        seen = values(result, workload, "per_layer", metric)
        if seen:
            value = statistics.median(seen)
            result["findings"].append(
                {"workload": workload, "metric": metric, "expected": expected, "value": value, "held": holds(value)}
            )
    return result


def summary(result):
    lines = []
    for workload in WORKLOADS:
        cells = []
        for m in CONTRACT["end_to_end"]:
            seen = values(result, workload, "end_to_end", m["name"])
            if seen:
                cells.append(f"{m['name']}={statistics.median(seen):.4f} {m['unit']}")
        if cells:
            lines.append(f"{workload:<15} " + "  ".join(cells))
    for f in result["findings"]:
        held = "held" if f["held"] else "did NOT hold"
        lines.append(f"finding: {f['metric']} {f['expected']} on {f['workload']}: {f['value']:.3f} - {held}")
    return "\n".join(lines)


def spread(xs):
    """Distance between the quartiles as a share of the median (0 for a single run)."""
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)


def judge(a, b, better, bound):
    """Verdict on the runs `b` against the baseline's runs `a`."""
    ma, mb = statistics.median(a), statistics.median(b)
    worsening = (mb - ma if better == "lower" else ma - mb) / ma
    ahead = max(b) < min(a) if better == "lower" else min(b) > max(a)
    if ahead and -worsening > bound:
        return "better"
    # A spread wider than the bound resolves neither "unchanged" nor "regressed".
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    return "worse" if worsening > bound else "within"


def failed_share(result, workload):
    runs = runs_of(result, workload, 0)
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def compare(a, b):
    """The table, and whether any pairing came out worse. ValueError when a and b must not be compared."""
    for key in ("workers", "seed"):
        if a["meta"][key] != b["meta"][key]:
            raise ValueError(f"`{key}` differs ({a['meta'][key]!r} vs {b['meta'][key]!r})")
    rows = [f"{'workload':<15} {'metric':<17} {'median A':>14} {'median B':>14} {'change':>8} {'bound':>6}  verdict"]
    any_worse = False
    for workload in WORKLOADS:
        rounds = [[r["rounds"] for r in runs_of(doc, workload, 0)] for doc in (a, b)]
        if rounds[0] != rounds[1]:
            raise ValueError(f"round counts of {workload} differ ({rounds[0]} vs {rounds[1]})")
        if not rounds[0]:
            continue
        for m in CONTRACT["end_to_end"]:
            va = values(a, workload, "end_to_end", m["name"])
            vb = values(b, workload, "end_to_end", m["name"])
            ma, mb = statistics.median(va), statistics.median(vb)
            verdict = judge(va, vb, m["better"], m["bound"])
            any_worse |= verdict == "worse"
            rows.append(
                f"{workload:<15} {m['name']:<17} {ma:>14.4f} {mb:>14.4f} {(mb - ma) / ma:>+8.1%} {m['bound']:>6.0%}  {verdict}"
            )
        # Any operation that newly fails the oracle is a regression: bound 0, absolute.
        fa, fb = failed_share(a, workload), failed_share(b, workload)
        verdict = "worse" if fb > fa else "better" if fb < fa else "within"
        any_worse |= verdict == "worse"
        rows.append(f"{workload:<15} {'failed_ops_share':<17} {fa:>14.6f} {fb:>14.6f} {fb - fa:>+8.6f} {'0':>6}  {verdict}")
    return "\n".join(rows), any_worse


def main(argv):
    if len(argv) == 3 and argv[1] == "merge":
        result = merge(argv[2])
        print(summary(result), file=sys.stderr)
        print(json.dumps(result))
        return 0
    if len(argv) == 4 and argv[1] == "compare":
        a, b = (json.loads(Path(p).read_text()) for p in argv[2:])
        try:
            table, any_worse = compare(a, b)
        except ValueError as refusal:
            print(f"refusing to compare: {refusal}", file=sys.stderr)
            return 2
        print(table)
        return 1 if any_worse else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
