#!/usr/bin/env python3
"""Collects benchmark results over several seeds and compares result sets.

    # run a workload once per seed, one result JSON per line
    python3 perfbench/compare.py collect --workload aot_box2d121 --seeds 1-10 --out a.jsonl
    # spread of each end-to-end metric: (Q3 - Q1) / median, against its bound
    python3 perfbench/compare.py spread a.jsonl
    # is `head` worse than `base` by more than a metric's bound?
    python3 perfbench/compare.py diff base.jsonl head.jsonl

Bounds and directions come from BENCHMARK.json at the repository root.
Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def load_metrics(path="BENCHMARK.json"):
    """name -> (unit, better, bound or None) for every metric."""
    spec = json.loads(Path(path).read_text())
    out = {}
    for m in spec["end_to_end"]:
        out[m["name"]] = (m["unit"], m["better"], m["bound"])
    for m in spec["per_layer"]:
        out[m["name"]] = (m["unit"], m["better"], None)
    return out


def load_results(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def values(results, name):
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def spread(vals):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / med if med else float("inf")


def worse_by(base, head, better):
    """Relative change of `head`'s median from `base`'s, positive = worse."""
    b, h = statistics.median(base), statistics.median(head)
    if b == 0:
        return 0.0 if h == b else float("inf")
    change = (h - b) / abs(b)
    return change if better == "lower" else -change


def regressions(base_results, head_results, metrics):
    """(name, base median, head median, worse-by, bound) for every bounded
    metric whose median got worse by more than its bound."""
    flagged = []
    for name, (_, better, bound) in metrics.items():
        if bound is None:
            continue
        base, head = values(base_results, name), values(head_results, name)
        if not base or not head:
            continue
        w = worse_by(base, head, better)
        if w > bound:
            flagged.append((name, statistics.median(base), statistics.median(head), w, bound))
    return flagged


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_collect(args):
    if args.seconds is None:
        args.seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                                "--seed", str(seed), "--seconds", str(args.seconds),
                                "--trace", args.trace], capture_output=True, text=True)
            last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
            if r.returncode != 0 or not last.startswith("{"):
                print(f"seed {seed}: run failed (exit {r.returncode})\n{r.stderr[-2000:]}",
                      file=sys.stderr)
                return 1
            out.write(last + "\n")
            out.flush()
            steal = [l for l in r.stdout.splitlines() if l.startswith("# host cpu steal")]
            print(f"seed {seed}: {last}", *steal, sep="\n")
    return 0


def cmd_spread(args):
    metrics = load_metrics()
    ok = True
    for path in args.files:
        results = load_results(path)
        print(f"{path}: {len(results)} runs, failed samples {sum(r['failed'] for r in results)}")
        for name, (unit, _, bound) in metrics.items():
            vals = values(results, name)
            if bound is None or len(vals) < 2:
                continue
            s = spread(vals)
            verdict = "ok" if s < bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            if name != "setup_s" and s > bound:
                ok = False
            print(f"  {name:12s} median {statistics.median(vals):.6g} {unit:6s} "
                  f"spread {s:.4f} bound {bound} -> {verdict}")
    return 0 if ok else 1


def cmd_diff(args):
    flagged = regressions(load_results(args.base), load_results(args.head), load_metrics())
    for name, b, h, w, bound in flagged:
        print(f"WORSE {name}: median {b:.6g} -> {h:.6g} ({w:+.1%}, bound {bound:.0%})")
    if not flagged:
        print("no metric worse than its bound")
    return 1 if flagged else 0


def main():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    c.add_argument("--trace", choices=("0", "1"), default="0")
    c.add_argument("--out", required=True)
    s = sub.add_parser("spread")
    s.add_argument("files", nargs="+")
    d = sub.add_parser("diff")
    d.add_argument("base")
    d.add_argument("head")
    args = ap.parse_args()
    return {"collect": cmd_collect, "spread": cmd_spread, "diff": cmd_diff}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
