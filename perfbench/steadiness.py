#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Takes one or more sets of untraced runs. A set is one run per workload and
seed, and its runs are interleaved round-robin: seed 1 of every workload,
then seed 2 of every workload, and so on. A host that is slow for a few
minutes then slows a few runs of every workload instead of a whole
workload's set.

For every end-to-end metric of every set it prints the median, the
quartiles (Python's statistics.quantiles(values, n=4)) and the spread: the
interquartile range as a share of the median. A metric is steady when its
spread is below a third of its bound in BENCHMARK.json (setup_s is held to
its median only). For every set after the first it prints how much worse
each median got against the first set, as a share of the first median; that
must stay within the metric's bound.

Run from the repository root:

    python3 perfbench/steadiness.py --sets 2 --seeds 10 [--workloads ladder,orgs] [--json raw.jsonl]
    python3 perfbench/steadiness.py --from raw.jsonl    # report saved runs again

The exit code is 0 only if every run was correct and every check held.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_sets(spec, args):
    """Runs the sets and yields one record per run."""
    workloads = args.workloads.split(",")
    for s in range(args.sets):
        for k in range(args.seeds):
            seed = args.first_seed + k
            for w in workloads:
                cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                         "--seconds", str(args.seconds), "--trace", "0"]
                t0 = time.time()
                out = subprocess.run(cmd, capture_output=True, text=True)
                wall = time.time() - t0
                if out.returncode != 0:
                    sys.exit(f"set {s + 1} {w} seed {seed}: exit {out.returncode}\n{out.stderr}")
                res = json.loads(out.stdout.strip().splitlines()[-1])
                if not res["correct"] or res["failed"]:
                    print(f"set {s + 1} {w} seed {seed}: {res['failed']} of {res['attempted']} failed\n"
                          f"{out.stderr}", file=sys.stderr)
                info = [l for l in out.stdout.splitlines() if l.startswith("# ")]
                rec = {"set": s + 1, "workload": w, "seed": seed, "wall_s": wall,
                       "start": t0, "info": info, "result": res}
                if args.json:
                    with open(args.json, "a") as f:
                        f.write(json.dumps(rec) + "\n")
                print(f"<!-- set {rec['set']} {w} seed {seed}: {wall:.1f} s -->", file=sys.stderr)
                yield rec


def report(spec, records):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    ok = True
    values = {}  # (set, workload, metric) -> [values]
    sets, workloads = [], []
    counts = {}
    for r in records:
        res = r["result"]
        if r["set"] not in sets:
            sets.append(r["set"])
        if r["workload"] not in workloads:
            workloads.append(r["workload"])
        att, fail = counts.get(r["set"], (0, 0))
        counts[r["set"]] = (att + res["attempted"], fail + res["failed"])
        ok = ok and res["correct"] and res["failed"] == 0
        for m in bounds:
            values.setdefault((r["set"], r["workload"], m), []).append(res["metrics"][m]["value"])

    for s in sets:
        att, fail = counts[s]
        print(f"\nSet {s}: {fail} failed of {att} attempted.\n")
        print("| workload | metric | runs | median | q1 | q3 | spread | bound/3 | steady |")
        print("|---|---|---|---|---|---|---|---|---|")
        for w in workloads:
            for m in bounds:
                v = values.get((s, w, m))
                if not v:
                    continue
                q1, _, q3 = statistics.quantiles(v, n=4)
                med = statistics.median(v)
                spread = (q3 - q1) / med
                if m == "setup_s":
                    steady = "n/a"
                else:
                    steady = "yes" if spread < bounds[m] / 3 else "NO"
                    ok = ok and spread <= bounds[m]
                print(f"| {w} | {m} | {len(v)} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} | "
                      f"{bounds[m] / 3:.3f} | {steady} |")

    first = sets[0] if sets else None
    for s in sets[1:]:
        print(f"\nSet {s} against set {first} (worse by: the change of the median in the metric's "
              "bad direction, as a share of the first median):\n")
        print("| workload | metric | first median | this median | worse by | bound | within |")
        print("|---|---|---|---|---|---|---|")
        for w in workloads:
            for m in bounds:
                a, b = values.get((first, w, m)), values.get((s, w, m))
                if not a or not b:
                    continue
                m1, m2 = statistics.median(a), statistics.median(b)
                change = (m2 - m1) / m1
                worse = max(change if better[m] == "lower" else -change, 0)
                within = worse <= bounds[m]
                ok = ok and within
                print(f"| {w} | {m} | {m1:.6g} | {m2:.6g} | {worse:.3f} | {bounds[m]} | "
                      f"{'yes' if within else 'NO'} |")
    return ok


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--json", help="append every raw result to this JSON-lines file")
    ap.add_argument("--from", dest="saved", help="report the runs saved in this JSON-lines file")
    args = ap.parse_args()

    if args.saved:
        records = [json.loads(line) for line in open(args.saved)]
    else:
        records = list(run_sets(spec, args))
    sys.exit(0 if report(spec, records) else 1)


if __name__ == "__main__":
    main()
