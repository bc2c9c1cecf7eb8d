#!/usr/bin/env python3
"""Interleaved A/B comparison of two revisions on the loombench workloads.

    python3 loombench/ab.py REV_A REV_B [--pairs 10] [--workloads a,b]
    python3 loombench/ab.py --compare A.jsonl B.jsonl

Run mode exports both revisions (git archive) into scratch directories,
puts THIS checkout's loombench/ into both, so both sides run identical
benchmark code, builds each, and runs the pairs A,B,B,A,A,B,... One pair
is one seed; the side that runs first alternates.

Compare mode reads records saved by run mode (one JSON record per line).

Per workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs B wins (ties count for neither) and a
verdict:
  gain         B wins >= 90% of pairs and the medians differ by more than
               A's own spread (the distance between A's quartiles)
  ok           B's median is not worse than A's by more than the bound
  unresolved   A's spread is wider than the bound and B does not beat every
               A run, so a regression within the noise cannot be ruled out
  regression   B's median is worse by more than the bound
Timings are compared only between records whose host fingerprints match.
The quality metrics are deterministic for a seed and are compared on every
pair whatever the fingerprints: any difference is reported as a change.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Deterministic outputs: identical for a seed unless partitioning changed.
QUALITY = ("ipt_vs_hash", "edge_cut_frac", "imbalance")


def load_spec(path=os.path.join(ROOT, "BENCHMARK.json")):
    with open(path) as f:
        return json.load(f)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative = better)."""
    if a == 0:
        return 0.0
    return (a - b) / a if better == "higher" else (b - a) / a


def win_share(pairs, better):
    """Share of (a, b) pairs where b is better; ties count for neither."""
    if not pairs:
        return 0.0
    wins = sum(1 for a, b in pairs if (b > a if better == "higher" else b < a))
    return wins / len(pairs)


def verdict(a_vals, b_vals, pairs, better, bound):
    """The choosing-metrics rule for one workload and metric."""
    q1, a_med, q3 = quartiles(a_vals)
    b_med = statistics.median(b_vals)
    a_spread = q3 - q1
    improved = (b_med > a_med) if better == "higher" else (b_med < a_med)
    if (win_share(pairs, better) >= 0.9 and improved
            and abs(b_med - a_med) > a_spread):
        return "gain"
    if a_med and a_spread / abs(a_med) > bound:
        if better == "higher":
            beats_all = min(b_vals) > max(a_vals)
        else:
            beats_all = max(b_vals) < min(a_vals)
        return "ok" if beats_all else "unresolved"
    return "regression" if worse_by(a_med, b_med, better) > bound else "ok"


def fingerprints_match(fa, fb):
    """Timings compare only when every fingerprint field agrees."""
    return fa == fb


def compare(records_a, records_b, spec, out=sys.stdout):
    """Prints the comparison table; returns False on a regression or a
    quality change."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    by_key = lambda recs: {(r["workload"], r["seed"]): r for r in recs}
    a_map, b_map = by_key(records_a), by_key(records_b)
    workloads = sorted({w for w, _ in a_map} & {w for w, _ in b_map})
    for w in workloads:
        seeds = sorted(s for ww, s in a_map if ww == w and (w, s) in b_map)
        pairs = [(a_map[(w, s)], b_map[(w, s)]) for s in seeds]
        timed = [(a, b) for a, b in pairs
                 if fingerprints_match(a["fingerprint"], b["fingerprint"])]
        print(f"\n{w}: {len(pairs)} pairs, {len(timed)} with matching host "
              "fingerprints", file=out)
        for name, m in metrics.items():
            if name in QUALITY:
                diff = [s for s, (a, b) in zip(seeds, pairs)
                        if a["metrics"][name]["value"]
                        != b["metrics"][name]["value"]]
                status = f"changed on seeds {diff}" if diff else "identical"
                ok = ok and not diff
                print(f"  {name:20s} quality {status}", file=out)
                continue
            if not timed:
                print(f"  {name:20s} skipped: host fingerprints differ",
                      file=out)
                continue
            vals = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                    for a, b in timed]
            a_vals = [a for a, _ in vals]
            b_vals = [b for _, b in vals]
            v = verdict(a_vals, b_vals, vals, m["better"], m["bound"])
            ok = ok and v != "regression"
            qa, qb = quartiles(a_vals), quartiles(b_vals)
            print(f"  {name:20s} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {m['unit']}  "
                  f"B wins {win_share(vals, m['better']):.0%}  {v}", file=out)
    return ok


def export(rev, dest):
    """Writes `rev`'s tree to dest, with this checkout's loombench/."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    data = subprocess.run(["git", "-C", ROOT, "archive", rev],
                          check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)
    shutil.rmtree(os.path.join(dest, "loombench"), ignore_errors=True)
    shutil.copytree(HERE, os.path.join(dest, "loombench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)


def run_side(root, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "loombench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{root}: {workload} seed {seed} failed "
                           f"(exit {proc.returncode})")
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    record["correct"] = result["correct"]
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("revs", nargs="*", help="REV_A REV_B")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--scratch", default=os.path.join(".bench_build", "ab"))
    args = parser.parse_args()
    spec = load_spec()

    if args.compare:
        recs = []
        for path in args.compare:
            with open(path) as f:
                recs.append([json.loads(l) for l in f if l.strip()])
        return 0 if compare(recs[0], recs[1], spec) else 1
    if len(args.revs) != 2:
        parser.error("give REV_A REV_B, or --compare A.jsonl B.jsonl")

    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    sides = {}
    for label, rev in zip("AB", args.revs):
        root = os.path.abspath(os.path.join(args.scratch, label))
        export(rev, root)
        sides[label] = root
    records = {"A": [], "B": []}
    for w in workloads:
        for i in range(args.pairs):
            order = "AB" if i % 2 == 0 else "BA"
            for label in order:
                rec = run_side(sides[label], w, args.seed_base + i, seconds)
                records[label].append(rec)
                print(f"{w} pair {i} {label} correct={rec['correct']}",
                      file=sys.stderr)
    for label in "AB":
        with open(os.path.join(args.scratch, f"records-{label}.jsonl"),
                  "w") as f:
            for rec in records[label]:
                f.write(json.dumps(rec) + "\n")
    ok = compare(records["A"], records["B"], spec)
    ok = ok and all(r["correct"] for rs in records.values() for r in rs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
