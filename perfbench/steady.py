#!/usr/bin/env python3
"""Steadiness and compare mode for the ISIS server benchmark.

Run one set (each run gets its own seed; results go to a JSON file):

    python3 perfbench/steady.py run --workload all --runs 10 --out set1.json

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles(n=4)) and the spread (Q3-Q1) as a
share of the median, against the metric's bound in BENCHMARK.json. A spread
under a third of the bound is "steady". setup_s's spread is printed but not
judged: one set-up takes a millisecond or two, so even the median of many
set-ups samples only the host's speed of that moment, and on a shared host
that speed drifts by more than any bound between runs a minute apart. Its
median is still compared between sets. --trace 1 summarizes the per-layer metrics
instead (no bounds).

Check two sets of runs of the same or of two commits against the bounds:

    python3 perfbench/steady.py compare set1.json set2.json

It fails (exit 1) when a metric's median in the second set is worse than in
the first by more than the metric's bound, or when a spread other than
setup_s's exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output "
                           f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    result["seed"] = seed
    if len(lines) > 1:
        result["report"] = json.loads(lines[-2])
    return result


def summarize(spec: dict, data: dict, trace: int) -> bool:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    steady = True
    for workload, runs in data["runs"].items():
        print(f"== {workload}: {len(runs)} runs, "
              f"{sum(1 for r in runs if r['correct'])} correct")
        names = list(runs[0]["metrics"].keys()) if runs else []
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            line = (f"  {name:34s} median {med:14.6g}  q1 {q1:14.6g}  "
                    f"q3 {q3:14.6g}  spread {spread:7.3f}")
            if trace == 0 and name in bounds:
                bound = bounds[name]["bound"]
                if name == "setup_s":
                    line += f"  bound {bound:.3f} (spread not judged)"
                else:
                    ok = spread < bound / 3
                    steady = steady and ok
                    line += (f"  bound {bound:.3f} "
                             f"{'steady' if ok else 'UNSTEADY'}")
            print(line)
    return steady


def cmd_run(args) -> int:
    spec = load_spec()
    names = ([w["name"] for w in spec["workloads"]]
             if args.workload == "all" else [args.workload])
    seconds = args.seconds or spec["run_seconds"]
    data = {"trace": args.trace, "seconds": seconds, "runs": {}}
    for workload in names:
        data["runs"][workload] = []
        for i in range(args.runs):
            r = one_run(workload, args.first_seed + i, seconds, args.trace)
            data["runs"][workload].append(r)
            print(f"{workload} seed {r['seed']}: correct={r['correct']} "
                  f"exit={r['exit']}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(data, indent=1))
    steady = summarize(spec, data, args.trace)
    all_correct = all(r["correct"] and r["exit"] == 0
                      for runs in data["runs"].values() for r in runs)
    return 0 if all_correct and (steady or args.trace) else 1


def cmd_compare(args) -> int:
    spec = load_spec()
    a = json.loads(Path(args.first).read_text())
    b = json.loads(Path(args.second).read_text())
    ok = True
    for metric in spec["end_to_end"]:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        for workload in sorted(set(a["runs"]) & set(b["runs"])):
            va = [r["metrics"][name]["value"] for r in a["runs"][workload]]
            vb = [r["metrics"][name]["value"] for r in b["runs"][workload]]
            qa, qb = quartiles(va), quartiles(vb)
            ma, mb = qa[1], qb[1]
            change = (mb - ma) / ma if ma else 0.0
            worse = change if better == "lower" else -change
            spreads = [(q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb)]
            fail = worse > bound or (
                name != "setup_s" and max(spreads) > bound)
            ok = ok and not fail
            print(f"{workload:16s} {name:20s} median {ma:12.6g} -> {mb:12.6g} "
                  f"({change:+.3f}; bound {bound:.3f}) spreads "
                  f"{spreads[0]:.3f}/{spreads[1]:.3f} "
                  f"{'FAIL' if fail else 'ok'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Repeated runs and bound checks for perfbench.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run each workload with several seeds")
    run.add_argument("--workload", default="all")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=0,
                     help="default: run_seconds from BENCHMARK.json")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", default="")
    run.set_defaults(func=cmd_run)
    cmp = sub.add_parser("compare", help="check two sets against the bounds")
    cmp.add_argument("first")
    cmp.add_argument("second")
    cmp.set_defaults(func=cmd_compare)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
