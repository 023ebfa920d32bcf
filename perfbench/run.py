#!/usr/bin/env python3
"""Builds and runs the ISIS server benchmark (isis_bench) for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload browse_hot --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (the repository's library
sources plus the benchmark driver, Release) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that variable is unset; later calls only
re-check the build. Build output goes to stderr. The benchmark's own output
is relayed unchanged: JSON report lines, then the result object as the last
line. The exit status is the benchmark's: non-zero when a check failed, and
non-zero without a result line when the build fails.

Workloads: browse_hot, query_cold, gesture_durable (see BENCHMARK.json and
perfbench/layer_map.json). --trace 1 reports the per-layer metrics instead of
the end-to-end ones.

The metric names live in BENCHMARK.json; the driver's own list and
layer_map.json must name exactly the same metrics, and a run whose result
line does not is refused (exit 4), so the three copies cannot drift apart.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base_path = Path(base)
    if not base_path.is_absolute():
        base_path = ROOT / base_path
    return base_path / "perfbench"


def build(out: Path) -> Path:
    """Configures (once) and builds isis_bench; returns the binary path."""
    binary = out / "isis_bench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not any((out / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    if not binary.exists():
        raise FileNotFoundError(binary)
    return binary


def name_mismatch(result_line: str, trace: int) -> str:
    """Why the result's metric names differ from BENCHMARK.json; "" if not."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    got = list(json.loads(result_line)["metrics"])
    if got != want:
        return f"result metrics {sorted(set(got) ^ set(want))} differ"
    if trace:
        layer_map = json.loads((HERE / "layer_map.json").read_text())
        mapped = [m["metric"] for m in layer_map["per_layer"]]
        if mapped != want:
            return f"layer_map.json {sorted(set(mapped) ^ set(want))} differ"
    return ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, FileNotFoundError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out.parent / "run")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    try:
        why = name_mismatch(lines[-1], args.trace) if lines else ""
    except (ValueError, KeyError, TypeError) as e:
        why = f"unreadable result line: {e}"
    if why:
        print(f"run.py: {why} from BENCHMARK.json", file=sys.stderr)
        return 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
