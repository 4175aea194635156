#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` binary from source
(CMake, Release) under $CARGO_TARGET_DIR (default .bench_build), runs the
workload and prints, as the last line of stdout, one JSON object with the
keys correct, attempted, failed and metrics. Progress, check results and
the build log go to stderr. Exits nonzero when the build fails, a check
fails or the workload errors.

Every workload prints the same metrics, those BENCHMARK.json lists:
with --trace 0 every end-to-end metric, which each workload must measure;
with --trace 1 every per-layer metric, where a layer the workload does not
exercise reads 0 (an idle layer).

With --trace 0, the workloads whose set-up is a cold reduction
(pg-reduce, serve-*) are also set up in SETUP_PROBES further fresh
processes, and setup_s is the median over all of them: every sample is
the first reduction of its process, so no warm-up hides the cold cost.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("alg3-er", "pg-reduce", "serve-distinct", "serve-zipf-churn")
COLD_SETUP_WORKLOADS = ("pg-reduce", "serve-distinct", "serve-zipf-churn")
SETUP_PROBES = 2
# The whole run must end within 180 s; the first run may also build.
RUN_TIMEOUT_S = 170


def log(msg: str) -> None:
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build(source: Path, build_dir: Path) -> Path:
    """Configure (once) and build the perfbench binary; return its path."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(source), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench", "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    binary = build_dir / "perfbench"
    if not binary.exists():
        raise FileNotFoundError(binary)
    return binary


def conform(metrics: dict, manifest: list[dict], idle_ok: bool) -> dict:
    """Order `metrics` as `manifest` lists them, checking units.

    A listed metric the workload did not report is an error, unless
    `idle_ok` (per-layer metrics), when it reads 0 in its unit. A reported
    metric the manifest does not list, or one without a numeric value, is
    an error too.
    """
    listed = {m["name"] for m in manifest}
    extra = sorted(set(metrics) - listed)
    if extra:
        raise ValueError(f"metrics not in BENCHMARK.json: {extra}")
    out = {}
    for m in manifest:
        got = metrics.get(m["name"])
        if got is None:
            if not idle_ok:
                raise ValueError(f"metric {m['name']} not measured")
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            raise ValueError(f"metric {m['name']} in {got['unit']}, "
                             f"BENCHMARK.json says {m['unit']}")
        if not isinstance(got["value"], (int, float)):
            raise ValueError(f"metric {m['name']} has no value")
        out[m["name"]] = got
    return out


def run_binary(cmd: list[str], deadline: float) -> dict:
    """Run one perfbench process and parse its last stdout line."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if not lines:
        raise RuntimeError(f"no result from {' '.join(cmd)} "
                           f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["_exit"] = proc.returncode
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    here = Path(__file__).resolve().parent
    try:
        manifest = json.loads((here.parent / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = build_root / "perfbench"
    try:
        binary = build(here, build_dir)
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        log(f"build failed: {e}")
        return 1

    deadline = time.monotonic() + RUN_TIMEOUT_S
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.trace:
        spans = build_root / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans",
                str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        result = run_binary(cmd, deadline)
        if result["_exit"] != 0 or not result["correct"]:
            log(f"workload failed (exit {result['_exit']})")
            print(json.dumps({k: v for k, v in result.items()
                              if not k.startswith("_")}))
            return 1
        if not args.trace and args.workload in COLD_SETUP_WORKLOADS:
            samples = [result["metrics"]["setup_s"]["value"]]
            for _ in range(SETUP_PROBES):
                p = run_binary([str(binary), "--workload", args.workload,
                                "--seed", str(args.seed), "--seconds",
                                str(args.seconds), "--trace", "0",
                                "--setup-only"], deadline)
                if p["_exit"] != 0 or not p["correct"]:
                    log("set-up probe failed")
                    return 1
                samples.append(p["metrics"]["setup_s"]["value"])
            log("cold set-up samples (s): " +
                ", ".join(f"{s:.4f}" for s in samples))
            result["metrics"]["setup_s"]["value"] = statistics.median(samples)
        result["metrics"] = conform(
            result["metrics"],
            manifest["per_layer" if args.trace else "end_to_end"],
            idle_ok=bool(args.trace))
    except (subprocess.TimeoutExpired, RuntimeError, ValueError,
            KeyError) as e:
        log(f"run failed: {e}")
        return 1
    print(json.dumps({k: v for k, v in result.items()
                      if not k.startswith("_")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
