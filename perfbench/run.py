#!/usr/bin/env python3
"""Run one pcdlb benchmark measurement and print its result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The script builds the benchmark
package (perfbench/Cargo.toml) twice from source: once plain and once
with the `traced` feature, which turns on the simulator's per-phase wall
clocks. Builds go under $CARGO_TARGET_DIR (default: .bench_build).

--trace 0 runs the plain build and prints the end-to-end metrics.
--trace 1 runs the traced build for half the time, between two runs of
the plain build for a quarter each, and prints the per-layer metrics,
including sim.trace_overhead: plain over traced steps per second, minus
one.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Build logs and progress go to
standard error. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
BIN = "pcdlb-perfbench"
WORKLOADS = ("gas_serial", "gas_pillar_p4", "gas_plane_p2", "condense_dlb_p9")
# The program under test; the benchmark cannot build without it.
REQUIRED_SOURCES = ("Cargo.toml", "crates/sim/Cargo.toml", "crates/md/Cargo.toml")

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 160


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def call(cmd, timeout, capture):
    """Run cmd in its own process group; kill the whole group on timeout.

    Returns the process's standard output when capture is set.
    """
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return out


def build(target_dir, traced):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST, "--target-dir", target_dir]
    if traced:
        cmd += ["--features", "traced"]
    call(cmd, BUILD_TIMEOUT_S, capture=False)
    return os.path.join(target_dir, "release", BIN)


def measure(binary, workload, seed, seconds, mode):
    out = call([binary, "--workload", workload, "--seed", str(seed),
                "--seconds", repr(seconds), "--mode", mode],
               RUN_TIMEOUT_S, capture=True)
    lines = out.strip().splitlines()
    if not lines:
        fail(f"{mode} run printed no result")
    return json.loads(lines[-1])


def declared_metrics(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[key]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seed >= 2**64:
        fail("--seed must fit an unsigned 64-bit integer")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    missing = [p for p in REQUIRED_SOURCES if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail(f"repository sources missing: {', '.join(missing)}")

    base = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    plain = build(os.path.join(base, "plain"), traced=False)
    traced = build(os.path.join(base, "traced"), traced=True)

    if args.trace == 0:
        result = measure(plain, args.workload, args.seed, args.seconds, "e2e")
        want = declared_metrics("end_to_end")
    else:
        # Plain runs bracket the traced one in time, so a drift in host
        # speed during the run cancels out of the overhead to first order.
        quarter = args.seconds / 4
        before = measure(plain, args.workload, args.seed, quarter, "e2e")
        result = measure(traced, args.workload, args.seed, 2 * quarter, "layers")
        after = measure(plain, args.workload, args.seed, quarter, "e2e")
        sps_plain = sum(r["metrics"]["steps_per_s"]["value"] for r in (before, after)) / 2
        sps_traced = result["metrics"]["sim.steps_per_s_traced"]["value"]
        result["metrics"]["sim.trace_overhead"] = {
            "value": sps_plain / sps_traced - 1.0, "unit": "share"}
        for plain_run in (before, after):
            result["correct"] = result["correct"] and plain_run["correct"]
            result["attempted"] += plain_run["attempted"]
            result["failed"] += plain_run["failed"]
        want = declared_metrics("per_layer")

    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        fail(f"metrics {got} do not match BENCHMARK.json {want}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
