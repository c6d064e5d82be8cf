#!/usr/bin/env python3
"""One run of the `fabp serve --tcp` benchmark.

    python3 perfbench/run.py --workload wire_bound --seed 1 --seconds 20 --trace 0

Builds the benchmark package (perfbench/CMakeLists.txt: the repository's
libraries, the `fabp` binary and the driver) into .bench_build/ on first
use, runs the driver, and prints as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Exits non-zero, without a result line, when it cannot build or run.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wire_bound", "scan_bound", "tenant_swap")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures once and builds; returns (driver, fabp, selftest) paths."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"{ROOT} is not a fabp source tree (no CMakeLists.txt or src/)", 2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    configured = os.path.join(out, "configured")
    steps = []
    if not os.path.isfile(configured):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target",
                  "perfbench", "perfbench_selftest", "fabp_cli"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, cwd=ROOT)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build step failed: {' '.join(step)}")
            if step[1] == "-S":
                open(configured, "w").close()
    fabp = os.path.join(out, "fabp", "tools", "fabp")
    paths = (os.path.join(out, "perfbench"), fabp,
             os.path.join(out, "perfbench_selftest"))
    for path in paths:
        if not os.access(path, os.X_OK):
            fail(f"build produced no {path}")
    return paths


def metric_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def run_driver(driver, fabp, args):
    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--fabp", fabp, "--work", work]
    # A session of its own, so a timeout can take down the driver and the
    # server it spawned together.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"driver exited with status {proc.returncode}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        fail("driver printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    started = time.monotonic()
    driver, fabp, _ = build()
    end_to_end, per_layer = metric_spec()
    result = run_driver(driver, fabp, args)

    wanted = per_layer if args.trace == 1 else end_to_end
    metrics = {}
    for entry in wanted:
        got = result["metrics"].get(entry["name"])
        if got is None:
            fail(f"driver did not report {entry['name']}")
        if got["unit"] != entry["unit"]:
            fail(f"{entry['name']} reported in {got['unit']}, "
                 f"BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(f"perfbench: {args.workload} seed {args.seed} trace {args.trace} "
          f"took {time.monotonic() - started:.1f} s", file=sys.stderr)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
