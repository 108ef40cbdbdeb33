"""Benchmark of the parity-ising package: one workload, one seed, one run.

    python3 benchmarks/run.py --workload mc-n40 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is loaded from its
``src`` directory, never from an installed copy.  Workloads are
``mc-n40``, ``mc-lengths`` and ``curves-verify`` (see README.md).  With
``--trace 0`` the last line of standard output is the end-to-end result,
with ``--trace 1`` the per-layer one, both as a JSON object with the keys
correct, attempted, failed and metrics.  The line before it records the
run: environment, round times and any failed check.

Every benchmark process runs on one BLAS thread: PARITY_ISING_THREADS=1
is the package's own setting, which its CLI applies to the BLAS pools, and
the pool variables get the same value so that library calls made outside
the CLI see it too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
THREAD_VARS = ("PARITY_ISING_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("mc-n40", "mc-lengths", "curves-verify")


class BenchmarkError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    return env


def start_worker(args, out_dir, setup_only):
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out-dir", out_dir,
    ]
    if setup_only:
        command.append("--setup-only")
    return subprocess.Popen(command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)


def read_message(proc, key):
    line = proc.stdout.readline()
    if not line:
        raise BenchmarkError(f"worker exited (code {proc.wait()}) before sending {key!r}")
    message = json.loads(line)
    if key not in message:
        raise BenchmarkError(f"worker sent {line.strip()!r}, expected {key!r}")
    return message


def run(args, deadline):
    setups = []
    result = None
    out_dir = os.path.join(BUILD, f"out-{os.getpid()}")
    for sample in range(SETUP_SAMPLES):
        measuring = sample == SETUP_SAMPLES - 1
        started = time.perf_counter()
        proc = start_worker(args, out_dir, setup_only=not measuring)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            ready = read_message(proc, "ready")
            elapsed = time.perf_counter() - started
            setups.append({"setup_s": elapsed, "import_s": ready["import_s"], "warm_s": ready["warm_s"]})
            if measuring:
                result = read_message(proc, "result")["result"]
            code = proc.wait()
            if code != 0:
                raise BenchmarkError(f"worker exited with code {code}")
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if time.monotonic() > deadline:
            raise BenchmarkError("run exceeded its time limit")
    return setups, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "parity_ising", "__init__.py")):
        print(f"error: no package source at {SRC}/parity_ising; run from a source checkout", file=sys.stderr)
        return 2
    os.makedirs(BUILD, exist_ok=True)
    # The build: byte-compile the sources so that no measured set-up compiles them.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", SRC, HERE], cwd=ROOT, env=child_env(), check=True,
        stdout=subprocess.DEVNULL, timeout=60,
    )

    try:
        setups, result = run(args, deadline)
    except (BenchmarkError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    threads = {pool[2] for pool in result["environment"]["blas_pools"]}
    if threads != {1}:
        print(f"error: BLAS thread counts in effect {sorted(threads)}, expected one thread", file=sys.stderr)
        return 1
    if args.trace:
        metrics = dict(result["metrics"])
        metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        metrics["setup.warm_s"] = statistics.median(s["warm_s"] for s in setups)
    else:
        metrics = {"setup_s": statistics.median(s["setup_s"] for s in setups), **result["metrics"]}

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics and not args.trace]
    if missing:
        print(f"error: no measurement of {missing}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "setups": setups, **result}
    print(json.dumps({"run": record}))
    print(
        json.dumps(
            {
                "correct": not result["problems"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                # A layer that a workload never enters reads 0.
                "metrics": {
                    m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
