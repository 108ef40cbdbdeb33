"""One benchmark process: set up a workload, then (unless --setup-only) run it.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and the
thread variables already set.  It writes JSON lines to standard output: a
``ready`` line as soon as its imports are done and its caches are warm,
then one ``result`` line.  The printout of the CLI calls it makes is
captured and never reaches standard output.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

PROTOCOL = sys.stdout


def emit(**message):
    print(json.dumps(message), file=PROTOCOL, flush=True)


def blas_pools():
    """(library, OpenBLAS config, threads in effect) for each loaded OpenBLAS."""
    paths = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                paths.add(path)
    pools = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None) or getattr(
                lib, f"openblas_get_num_threads{suffix}", None
            )
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None) or getattr(
                lib, f"openblas_get_config{suffix}", None
            )
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                pools.append([os.path.basename(path), get_config().decode(), get_threads()])
                break
    return pools


def environment():
    import numpy
    import scipy

    cpu_model = "unknown"
    with open("/proc/cpuinfo") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": numpy.__config__.CONFIG["Build Dependencies"]["blas"]["version"],
        "blas_pools": blas_pools(),
        "thread_env": {
            var: os.environ.get(var)
            for var in ("PARITY_ISING_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def run_rounds(workload, out_dir, seconds):
    """Untraced rounds until `seconds` have passed; every round must match the first."""
    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        gc.collect()
        rounds.append(workload.run(out_dir))
    first = rounds[0]
    workload.check_once(first)
    for later in rounds[1:]:
        first.expect(
            later.fingerprint == first.fingerprint, "a later round did not reproduce the first round's outputs"
        )
        first.problems.extend(later.problems)
    return rounds


def traced_metrics(workload, out_dir):
    """One untraced round, the same round traced, and a replay of its Monte Carlo samples."""
    from tracing import CHECK_LABEL, Tracer

    from workloads import replay

    gc.collect()
    untraced = workload.run(out_dir)
    workload.check_once(untraced)
    gc.collect()
    tracer = Tracer()
    with tracer:
        traced = workload.run(out_dir)
    bytes_written = sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
    untraced.expect(
        traced.fingerprint == untraced.fingerprint, "the traced round did not reproduce the untraced one"
    )
    untraced.problems.extend(traced.problems)

    replayer = Tracer()
    redraws, mismatch = replay(replayer, untraced.mc_runs)
    untraced.expect(
        mismatch <= 1e-12, f"replayed means differ from the reported ones by {mismatch:.3e} (relative)"
    )
    overlaps = replayer.labels("free_fermion.overlap.")

    metrics = {
        "disorder.sample_s": replayer.total("disorder.sample"),
        "disorder.samples": replayer.count("disorder.sample"),
        "disorder.redraws": redraws,
        "free_fermion.overlap_s": sum(replayer.total(label) for label in overlaps),
        "free_fermion.overlaps": sum(replayer.count(label) for label in overlaps),
        "parity_game.scoring_s": replayer.total("parity_game.scoring"),
        "parity_game.density_s": tracer.total("parity_game.density"),
        "parity_game.density_calls": tracer.count("parity_game.density"),
        "parity_game.boundary_s": tracer.total("parity_game.boundary"),
        "perturbation.prediction_s": tracer.total("perturbation.prediction"),
        "perturbation.kernel_s": tracer.total("perturbation.kernel"),
        "perturbation.laplacian_limit_s": tracer.total("perturbation.laplacian_limit"),
        "perturbation.crossover_s": tracer.total("perturbation.crossover"),
        "asymptotics.critical_s": tracer.total("asymptotics.critical"),
        "oracle.dense_s": tracer.total("oracle.dense"),
        "oracle.protocol_s": tracer.total("oracle.protocol"),
        "oracle.stencil_s": tracer.total("oracle.stencil"),
        "cli.self_s": tracer.self_time("cli"),
        "cli.bytes_written": bytes_written,
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
    }
    for label in overlaps:
        n = label.rsplit(".", 1)[1]
        metrics[f"free_fermion.overlap_ms.{n}"] = 1e3 * replayer.total(label) / replayer.count(label)
    if untraced.mc_runs:
        replayed = sum(metrics[name] for name in ("disorder.sample_s", "free_fermion.overlap_s", "parity_game.scoring_s"))
        metrics["disorder.self_s"] = tracer.total("disorder.expected_utility") - replayed
    for label in tracer.labels(CHECK_LABEL):
        metrics["verify.check_s." + label[len(CHECK_LABEL):]] = tracer.total(label)
    return [untraced, traced], metrics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads

    imported = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warm()
    warmed = time.perf_counter()
    emit(ready=True, import_s=imported - STARTED, warm_s=warmed - imported)
    if args.setup_only:
        return

    env = environment()
    os.makedirs(args.out_dir, exist_ok=True)
    try:
        if args.trace:
            rounds, metrics = traced_metrics(workload, args.out_dir)
        else:
            rounds = run_rounds(workload, args.out_dir, args.seconds)
            rounds[0].expect(all(r.mc_samples for r in rounds), "a round evaluated no Monte Carlo samples")
            metrics = {
                "wall_s": statistics.median(r.wall_s for r in rounds),
                "mc_samples_per_s": statistics.median(r.mc_samples / r.wall_s for r in rounds),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(args.out_dir, ignore_errors=True)
    emit(
        result={
            "environment": env,
            "rounds": len(rounds),
            "round_wall_s": [r.wall_s for r in rounds],
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "problems": rounds[0].problems,
            "metrics": metrics,
        }
    )


if __name__ == "__main__":
    main()
