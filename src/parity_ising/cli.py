"""Command-line driver: paper-figure-style datasets and verification runs.

Subcommands
    b-curve           advantage density b(g) on a coupling grid        -> CSV/JSON
    second-variation  rescaled quadratic response on (N, g, xi) grids  -> CSV/JSON
    montecarlo        disorder-averaged utility for one ensemble       -> JSON + histogram CSV
    critical-scaling  exact vs asymptotic critical-point quantities    -> CSV/JSON
    verify            cross-route consistency checks                   -> report, exit 4 on failure

Every output file is self-describing: a schema line, the artifact version,
a timestamp, and the full run configuration as one JSON object, followed by
the column header and rows with full (17 significant digit) precision.
b-curve adds max_quadrature_error, the largest 24-vs-12-node error of its
grid: a head line of its own in CSV, a top-level field in JSON.
Rewriting a file is atomic (temp file in the target directory + rename).

Exit codes: 0 success, 2 invalid configuration (an --out that cannot be
written among them, caught before the command runs), 3 numerical failure,
4 verification failure.

The only environment variable read is PARITY_ISING_THREADS, which sizes the
linear-algebra thread pools whose own variable (OMP_NUM_THREADS etc.) is
unset; an explicit pool variable wins.  It must be applied before the numeric
stack is loaded, which is why the science modules are imported inside the handlers.
"""

import argparse
import json
import os
import sys
import tempfile
from dataclasses import astuple
from datetime import datetime, timezone

from . import __version__
from .errors import NumericsError

SCHEMA_VERSION = 5
THREAD_ENV_VAR = "PARITY_ISING_THREADS"
# Literal choices keep parsing free of numpy; a test holds them to the library's.
KINDS = ("gaussian_iid", "gaussian_perfect", "gaussian_correlated", "uniform_iid")
DISTANCES = ("linear", "ring")
DEFAULT_DISTANCE = "linear"  # what a config records when --distance is not given
# Each second-variation kind, and the ensemble kind whose covariance it contracts.
SV_KINDS = {"perfect": "gaussian_perfect", "iid": "gaussian_iid", "exponential": "gaussian_correlated"}
# The flag of each ensemble parameter that only some kinds take.
PARAMETER_FLAGS = {"xi": "--xi", "distance_mode": "--distance", "width": "--width"}
# The montecarlo result entries that MonteCarloResult holds as they are, in artifact order.
RESULT_FIELDS = (
    "n_samples", "n_redraws", "max_orthogonality_defect", "singular_ratio_bound",
    "svd_fallbacks", "seed", "mean_utility", "stderr", "mean_density",
)
_BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _apply_thread_env():
    threads = os.environ.get(THREAD_ENV_VAR)
    if not threads:
        return
    if not threads.isdigit() or int(threads) < 1:
        raise ValueError(f"{THREAD_ENV_VAR} must be a positive integer, got {threads!r}")
    for var in _BLAS_ENV_VARS:
        os.environ.setdefault(var, threads)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def _check_out(path: str):
    """Raise ValueError unless ``_atomic_write`` can write ``path``: not a directory, in a writable one."""
    target = os.path.abspath(path)
    if os.path.isdir(target) or not os.access(os.path.dirname(target), os.W_OK | os.X_OK):
        raise ValueError(f"cannot write --out {path}: a directory, or not in a writable one")


def _atomic_write(path: str, text: str):
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".partial-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        # mkstemp creates the file 0600; give it the mode open() would have
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path, schema, config, **body):
    """A JSON artifact: the self-describing head, then the body's keys in order."""
    payload = {
        "schema": schema,
        "version": SCHEMA_VERSION,
        "artifact": f"parity-ising {__version__}",
        "generated": _timestamp(),
        "config": config,
        **body,
    }
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")


def _write_table(path, schema, config, columns, rows, fmt="csv", **summary):
    """A table artifact; each ``summary`` entry is a head line of CSV or a top-level JSON field."""
    if fmt == "json":
        _write_json(path, schema, config, **summary, columns=list(columns), rows=[list(row) for row in rows])
        return
    lines = [
        f"# schema={schema} version={SCHEMA_VERSION}",
        f"# artifact=parity-ising {__version__}",
        f"# generated={_timestamp()}",
        f"# config={json.dumps(config, sort_keys=True)}",
        *(f"# {key}={_fmt(value)}" for key, value in summary.items()),
        ",".join(columns),
    ]
    lines.extend(",".join(_fmt(value) for value in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def _grid(lo: float, hi: float, steps: int):
    if steps < 2 or not (hi > lo):
        raise ValueError("grid needs at least 2 steps and g_max > g_min")
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def cmd_b_curve(args) -> int:
    from . import parity_game

    grid = _grid(args.g_min, args.g_max, args.steps)
    b, error = parity_game.advantage_density(grid)
    config = {
        "command": "b-curve",
        "g_min": args.g_min,
        "g_max": args.g_max,
        "steps": args.steps,
    }
    rows = zip(grid, b.tolist())
    _write_table(args.out, "b_curve", config, ("g", "b"), rows, args.format, max_quadrature_error=float(error.max()))
    return 0


def _check_parameter_flags(args, takes):
    """Raise ValueError for a parameter flag given to a --kind that takes no such parameter."""
    for name, flag in PARAMETER_FLAGS.items():
        if name not in takes and getattr(args, flag[2:], None) is not None:
            raise ValueError(f"{flag} does not apply to --kind {args.kind}")


def cmd_second_variation(args) -> int:
    from . import disorder, perturbation

    _check_parameter_flags(args, disorder.KIND_PARAMETERS[SV_KINDS[args.kind]])
    xi_list = list(args.xi or [None])  # only the exponential kind may have --xi
    if args.kind == "exponential" and xi_list == [None]:
        raise ValueError("exponential kind needs at least one --xi")
    distance = args.distance or DEFAULT_DISTANCE
    for xi in xi_list:  # before any kernel is built
        perturbation._check_disorder(1.0, xi, distance)

    grid = _grid(args.g_min, args.g_max, args.steps)
    rows = []
    for n in args.n:
        if args.kind != "exponential":  # the closed-form contractions: chi''/(2N) and the Laplacian/(2N)
            response = perturbation.chi_double_prime if args.kind == "perfect" else perturbation.laplacian_u
            rows.extend((n, g, None, response(g, n) / (2.0 * n)) for g in grid)
        else:
            # The kernel depends on (N, g) only and the covariance, an N-entry profile, on
            # (N, xi) only: all of this N's covariances, then one kernel per g contracts each.
            covariances = [perturbation.exponential_covariance(1.0, xi, n, distance) for xi in xi_list]
            for g in grid:
                kernel = perturbation.hessian_kernel(g, n)
                rows.extend((n, g, xi, kernel.contract(c).rescaled) for xi, c in zip(xi_list, covariances))
    config = {
        "command": "second-variation",
        "kind": args.kind,
        "n": list(args.n),
        "g_min": args.g_min,
        "g_max": args.g_max,
        "steps": args.steps,
        "xi": None if xi_list == [None] else xi_list,
        "distance": distance,
    }
    _write_table(
        args.out,
        "second_variation",
        config,
        ("n", "g", "xi", "rescaled_second_variation"),
        rows,
        args.format,
    )
    return 0


def _build_ensemble(args):
    """The ensemble the montecarlo flags give; the ensemble checks their values."""
    from . import disorder

    kind, takes = args.kind, disorder.KIND_PARAMETERS[args.kind]
    _check_parameter_flags(args, takes)
    if "width" in takes:
        if (args.sigma is None) == (args.width is None):
            raise ValueError(f"{kind} needs either --sigma or --width, not both")
        width = args.width if args.sigma is None else args.sigma * disorder.UNIFORM_WIDTH_PER_SIGMA
        return disorder.uniform_iid(args.g, width, args.n)
    if args.sigma is None:
        raise ValueError(f"{kind} needs --sigma")
    if "xi" in takes and args.xi is None:
        raise ValueError(f"{kind} needs --xi")
    return disorder.DisorderEnsemble(
        args.g, args.n, kind, args.sigma, xi=args.xi, distance_mode=args.distance or DEFAULT_DISTANCE
    )


def cmd_montecarlo(args) -> int:
    from . import disorder

    histogram_path = os.path.splitext(args.out)[0] + ".hist.csv"
    _check_out(histogram_path)
    ensemble = _build_ensemble(args)
    result = disorder.expected_utility(ensemble, args.samples, args.seed)

    config = {
        "command": "montecarlo",
        "kind": ensemble.kind,
        "n": ensemble.n_sites,
        "g": ensemble.mean,
        "sigma": ensemble.sigma,
        "width": ensemble.width,
        "xi": ensemble.xi,
        "distance": ensemble.distance_mode,
        "samples": args.samples,
        "seed": args.seed,
    }
    _write_json(
        args.out,
        "montecarlo",
        config,
        result={
            **{name: getattr(result, name) for name in RESULT_FIELDS},
            "density_stderr": disorder.density_stderr(result, ensemble.n_sites),
            "clean_utility": result.clean_utility,
            "clean_density": result.clean_utility / ensemble.n_sites,
            "shift": result.mean_utility - result.clean_utility,
            "predicted_shift": disorder.predicted_shift(ensemble),
            "histogram": histogram_path,
        },
    )

    edges = result.histogram_edges
    hist_rows = [
        (float(edges[i]), float(edges[i + 1]), int(count))
        for i, count in enumerate(result.histogram_counts)
    ]
    _write_table(
        histogram_path,
        "montecarlo_histogram",
        config,
        ("bin_left", "bin_right", "count"),
        hist_rows,
    )
    return 0


def cmd_critical_scaling(args) -> int:
    from . import asymptotics

    rows = [astuple(asymptotics.critical_scaling(n)) for n in args.n]
    config = {"command": "critical-scaling", "n": list(args.n)}
    _write_table(
        args.out,
        "critical_scaling",
        config,
        (
            "n",
            "s1_exact",
            "s1_asymptotic",
            "s2_exact",
            "s2_asymptotic",
            "chi2_exact",
            "chi2_asymptotic",
            "rescaled_sv",
            "rescaled_sv_asymptotic",
        ),
        rows,
        args.format,
    )
    return 0


def cmd_verify(args) -> int:
    from . import verify

    results = verify.run_checks(args.level)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{status} {r.name} [{r.module}] observed={r.observed:.12g} "
            f"expected={r.expected:.12g} tol={r.tolerance:g} ({r.elapsed:.2f}s)"
        )
    fails = verify.failures(results)
    print(f"{len(results) - len(fails)}/{len(results)} checks passed at level {args.level}")
    if args.out:
        _write_json(
            args.out,
            "verify",
            {"command": "verify", "level": args.level},
            checks=[r.as_dict() for r in results],
        )
    if fails:
        print(json.dumps([f.as_dict() for f in fails], indent=2))
        return 4
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parity-ising",
        description="Parity-game utility of transverse-field Ising ground states, "
        "clean and disordered.",
    )
    parser.add_argument("--version", action="version", version=f"parity-ising {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("b-curve", help="advantage density b(g) on a grid")
    p.add_argument("--g-min", type=float, default=0.01)
    p.add_argument("--g-max", type=float, default=3.0)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_b_curve)

    p = sub.add_parser("second-variation", help="rescaled quadratic disorder response")
    p.add_argument("--kind", choices=SV_KINDS, required=True)
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--g-min", type=float, default=0.5)
    p.add_argument("--g-max", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=31)
    p.add_argument("--xi", type=float, nargs="*", default=None)
    p.add_argument("--distance", choices=DISTANCES, default=None, help="exponential kind only; default linear")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_second_variation)

    p = sub.add_parser("montecarlo", help="disorder-averaged utility, one ensemble")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=float, required=True, help="mean coupling")
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--width", type=float, default=None, help="uniform support width W; sigma = W/(2 sqrt 3)")
    p.add_argument("--xi", type=float, default=None)
    p.add_argument(
        "--distance", choices=DISTANCES, default=None, help="gaussian_correlated only; default linear"
    )
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="JSON result path; histogram lands beside it")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("critical-scaling", help="exact vs asymptotic critical quantities")
    p.add_argument("--n", type=int, nargs="+", default=[8, 40, 200])
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_critical_scaling)

    p = sub.add_parser("verify", help="run the cross-route consistency checks")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.add_argument("--out", default=None, help="optional JSON report path")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        _apply_thread_env()
        args = _build_parser().parse_args(argv)
        if args.out is not None:
            _check_out(args.out)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
