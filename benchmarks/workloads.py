"""The benchmark workloads: the calls one round makes and the checks on its outputs.

A round is a fixed list of operations (CLI invocations through
``parity_ising.cli.main`` or direct library calls).  Every round of a run
makes the same operations with the same seeds, so rounds differ only in
how long they take; a later round must reproduce the first one's outputs
exactly.  Checks compare each output with an independent route or with a
property the method must have, never with a stored copy of an earlier
output.
"""

import contextlib
import csv
import io
import json
import math
import re
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import parity_ising.cli as cli
import parity_ising.verify  # noqa: F401  (loads every science module)
from parity_ising import asymptotics, disorder, free_fermion, oracle, parity_game, perturbation

# z-score beyond which a Monte Carlo shift disagrees with the quadratic response.
Z_LIMIT = 4.0
WARM_CALL = 0


def call_seed(workload_seed: int, call_id: int) -> int:
    """Seed of one Monte Carlo call of a run.

    The workload seed fills bits 16 and up, the call id bits 8-15.  The
    library adds a run's position to its seed in ``histogram_experiment``
    (at most 5 here), so the low 8 bits stay free and no two calls of a run
    share a Philox key (seed, sample index).  Call id 0 is the warm-up.
    """
    return ((workload_seed % 2**32) << 16) | (call_id << 8)


@dataclass
class McRun:
    """One Monte Carlo call as the round made it, for checks and replay."""

    ensemble: disorder.DisorderEnsemble
    seed: int
    n_samples: int
    mean_utility: float


@dataclass
class Round:
    wall_s: float = 0.0
    mc_samples: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    mc_runs: list = field(default_factory=list)
    fingerprint: list = field(default_factory=list)

    def cli(self, argv, ok_codes=(0,)):
        """Run one CLI operation with its printout captured; return its exit code."""
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        if code not in ok_codes:
            self.failed += 1
            print(f"operation failed (exit {code}): parity-ising {' '.join(argv)}", file=sys.stderr)
        return code

    def call(self, fn, *args):
        """Run one library operation; None when it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None

    def expect(self, condition, message):
        if not condition:
            self.problems.append(message)


def read_csv(path):
    """(config, header, rows) of a self-describing CSV artifact."""
    config = None
    lines = []
    with open(path) as handle:
        for line in handle:
            if line.startswith("# config="):
                config = json.loads(line[len("# config="):])
            elif not line.startswith("#"):
                lines.append(line)
    table = list(csv.reader(lines))
    return config, table[0], table[1:]


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def _mc_shift_agrees(rnd, label, result, ensemble):
    shift = result.mean_utility - result.clean_utility
    prediction = disorder.predicted_shift(ensemble)
    z = (shift - prediction) / result.stderr
    rnd.expect(
        abs(z) <= Z_LIMIT,
        f"{label}: shift {shift:.4e} vs prediction {prediction:.4e}, z={z:+.2f}",
    )


class Workload:
    """A named round of operations whose Monte Carlo seeds derive from one workload seed."""

    name = ""

    def __init__(self, seed):
        self.seed = seed

    def warm(self):
        """Fill the caches the round uses, without making any of its operations."""

    def run(self, out_dir) -> Round:
        raise NotImplementedError

    def check_once(self, rnd):
        """Checks that do not depend on the round's outputs."""


class McN40(Workload):
    """The noise-induced advantage at N = 40 and a weak-sigma response run."""

    name = "mc-n40"
    n = 40
    # (g_bar, width, samples, band on E[b] from acceptance criterion 09, call id)
    UNIFORM = ((1.6, 2.0, 5000, (0.001, 2e-3), 1), (1.55, 2.0, 2000, (0.015, 3e-3), 2))
    WEAK = (1.6, 0.04, 1000, 3)  # gaussian_iid g_bar, sigma, samples, call id

    def warm(self):
        disorder.expected_utility(disorder.uniform_iid(1.6, 2.0, self.n), 2, call_seed(self.seed, WARM_CALL))
        disorder.predicted_shift(disorder.gaussian_iid(1.6, 0.04, self.n))

    def run(self, out_dir):
        rnd = Round()
        g_bar, sigma, samples, call_id = self.WEAK
        weak = disorder.gaussian_iid(g_bar, sigma, self.n)
        started = time.perf_counter()
        for g, width, samples_u, _, cid in self.UNIFORM:
            rnd.cli(
                [
                    "montecarlo", "--kind", "uniform_iid", "--n", str(self.n), "--g", str(g),
                    "--width", str(width), "--samples", str(samples_u),
                    "--seed", str(call_seed(self.seed, cid)), "--out", f"{out_dir}/mc_{g}.json",
                ]
            )
        weak_result = rnd.call(disorder.expected_utility, weak, samples, call_seed(self.seed, call_id))
        rnd.wall_s = time.perf_counter() - started

        for g, width, samples_u, (centre, half), _ in self.UNIFORM:
            label = f"uniform_iid g={g}"
            try:
                payload = read_json(f"{out_dir}/mc_{g}.json")
                _, _, hist_rows = read_csv(f"{out_dir}/mc_{g}.hist.csv")
            except (OSError, ValueError):
                rnd.expect(False, f"{label}: artifact missing or unparsable")
                continue
            result = payload["result"]
            e_b = result["mean_density"]
            rnd.mc_samples += result["n_samples"]
            rnd.expect(
                result["n_samples"] == samples_u,
                f"{label}: {result['n_samples']} samples kept of {samples_u}",
            )
            rnd.expect(
                sum(int(row[2]) for row in hist_rows) == result["n_samples"],
                f"{label}: histogram counts do not sum to n_samples",
            )
            rnd.expect(
                abs(e_b - centre) <= half,
                f"{label}: E[b] = {e_b:.5f} outside {centre} +- {half}",
            )
            if g == 1.6:
                rnd.expect(
                    e_b > 0.0,
                    f"{label}: E[b] = {e_b:.5f} is not positive (no noise-induced advantage)",
                )
            ensemble = disorder.uniform_iid(g, width, self.n)
            rnd.mc_runs.append(McRun(ensemble, result["seed"], result["n_samples"], result["mean_utility"]))
            rnd.fingerprint.append([payload["config"], result, hist_rows])

        if weak_result is not None:
            rnd.mc_samples += weak_result.n_samples
            _mc_shift_agrees(rnd, f"gaussian_iid sigma={sigma}", weak_result, weak)
            rnd.mc_runs.append(McRun(weak, weak_result.seed, weak_result.n_samples, weak_result.mean_utility))
            rnd.fingerprint.append(
                [weak_result.mean_utility, weak_result.stderr, weak_result.histogram_counts.tolist()]
            )
        return rnd

    def check_once(self, rnd):
        clean = parity_game.utility_clean(1.6, self.n) / self.n
        limit = parity_game.advantage_density(1.6)
        rnd.expect(
            abs(clean - limit) <= 1e-3,
            f"clean density {clean:.6f} (N={self.n}) vs b(1.6) = {limit:.6f}",
        )
        rnd.expect(clean < 0.0 and limit < 0.0, "clean density at g=1.6 is not negative")


class McLengths(Workload):
    """Weak correlated disorder over chain lengths 40..200: LAPACK-bound at large N."""

    name = "mc-lengths"
    LENGTHS = (40, 80, 120, 160, 200)
    G_BAR, SIGMA, XI = 1.6, 0.04, 5.0
    SAMPLES = 80
    CALL = 1

    def ensemble(self, n):
        return disorder.gaussian_correlated(self.G_BAR, self.SIGMA, self.XI, n)

    def warm(self):
        for n in self.LENGTHS:
            disorder.expected_utility(self.ensemble(n), 1, call_seed(self.seed, WARM_CALL))
            disorder.predicted_shift(self.ensemble(n))

    def run(self, out_dir):
        rnd = Round()
        started = time.perf_counter()
        results = rnd.call(
            disorder.histogram_experiment,
            self.ensemble(self.LENGTHS[0]), self.LENGTHS, self.SAMPLES, call_seed(self.seed, self.CALL),
        )
        rnd.wall_s = time.perf_counter() - started
        if results is None:
            return rnd
        rnd.expect(sorted(results) == list(self.LENGTHS), f"results keyed by {sorted(results)}")
        for n, result in sorted(results.items()):
            ensemble = self.ensemble(n)
            rnd.mc_samples += result.n_samples
            rnd.expect(
                result.n_samples == self.SAMPLES,
                f"N={n}: {result.n_samples} samples kept of {self.SAMPLES}",
            )
            rnd.expect(
                int(result.histogram_counts.sum()) == result.n_samples,
                f"N={n}: histogram counts do not sum to n_samples",
            )
            _mc_shift_agrees(rnd, f"gaussian_correlated N={n}", result, ensemble)
            rnd.mc_runs.append(McRun(ensemble, result.seed, result.n_samples, result.mean_utility))
            rnd.fingerprint.append([n, result.mean_utility, result.stderr, result.histogram_counts.tolist()])
        return rnd


class CurvesVerify(Workload):
    """The deterministic paper curves and the full self-check, through the CLI."""

    name = "curves-verify"
    SV_N = ("40", "200")
    SV_XI = ("0.5", "2", "8", "32", "128", "512")
    CRITICAL_N = ("8", "40", "200")
    # The exponential response is only bracketed by its limits and monotone in
    # xi away from criticality: at g = 1.05 the kernel h(d) changes sign with d
    # and the response dips below the iid limit (a finite-difference Hessian
    # of the determinant route agrees with the kernel there to 2e-6).
    INTERPOLATION_GAP = 0.1

    def warm(self):
        parity_game.advantage_density(1.6)
        perturbation.second_variation(1.3, 40, perturbation.exponential_covariance(1.0, 5.0, 40))
        oracle.simulate_bbt(oracle.dense_ground_state(np.full(4, 1.0)))
        asymptotics.critical_scaling(8)

    def run(self, out_dir):
        rnd = Round()
        started = time.perf_counter()
        rnd.cli(["b-curve", "--out", f"{out_dir}/b.csv"])
        for kind in ("perfect", "iid"):
            rnd.cli(
                ["second-variation", "--kind", kind, "--n", *self.SV_N, "--out", f"{out_dir}/sv_{kind}.csv"]
            )
        rnd.cli(
            ["second-variation", "--kind", "exponential", "--n", *self.SV_N, "--xi", *self.SV_XI,
             "--out", f"{out_dir}/sv_exponential.csv"]
        )
        rnd.cli(["critical-scaling", "--n", *self.CRITICAL_N, "--out", f"{out_dir}/critical.csv"])
        verify_code = rnd.cli(
            ["verify", "--level", "full", "--out", f"{out_dir}/verify.json"], ok_codes=(0, 4)
        )
        rnd.wall_s = time.perf_counter() - started
        rnd.expect(verify_code == 0, f"verify --level full exited {verify_code}")

        try:
            self._check_b_curve(rnd, *read_csv(f"{out_dir}/b.csv"))
            tables = {kind: read_csv(f"{out_dir}/sv_{kind}.csv") for kind in ("perfect", "iid", "exponential")}
            self._check_second_variation(rnd, tables)
            self._check_critical(rnd, *read_csv(f"{out_dir}/critical.csv"))
            self._check_verify(rnd, read_json(f"{out_dir}/verify.json"))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            rnd.expect(False, f"artifact missing or unparsable: {exc!r}")
        return rnd

    def _check_b_curve(self, rnd, config, header, rows):
        rnd.fingerprint.append(rows)
        rnd.expect(
            header == ["g", "b"] and len(rows) == config["steps"],
            f"b-curve: {len(rows)} rows for {config['steps']} steps",
        )
        g = np.array([float(r[0]) for r in rows])
        b = np.array([float(r[1]) for r in rows])
        # Boundary by linear interpolation on the grid, independent of the bisection.
        cross = np.flatnonzero((b[:-1] > 0.0) & (b[1:] <= 0.0))
        rnd.expect(cross.size == 1, f"b-curve changes sign {cross.size} times")
        if cross.size == 1:
            i = cross[0]
            root = g[i] - b[i] * (g[i + 1] - g[i]) / (b[i + 1] - b[i])
            rnd.expect(abs(root - 1.506) <= 1e-3, f"b-curve zero at {root:.5f}, not 1.506(1)")

    def _check_second_variation(self, rnd, tables):
        columns = {}
        for kind, (config, header, rows) in tables.items():
            rnd.fingerprint.append(rows)
            xi = config["xi"] or [None]
            expected = len(config["n"]) * config["steps"] * len(xi)
            rnd.expect(
                len(rows) == expected,
                f"second-variation {kind}: {len(rows)} rows, expected {expected}",
            )
            table = {}
            for n, g, _, value in rows:
                table.setdefault((int(n), float(g)), []).append(float(value))
            columns[kind] = table
        for (n, g), values in columns["exponential"].items():
            if abs(g - 1.0) < self.INTERPOLATION_GAP:
                continue
            iid, perfect = columns["iid"][(n, g)][0], columns["perfect"][(n, g)][0]
            low, high = sorted((iid, perfect))
            slack = 1e-12 * max(abs(low), abs(high))
            steps = np.diff(values)
            rnd.expect(
                all(low - slack <= v <= high + slack for v in values),
                f"exponential response at N={n}, g={g:.3f} leaves [{low:.6g}, {high:.6g}]",
            )
            rnd.expect(
                np.all(steps >= -slack) or np.all(steps <= slack),
                f"exponential response at N={n}, g={g:.3f} is not monotone in xi",
            )

    def _check_critical(self, rnd, config, header, rows):
        rnd.fingerprint.append(rows)
        rnd.expect(
            len(rows) == len(config["n"]),
            f"critical-scaling: {len(rows)} rows for {len(config['n'])} chain lengths",
        )
        s2 = header.index("s2_exact")
        for row in rows:
            n = int(row[0])
            rnd.expect(
                abs(float(row[s2]) - n * n / 2.0) <= 1e-12 * n * n,
                f"s2_exact({n}) = {row[s2]} is not N^2/2",
            )

    def _check_verify(self, rnd, report):
        checks = report["checks"]
        rnd.fingerprint.append([[c["name"], c["passed"], c["observed"]] for c in checks])
        rnd.expect(checks and all(c["passed"] for c in checks), "verify report has failing checks")
        by_name = {c["name"]: c for c in checks}
        for name, target, tol in (
            ("advantage boundary location", 1.506, 1e-3),
            ("strong-advantage limit g->0", 0.5 * math.log(2.0), 1e-6),
            ("iid response sign change (thermodynamic)", 0.9902, 5e-4),
        ):
            found = by_name.get(name)
            rnd.expect(
                found is not None and abs(found["observed"] - target) <= tol,
                f"verify: {name} not within {tol} of {target}",
            )
        monte_carlo = [c for c in checks if c["module"] == "disorder"]
        rnd.expect(
            len(monte_carlo) == 1,
            f"verify report has {len(monte_carlo)} Monte Carlo checks",
        )
        if len(monte_carlo) == 1:
            rnd.mc_samples = int(re.search(r"samples=(\d+)", monte_carlo[0]["inputs"]).group(1))

    def check_once(self, rnd):
        import scipy.special

        for m in (0.1, 0.5, 0.9, 0.999):
            k, e = asymptotics.elliptic_km_em(m)
            rnd.expect(
                abs(k - scipy.special.ellipk(m)) <= 1e-12 * k
                and abs(e - scipy.special.ellipe(m)) <= 1e-12 * e,
                f"elliptic_km_em({m}) disagrees with scipy.special",
            )


WORKLOADS = {cls.name: cls for cls in (McN40, McLengths, CurvesVerify)}


def replay(tracer, mc_runs):
    """Redraw every sample of the round's Monte Carlo calls layer by layer.

    Returns the number of positivity redraws and the largest relative
    difference between a replayed mean and the mean the program reported.
    """
    redraws = 0
    worst = 0.0
    for run in mc_runs:
        n = run.ensemble.n_sites
        utilities = np.empty(run.n_samples)
        for index in range(run.n_samples):
            g, extra = tracer.call(
                "disorder.sample", disorder.sample_couplings, run.ensemble, run.seed, index
            )
            redraws += extra
            log_o = tracer.call(f"free_fermion.overlap.n{n}", free_fermion.ghz_log_overlap_squared, g)
            utilities[index] = tracer.call(
                "parity_game.scoring", parity_game.utility_from_log_overlap, log_o, n
            )
        mean = float(np.mean(utilities))
        worst = max(worst, abs(mean - run.mean_utility) / max(abs(run.mean_utility), 1e-300))
    return redraws, worst
