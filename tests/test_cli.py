"""End-to-end command-line runs: file contracts, determinism, exit codes.

All invocations go through cli.main(argv) in-process; outputs land in
tmp_path.  Reruns with the same seed must be byte-identical once the
timestamp is stripped.
"""

import json
import math
import os

import numpy as np
import pytest

from parity_ising import cli
from parity_ising import parity_game as pg
from parity_ising import perturbation as pt
from parity_ising import verify
from parity_ising.errors import NumericsError


def _read_csv(path):
    comments, columns, rows = [], None, []
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, columns, rows


def test_b_curve_csv_contract(tmp_path):
    out = tmp_path / "b.csv"
    code = cli.main([
        "b-curve", "--g-min", "0.2", "--g-max", "2.0", "--steps", "40",
        "--out", str(out),
    ])
    assert code == 0
    comments, columns, rows = _read_csv(out)
    assert comments[0] == f"# schema=b_curve version={cli.SCHEMA_VERSION}"
    assert comments[1].startswith("# artifact=parity-ising ")
    assert comments[2].startswith("# generated=")
    config = json.loads(comments[3].removeprefix("# config="))
    assert config == {"command": "b-curve", "g_min": 0.2, "g_max": 2.0, "steps": 40}
    assert columns == ["g", "b"]
    assert len(rows) == 40

    g = np.array([float(r[0]) for r in rows])
    b = np.array([float(r[1]) for r in rows])
    assert np.all(np.diff(b) < 0.0)  # advantage density strictly decreasing
    sign_change = np.flatnonzero(np.diff(np.sign(b)))
    assert sign_change.size == 1
    lo, hi = g[sign_change[0]], g[sign_change[0] + 1]
    assert lo < pg.find_advantage_boundary() < hi
    # full-precision roundtrip
    assert b[0] == pg.advantage_density(g[0])


def test_b_curve_json_payload(tmp_path):
    out = tmp_path / "b.json"
    assert cli.main([
        "b-curve", "--g-min", "0.5", "--g-max", "1.6", "--steps", "5",
        "--out", str(out), "--format", "json",
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "b_curve"
    assert payload["version"] == cli.SCHEMA_VERSION
    assert payload["columns"] == ["g", "b"]
    assert len(payload["rows"]) == 5
    assert payload["config"]["steps"] == 5


def test_second_variation_row_layout(tmp_path):
    out = tmp_path / "sv.csv"
    assert cli.main([
        "second-variation", "--kind", "perfect", "--n", "8", "16",
        "--g-min", "0.5", "--g-max", "1.5", "--steps", "5", "--out", str(out),
    ]) == 0
    _, columns, rows = _read_csv(out)
    assert columns == ["n", "g", "xi", "rescaled_second_variation"]
    assert len(rows) == 10
    assert all(r[2] == "" for r in rows)  # xi blank for uncorrelated kinds

    out2 = tmp_path / "sv_exp.csv"
    assert cli.main([
        "second-variation", "--kind", "exponential", "--n", "8",
        "--g-min", "0.5", "--g-max", "1.5", "--steps", "5",
        "--xi", "1.0", "2.0", "--out", str(out2),
    ]) == 0
    _, _, rows2 = _read_csv(out2)
    assert len(rows2) == 10
    assert {r[2] for r in rows2} == {"1.0000000000000000e+00", "2.0000000000000000e+00"}


@pytest.mark.parametrize("mode", ["linear", "ring"])
def test_exponential_rows_equal_per_point_second_variation(tmp_path, mode):
    """One kernel per (N, g) and one covariance per (N, xi) change no bit of any row."""
    out = tmp_path / "sv.csv"
    xis = (0.5, 3.0, 40.0)
    assert cli.main([
        "second-variation", "--kind", "exponential", "--n", "8", "40",
        "--g-min", "0.9", "--g-max", "1.6", "--steps", "4",
        "--xi", *map(str, xis), "--distance", mode, "--out", str(out),
    ]) == 0
    _, _, rows = _read_csv(out)
    expected = [
        (n, g, xi, pt.second_variation(g, n, pt.exponential_covariance(1.0, xi, n, mode)).rescaled)
        for n in (8, 40)
        for g in cli._grid(0.9, 1.6, 4)
        for xi in xis
    ]
    assert [(int(r[0]), float(r[1]), float(r[2]), float(r[3])) for r in rows] == expected


def test_second_variation_xi_flag_misuse(tmp_path):
    out = tmp_path / "x.csv"
    assert cli.main([
        "second-variation", "--kind", "iid", "--n", "8", "--xi", "1.0",
        "--out", str(out),
    ]) == 2
    assert cli.main([
        "second-variation", "--kind", "exponential", "--n", "8", "--out", str(out),
    ]) == 2
    assert not out.exists()


def test_montecarlo_payload_and_histogram(tmp_path):
    out = tmp_path / "mc.json"
    assert cli.main([
        "montecarlo", "--kind", "gaussian_iid", "--n", "8", "--g", "1.1",
        "--sigma", "0.02", "--samples", "40", "--seed", "7", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["positivity_policy"] == "reject_sample"
    result = payload["result"]
    assert result["n_samples"] == 40
    assert result["seed"] == 7
    assert result["shift"] == pytest.approx(
        result["mean_utility"] - result["clean_utility"], rel=1e-15
    )
    assert result["density_stderr"] == pytest.approx(result["stderr"] / 8, rel=1e-15)
    assert math.isfinite(result["predicted_shift"])

    hist_path = result["histogram"]
    assert hist_path == str(tmp_path / "mc.hist.csv")
    _, columns, rows = _read_csv(hist_path)
    assert columns == ["bin_left", "bin_right", "count"]
    assert len(rows) == 101
    assert sum(int(r[2]) for r in rows) == 40


def test_montecarlo_sigma_zero_is_exact(tmp_path):
    out = tmp_path / "mc0.json"
    assert cli.main([
        "montecarlo", "--kind", "gaussian_perfect", "--n", "8", "--g", "1.6",
        "--sigma", "0.0", "--samples", "1", "--out", str(out),
    ]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["mean_utility"] == pg.utility_clean(1.6, 8)
    assert result["shift"] == 0.0
    assert result["stderr"] == 0.0


def test_montecarlo_reruns_identical_modulo_timestamp(tmp_path):
    argv = [
        "montecarlo", "--kind", "uniform_iid", "--n", "8", "--g", "1.6",
        "--width", "0.5", "--samples", "30", "--seed", "123",
    ]
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(argv + ["--out", str(out_a)]) == 0
    assert cli.main(argv + ["--out", str(out_b)]) == 0

    pa, pb = json.loads(out_a.read_text()), json.loads(out_b.read_text())
    pa.pop("generated"), pb.pop("generated")
    # histogram paths differ by construction; everything else must agree
    assert pa["result"].pop("histogram").endswith("a.hist.csv")
    assert pb["result"].pop("histogram").endswith("b.hist.csv")
    assert pa == pb

    strip = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("# generated=")]
    assert strip(tmp_path / "a.hist.csv") == strip(tmp_path / "b.hist.csv")


def test_montecarlo_flag_validation(tmp_path):
    out = str(tmp_path / "x.json")
    base = ["montecarlo", "--n", "8", "--g", "1.0", "--samples", "2", "--out", out]
    assert cli.main(base + ["--kind", "uniform_iid", "--sigma", "0.1", "--width", "0.3"]) == 2
    assert cli.main(base + ["--kind", "uniform_iid"]) == 2
    assert cli.main(base + ["--kind", "gaussian_iid", "--width", "0.3"]) == 2
    assert cli.main(base + ["--kind", "gaussian_iid"]) == 2
    assert cli.main(base + ["--kind", "gaussian_correlated", "--sigma", "0.1"]) == 2


def test_grid_validation(tmp_path):
    out = str(tmp_path / "bad.csv")
    assert cli.main(["b-curve", "--steps", "1", "--out", out]) == 2
    assert cli.main(["b-curve", "--g-min", "2.0", "--g-max", "1.0", "--out", out]) == 2


def test_critical_scaling_table(tmp_path):
    out = tmp_path / "crit.csv"
    assert cli.main(["critical-scaling", "--n", "8", "40", "--out", str(out)]) == 0
    _, columns, rows = _read_csv(out)
    assert columns[0] == "n" and len(rows) == 2
    for row in rows:
        n = int(row[0])
        chi2 = float(row[5])
        rescaled = float(row[7])
        assert chi2 < 0.0
        assert rescaled == pytest.approx(chi2 / (2 * n), rel=1e-14)


def test_verify_fast_exit_and_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--level", "fast", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "20/20 checks passed at level fast"
    assert all(line.startswith("PASS ") for line in lines[:-1])
    report = json.loads(out.read_text())
    assert len(report["checks"]) == 20
    assert all(check["passed"] for check in report["checks"])


def test_debug_logging_leaves_cli_output_unchanged(tmp_path, capsys, caplog):
    argv = ["verify", "--level", "fast"]
    assert cli.main(argv) == 0
    quiet = capsys.readouterr()
    with caplog.at_level("DEBUG", logger="parity_ising"):
        assert cli.main(argv) == 0
        mc = ["montecarlo", "--kind", "gaussian_perfect", "--n", "8", "--g", "1.2",
              "--sigma", "0.1", "--samples", "20", "--out", str(tmp_path / "mc.json")]
        assert cli.main(mc) == 0
    loud = capsys.readouterr()
    strip = lambda text: [line.rsplit(" (", 1)[0] for line in text.splitlines()]  # drop elapsed times
    assert strip(loud.out) == strip(quiet.out)
    assert loud.err == quiet.err == ""
    assert {r.name for r in caplog.records} == {
        "parity_ising.verify", "parity_ising.disorder", "parity_ising.free_fermion"
    }
    # the artifact stays timing-free, so reruns stay byte-identical
    assert set(json.loads((tmp_path / "mc.json").read_text())["result"]) == {
        "n_samples", "n_redraws", "n_degenerate", "max_orthogonality_defect",
        "min_singular_ratio", "seed", "mean_utility", "stderr", "mean_density",
        "density_stderr", "clean_utility", "clean_density", "shift", "predicted_shift",
        "histogram",
    }


def test_verify_failure_exits_4(monkeypatch, capsys):
    failed = verify.CheckResult("rigged", "m", False, 2.0, 1.0, 0.1, "", 0.01)
    monkeypatch.setattr(verify, "run_checks", lambda level: (failed,))
    assert cli.main(["verify"]) == 4
    out = capsys.readouterr().out
    assert "FAIL rigged" in out
    assert "0/1 checks passed" in out


def test_numerics_error_exits_3(monkeypatch, tmp_path):
    def blow_up(g):
        raise NumericsError("quadrature did not converge")

    monkeypatch.setattr(pg, "advantage_density", blow_up)
    assert cli.main(["b-curve", "--out", str(tmp_path / "x.csv")]) == 3
    assert not (tmp_path / "x.csv").exists()


def test_thread_env_is_validated_and_applied(monkeypatch, tmp_path):
    monkeypatch.setenv(cli.THREAD_ENV_VAR, "zero")
    assert cli.main(["critical-scaling", "--out", str(tmp_path / "t.csv")]) == 2

    for var in cli._BLAS_ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv(cli.THREAD_ENV_VAR, "2")
    assert cli.main(["critical-scaling", "--out", str(tmp_path / "t.csv")]) == 0
    # setdefault semantics: pools already pinned by the user are respected
    assert all(os.environ[var] == "2" for var in cli._BLAS_ENV_VARS)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("parity-ising ")


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_no_partial_files_left_behind(tmp_path):
    assert cli.main(["critical-scaling", "--n", "8", "--out", str(tmp_path / "c.csv")]) == 0
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".partial-")]
    assert leftovers == []


def test_artifacts_honour_the_umask(tmp_path):
    out = tmp_path / "c.csv"
    previous = os.umask(0o022)
    try:
        assert cli.main(["critical-scaling", "--n", "8", "--out", str(out)]) == 0
    finally:
        os.umask(previous)
    assert os.stat(out).st_mode & 0o777 == 0o644
