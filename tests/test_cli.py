"""CLI tests: argument parsing, exit codes, CSV shape and byte stability."""

import csv
import hashlib
import math

import pytest

import mminf.bounds
import mminf.cli
from mminf.cli import RunConfig, main, parse_args, parse_observable
from mminf.distributions import binomial_log_pmf, poisson_log_pmf
from mminf.kernel import QueueParams
from mminf.oracle import uniformized_kernel

# exit code and SHA-256 of each default CSV; a change of digest is deliberate
# and recorded in CHANGES.md
GOLDEN = {
    "sweep": (
        1, "7780d6653fcb455d384cbb843f750d8f42efcbfc478729f6764e8a32d6b5b21e"),
    "verify-generalized": (
        1, "21b17221077331c652c8c35c1c08bf9b429f3749958732d9eb53c683bb2c334a"),
    "verify-theorem": (
        0, "86c293d9b75666b24ae0008243d17684014c3c323bb4a87fb7b2e90617f4980c"),
    "oracle-check": (
        0, "19d4e99e369b81627a697ce05a5147ea9cfd092511ca174ea2b77acfd65bd8e1"),
    "sharpness": (
        0, "80f74dc30bd426f5541c02d6b269eab3e71a1ea1f2b48b26a5ad4642fb79c2cb"),
    "verify-lemma": (
        1, "ce92723cb541cf371b5e9efa9c6c7118af26b76618711136997f172a06e22428"),
}

COMMANDS = ["verify-lemma", "verify-theorem", "verify-generalized",
            "oracle-check", "sharpness", "sweep"]


def run_cli(args):
    return main(args)


class TestParseArgs:
    def test_verify_lemma(self):
        cfg = parse_args(
            ["verify-lemma", "--rho", "1", "--p", "0.5", "--kmax", "10", "--nmax", "20"]
        )
        assert isinstance(cfg, RunConfig)
        assert cfg.command == "verify-lemma"
        assert cfg.options["rho"] == [1.0]
        assert cfg.options["kmax"] == 10

    def test_bad_p_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["verify-lemma", "--rho", "1", "--p", "1.5"])
        assert exc.value.code == 2

    def test_empty_argv_shows_help(self):
        with pytest.raises(SystemExit) as exc:
            parse_args([])
        assert exc.value.code == 2

    def test_deficit_refused(self):
        # table observables, the only kind the CLI builds, never read a
        # deficit, so no command takes one
        for command in COMMANDS:
            with pytest.raises(SystemExit) as exc:
                parse_args([command, "--deficit", "1e-12"])
            assert exc.value.code == 2

    def test_bad_observable_spec(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["verify-theorem", "--f", "nonsense"])
        assert exc.value.code == 2


class TestBadInput:
    """Every bad value is a usage error: exit 2 from main, no traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--rho", "nan"],
            ["sweep", "--rho", "inf"],
            ["sweep", "--rho", "-inf"],
            ["sweep", "--p", "nan"],
            ["sweep", "--mu", "nan"],
            ["sweep", "--mu", "inf"],
            ["verify-generalized", "--b", "nan"],
            ["verify-generalized", "--b", "inf"],
            ["verify-generalized", "--a", "nan"],
            ["sharpness", "--t", "nan"],
            ["sharpness", "--t", "inf"],
            ["sharpness", "--rho", "nan"],
            ["oracle-check", "--tol", "nan"],
            ["oracle-check", "--tol", "inf"],
            ["oracle-check", "--tol", "0"],
            ["sweep", "--kmax", "-1"],
            ["sweep", "--nmax", "-1"],
            ["verify-generalized", "--kmax", "-1"],
            ["sharpness", "--t", "-1"],
            ["sharpness", "--t", "0"],
            ["sharpness", "--n", "0"],
            ["oracle-check", "--N", "5"],
            ["oracle-check", "--kmax", "30", "--N", "25"],
            ["sharpness", "--rho", "1e200", "--mu", "1e200"],
            ["sweep", "--rho", "1e-200", "--mu", "1e-200"],
            ["oracle-check", "--mu", "1e308"],
            ["verify-generalized", "--a", "0", "--b", "0"],
            ["verify-theorem", "--f", "table:0=nan"],
            ["verify-theorem", "--f", "table:0=inf"],
            ["sharpness", "--delta", "nan"],
            ["sharpness", "--delta", "-1"],
            ["sweep", "--jobs", "0"],
            ["sweep", "--jobs", "-4"],
            ["sweep", "--nmax", "0"],
            ["verify-lemma", "--nmax", "0"],
            ["verify-generalized", "--nmax", "0"],
            ["verify-theorem", "--nmax", "0"],
            ["sharpness", "--jobs", "3"],
            ["oracle-check", "--strict"],
            ["sharpness", "--strict"],
            # rho * mu is positive, but t = -log(p) / mu overflows to inf
            ["verify-lemma", "--rho", "3", "--mu", "1e-320", "--p", "0.5"],
            ["verify-theorem", "--mu", "1e-308"],
            ["oracle-check", "--rho", "1e300", "--mu", "1e-308"],
            ["verify-theorem", "--f", "table:0=1,0=2"],
        ],
        ids=" ".join,
    )
    def test_usage_error(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # the usage shown is that of the command run, for errors that argparse
        # finds and for those that _validate finds
        assert err.startswith(f"usage: mminf {argv[0]} ")
        assert "error:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_oracle_smallest_valid_N(self, tmp_path):
        out = tmp_path / "oracle.csv"
        argv = ["oracle-check", "--rho", "1", "--p", "0.5", "--kmax", "3",
                "--nmax", "6", "--N", "6", "--out", str(out)]
        # N = 6 is accepted, and the oracle flags its boundary leak
        with pytest.warns(RuntimeWarning, match="boundary leak"):
            assert main(argv) in (0, 1)
        assert len(out.read_text().splitlines()) == 2 + 4


    def test_oracle_nmax_zero_checks_n_zero(self, tmp_path):
        out = tmp_path / "oracle.csv"
        argv = ["oracle-check", "--rho", "1", "--p", "0.5", "--kmax", "2",
                "--nmax", "0", "--N", "40", "--out", str(out)]
        assert main(argv) == 0
        assert len(out.read_text().splitlines()) == 2 + 3


class TestParseObservable:
    def test_table(self):
        f = parse_observable("table:0=1,1=3,4=2")
        assert f(1) == 3.0
        assert f(2) == 0.0

    def test_indicator_range(self):
        f = parse_observable("indicator:0..3")
        assert f(3) == 1.0
        assert f(4) == 0.0

    def test_indicator_list(self):
        f = parse_observable("indicator:1,5")
        assert f(5) == 1.0
        assert f(2) == 0.0

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_observable("spline:1..3")


class TestRun:
    def test_lemma_pass_exit_zero(self, tmp_path):
        out = tmp_path / "lemma.csv"
        code = run_cli(
            ["verify-lemma", "--rho", "1", "--p", "0.5",
             "--kmax", "5", "--nmax", "10", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# mminf 0.1.0 verify-lemma")
        header = lines[1].split(",")
        assert header == ["rho", "p", "k", "n", "margin", "error_budget", "verdict"]
        rows = list(csv.reader(lines[2:]))
        assert len(rows) == 6 * 10
        assert all(r[-1] == "pass" for r in rows)

    def test_lemma_violation_exit_one(self, tmp_path):
        out = tmp_path / "lemma.csv"
        code = run_cli(
            ["verify-lemma", "--rho", "2", "--p", "0.1",
             "--kmax", "5", "--nmax", "5", "--out", str(out)]
        )
        assert code == 1
        rows = list(csv.reader(out.read_text().splitlines()[2:]))
        assert any(r[-1] == "fail" for r in rows)

    def test_csv_byte_stability(self, tmp_path):
        args = ["verify-theorem", "--rho", "1", "--p", "0.5", "--nmax", "6",
                "--f", "table:0=1,1=3,4=2"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_untestable_strict_exit_three(self, tmp_path):
        out = tmp_path / "gen.csv"
        args = ["verify-generalized", "--a", "0.5", "--b", "0",
                "--kmax", "4", "--nmax", "10", "--out", str(out)]
        assert run_cli(args) == 0
        assert run_cli(args + ["--strict"]) == 3
        rows = list(csv.reader(out.read_text().splitlines()[2:]))
        assert any(r[-1] == "untestable" for r in rows)

    def test_oracle_check(self, tmp_path):
        out = tmp_path / "oracle.csv"
        code = run_cli(
            ["oracle-check", "--rho", "1", "--p", "0.5", "--kmax", "3",
             "--nmax", "10", "--N", "40", "--tol", "1e-9", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()[2:]))
        assert all(float(r[3]) <= 1e-8 for r in rows)

    def test_sharpness_decreasing_columns(self, tmp_path):
        out = tmp_path / "sharp.csv"
        code = run_cli(
            ["sharpness", "--t", "1", "--t", "4", "--t", "16", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()[2:]))
        lhs = [float(r[1]) for r in rows]
        rhs = [float(r[2]) for r in rows]
        assert lhs == sorted(lhs, reverse=True)
        assert rhs == sorted(rhs, reverse=True)
        assert rows[-1][-1] == "pass"

    def test_sharpness_repeated_t_checked_once(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        code = run_cli(["sharpness", "--t", "4", "--t", "1", "--t", "4",
                        "--out", str(a)])
        assert code == run_cli(["sharpness", "--t", "1", "--t", "4", "--out", str(b)])
        rows = [path.read_bytes().split(b"\n", 1)[1] for path in (a, b)]
        assert rows[0] == rows[1]
        assert len(rows[0].splitlines()) == 1 + 2

    @pytest.mark.parametrize(
        "code, base",
        [
            # each grid holds a failing cell; x = rho (1 - p)^2 / p > sqrt(2)
            (1, ["verify-lemma", "--rho", "0.5", "--rho", "2", "--p", "0.1",
                 "--p", "0.7", "--kmax", "3", "--nmax", "5"]),
            (1, ["verify-theorem", "--rho", "0.5", "--rho", "2", "--p", "0.1",
                 "--p", "0.7", "--nmax", "4", "--f", "table:2=1"]),
            (1, ["verify-generalized", "--a", "0.5", "--a", "0.9", "--b", "0.5",
                 "--b", "2", "--kmax", "3", "--nmax", "4"]),
            # discrepancies of ~1e-16 exceed 10 * tol
            (1, ["oracle-check", "--rho", "0.5", "--rho", "2", "--p", "0.5",
                 "--kmax", "3", "--nmax", "5", "--N", "40", "--tol", "1e-18"]),
            # untestable rows and no failure
            (3, ["verify-generalized", "--a", "0.25", "--a", "0.5", "--b", "0",
                 "--kmax", "4", "--nmax", "10", "--strict"]),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else str(v),
    )
    def test_jobs_parallel_matches_serial(self, code, base, tmp_path):
        # each worker's text and verdicts cross the process pool
        a, b = tmp_path / "serial.csv", tmp_path / "par.csv"
        assert run_cli(base + ["--out", str(a)]) == code
        assert run_cli(base + ["--jobs", "2", "--out", str(b)]) == code
        assert a.read_bytes() == b.read_bytes()

    def test_pool_never_outgrows_the_grid(self, tmp_path, monkeypatch):
        # a pool starts all its workers at once; record its size, start none
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        monkeypatch.setattr(mminf.cli, "ProcessPoolExecutor", Pool)
        base = ["verify-lemma", "--rho", "1", "--p", "0.5", "--p", "0.7",
                "--kmax", "2", "--nmax", "3"]
        a, b = tmp_path / "serial.csv", tmp_path / "pool.csv"
        assert run_cli(base + ["--out", str(a)]) == 0
        assert sizes == []
        assert run_cli(base + ["--jobs", "5000", "--out", str(b)]) == 0
        assert sizes == [2]
        assert a.read_bytes() == b.read_bytes()

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MMINF_OUT_DIR", str(tmp_path))
        code = run_cli(["verify-lemma", "--rho", "1", "--p", "0.5",
                        "--kmax", "2", "--nmax", "3"])
        assert code == 0
        assert (tmp_path / "verify-lemma.csv").exists()

    def test_unwritable_output(self, tmp_path, monkeypatch):
        # the file is opened before the first cell is computed
        calls = []
        monkeypatch.setattr(mminf.cli, "_lemma_cell", calls.append)
        for out in (tmp_path / "missing" / "x.csv", tmp_path):
            code = run_cli(["verify-lemma", "--rho", "1", "--p", "0.5",
                            "--kmax", "2", "--nmax", "3", "--out", str(out)])
            assert code == 2
        assert calls == []

    def test_grid_values_sorted_and_distinct(self, tmp_path):
        # cells run in ascending order of distinct values, so repeating or
        # reordering a value changes only the options echoed in the comment
        base = ["sweep", "--p", "0.1", "--p", "0.5", "--kmax", "3", "--nmax", "4"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(
            base + ["--rho", "2", "--rho", "0.5", "--rho", "2", "--out", str(a)]
        ) == 1
        assert run_cli(base + ["--rho", "0.5", "--rho", "2", "--out", str(b)]) == 1
        rows = [path.read_bytes().split(b"\n", 1)[1] for path in (a, b)]
        assert rows[0] == rows[1]
        assert len(rows[0].splitlines()) == 1 + 2 * 2 * 4 * 4

    def test_rows_without_case_objects(self, tmp_path, monkeypatch):
        # rows are formatted from the report arrays: no CaseResult is built
        def refuse(*args, **kwargs):
            raise AssertionError("a CaseResult was built")

        monkeypatch.setattr(mminf.bounds, "CaseResult", refuse)
        cell = ["--rho", "1", "--p", "0.5", "--nmax", "5"]
        for command in (["sweep", "--kmax", "3"], ["verify-theorem"]):
            out = tmp_path / f"{command[0]}.csv"
            assert main(command + cell + ["--out", str(out)]) == 0
            assert len(out.read_text().splitlines()) > 2


class TestGolden:
    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_default_csv_digest(self, command, tmp_path):
        out = tmp_path / f"{command}.csv"
        code, digest = GOLDEN[command]
        assert main([command, "--out", str(out)]) == code
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def scalar_mass(k, a, b, n):
    return math.fsum(
        math.exp(binomial_log_pmf(k, a, j) + poisson_log_pmf(b, n - j))
        for j in range(min(k, n) + 1)
    )


def test_oracle_rows_match_scalar_route(tmp_path):
    # oracle-check takes its discrepancies from kernel_log_matrix rows; masses
    # summed term by term from the scalar pmfs must give the same numbers
    # within 1e-15
    rhos, ps, kmax, nmax, big_n, tol = [0.5, 5.0], [0.1, 0.9], 10, 20, 60, 1e-10
    out = tmp_path / "oracle.csv"
    argv = ["oracle-check", "--kmax", str(kmax), "--nmax", str(nmax),
            "--N", str(big_n), "--tol", str(tol), "--out", str(out)]
    for rho in rhos:
        argv += ["--rho", str(rho)]
    for p in ps:
        argv += ["--p", str(p)]
    assert main(argv) == 0
    got = {
        (float(r[0]), float(r[1]), int(r[2])): float(r[3])
        for r in csv.reader(out.read_text().splitlines()[2:])
    }
    assert len(got) == len(rhos) * len(ps) * (kmax + 1)
    for rho in rhos:
        for p in ps:
            params = QueueParams(lam=rho, mu=1.0)
            t = params.t_for_p(p)
            mat = uniformized_kernel(params, t, big_n, tol)
            for k in range(kmax + 1):
                p_t, b = params.p(t), params.rho * params.q(t)
                disc = max(
                    abs(scalar_mass(k, p_t, b, n) - mat[k, n])
                    for n in range(nmax + 1)
                )
                assert got[(rho, p, k)] == pytest.approx(disc, abs=1e-15)
