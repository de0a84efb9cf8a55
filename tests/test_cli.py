"""CLI tests: argument parsing, exit codes, CSV shape and byte stability."""

import csv
import hashlib
import math

import pytest

import mminf.cli
from mminf.cli import RunConfig, main, parse_args, parse_observable
from mminf.kernel import QueueParams, kernel_entry
from mminf.oracle import uniformized_kernel

# exit code and SHA-256 of each default CSV; a change of digest is deliberate
# and recorded in CHANGES.md
GOLDEN = {
    "sweep": (
        1, "7e20c7eca7fcec06fb3fd36498dcfdfbf97005721b9b0de03bde9a3a543d3d3d"),
    "verify-generalized": (
        1, "769888eb93b391bd958dfc6d046cf2f1d9f82eee7e8949ab47e92e4bde3c5e12"),
    "verify-theorem": (
        0, "86c293d9b75666b24ae0008243d17684014c3c323bb4a87fb7b2e90617f4980c"),
    "oracle-check": (
        0, "91583b9f74aceaa63a6af1af6b4e7966d3c4ee52b5f5d6ceb3b4bf0e9cc13ec8"),
    "sharpness": (
        0, "2dc123ec857169233a62ef4cd8002c99695230efbbb9e1accd62955d63bfe8ba"),
    "verify-lemma": (
        1, "216094236984237906374dac204a64a611c103f9124ee40d059a3ed36b6bd3f2"),
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
        ],
        ids=" ".join,
    )
    def test_usage_error(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
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

    def test_jobs_parallel_matches_serial(self, tmp_path):
        base = ["verify-lemma", "--rho", "0.5", "--rho", "1", "--p", "0.5",
                "--p", "0.7", "--kmax", "3", "--nmax", "5"]
        a, b = tmp_path / "serial.csv", tmp_path / "par.csv"
        run_cli(base + ["--out", str(a)])
        run_cli(base + ["--jobs", "2", "--out", str(b)])
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

    def test_unwritable_output(self, tmp_path):
        code = run_cli(["verify-lemma", "--rho", "1", "--p", "0.5",
                        "--kmax", "2", "--nmax", "3",
                        "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 2


class TestGolden:
    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_default_csv_digest(self, command, tmp_path):
        out = tmp_path / f"{command}.csv"
        code, digest = GOLDEN[command]
        assert main([command, "--out", str(out)]) == code
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_oracle_rows_match_scalar_route(tmp_path):
    # oracle-check takes its discrepancies from kernel_log_matrix rows; the
    # scalar kernel_entry route must give the same numbers within 1e-15
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
                disc = max(
                    abs(math.exp(kernel_entry(params, t, k, n)) - mat[k, n])
                    for n in range(nmax + 1)
                )
                assert got[(rho, p, k)] == pytest.approx(disc, abs=1e-15)
