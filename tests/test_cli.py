import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from anfem.adaptive import LoopParams
from anfem.cli import (EXIT_OK, EXIT_TRUNCATED, EXIT_USAGE,
                       EXIT_VERIFY_FAILED, main)


def test_counterexample_csv_schema_and_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        rc = main(["counterexample", "--n", "5", "11", "21", "41",
                   "--out", str(out)])
        assert rc == EXIT_OK
    text_a = (out_a / "counterexample.csv").read_text()
    text_b = (out_b / "counterexample.csv").read_text()
    assert text_a == text_b
    lines = text_a.splitlines()
    assert lines[0] == "anfem-counterexample-v1"
    assert lines[1] == "N,boundary_sum,grad_norm_sq,C,closed_form"
    assert len(lines) == 2 + 4
    assert lines[2].startswith("5,")


def test_counterexample_even_n_usage_error(tmp_path, capsys):
    rc = main(["counterexample", "--n", "4", "6", "8", "10",
               "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert "odd" in capsys.readouterr().err


def test_counterexample_too_few_n(tmp_path):
    # N = 1 has C = 0 (log -inf), and repeated N leave the fit rank-deficient
    for n in (["5", "7", "9"], ["1", "3", "5", "7"], ["5", "5", "5", "5"]):
        rc = main(["counterexample", "--n", *n, "--out", str(tmp_path)])
        assert rc == EXIT_USAGE


def test_adapt_bad_theta_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["adapt", "--theta", "1.5", "--out", str(tmp_path)])
    assert exc.value.code == 2


# one out-of-range value per loop flag; LoopParams rejects each before a solve
@pytest.mark.parametrize("flag,value", [
    ("--theta", "0"), ("--eps", "-1"), ("--mu", "0"), ("--mu", "inf"),
    ("--beta1", "-1"), ("--gamma1", "-1"), ("--gamma2", "-1"),
    ("--element-cap", "0"), ("--max-iterations", "0")])
def test_adapt_bad_loop_flag_exits_2(tmp_path, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["adapt", flag, value, "--out", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["verify", "--domain", "lshape"], ["adapt", "--seed", "1"],
    ["adapt", "--dof-cap", "20"]])
def test_subcommand_rejects_flags_it_does_not_read(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE


def test_adapt_bad_mesh_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n0 0\n1 0\n")
    with pytest.raises(SystemExit) as exc:
        main(["adapt", "--mesh", str(bad), "--out", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE
    assert "bad.txt" in capsys.readouterr().err


def test_adapt_non_conforming_mesh_exits_2(tmp_path, capsys):
    # a hanging node at the centre of the unit square
    bad = tmp_path / "hanging.txt"
    bad.write_text("5 3\n0 0\n1 0\n1 1\n0 1\n0.5 0.5\n"
                   "0 1 3 2\n1 2 4 2\n2 3 4 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["adapt", "--mesh", str(bad), "--out", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE
    assert "hanging.txt" in capsys.readouterr().err


def test_adapt_small_run(tmp_path):
    rc = main(["adapt", "--solution", "smooth1", "--theta", "0.5",
               "--max-iterations", "5", "--eps", "0",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "anfem-trace-v4"
    assert lines[1].split(",")[:3] == ["iteration", "nelems", "ndofs"]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["schema"] == "anfem-summary-v2"
    assert summary["iterations"] == 5
    assert summary["final_eta"] > 0
    assert not summary["truncated"]
    assert summary["params"] == asdict(
        LoopParams(theta=0.5, eps=0.0, max_iterations=5))
    assert set(summary["versions"]) == {"python", "numpy", "scipy"}
    assert summary["versions"]["numpy"] == np.__version__
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        assert summary["threads"][var] == os.environ.get(var)
    col = lines[1].split(",").index("solver_iterations")
    steps = [int(line.split(",")[col]) for line in lines[2:]]
    assert summary["solver_iterations"] == sum(steps) >= 5


def test_adapt_truncation_exit_code(tmp_path):
    rc = main(["adapt", "--solution", "smooth1", "--theta", "0.5",
               "--element-cap", "20", "--eps", "0", "--out", str(tmp_path)])
    assert rc == EXIT_TRUNCATED
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["truncated"]


def test_verify_counterexample_suite(tmp_path, capsys):
    rc = main(["verify", "--suite", "counterexample", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    assert "[PASS] counterexample" in capsys.readouterr().out
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["schema"] == "anfem-verify-v1"
    assert report["suites"][0]["pass"] is True


def test_verify_operators_suite(tmp_path, capsys):
    rc = main(["verify", "--suite", "operators", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    assert "[PASS] operators" in capsys.readouterr().out
