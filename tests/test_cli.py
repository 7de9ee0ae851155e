import argparse
import json
import os
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from anfem.adaptive import LoopParams
from anfem.cli import (EXIT_NOT_CONVERGED, EXIT_OK, EXIT_USAGE, build_parser,
                       main)
from anfem.counterexample import scaling_study


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


def test_counterexample_default_is_the_settled_range(tmp_path, capsys):
    """Without --n the study runs N = 81 ... 1281, where the exponent has
    settled near 1/2, and prints the exponent `scaling_study` fits there."""
    rc = main(["counterexample", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    lines = (tmp_path / "counterexample.csv").read_text().splitlines()
    assert [int(line.split(",")[0]) for line in lines[2:]] == [
        81, 161, 321, 641, 1281]
    study = scaling_study([81, 161, 321, 641, 1281])
    assert f"exponent={study['exponent']:.6g} " in capsys.readouterr().out


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
    ("--element-cap", "0"), ("--max-iterations", "0")])
def test_adapt_bad_loop_flag_exits_2(tmp_path, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["adapt", flag, value, "--out", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["counterexample", "--theta", "0.3"], ["adapt", "--seed", "1"],
    ["adapt", "--dof-cap", "20"], ["verify"]])
def test_subcommand_rejects_flags_it_does_not_read(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE


def test_readme_lists_the_adapt_flags():
    """The README's `adapt` bullet names exactly the flags of the `adapt`
    subparser."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    bullet = re.search(r"^- `adapt`:(.*?)^- `counterexample`:", readme,
                       re.S | re.M).group(1)
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {s for a in sub.choices["adapt"]._actions
             for s in a.option_strings} - {"-h", "--help"}
    assert set(re.findall(r"--[a-z][a-z-]*", bullet)) == flags


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


def test_adapt_one_triangle_mesh_exits_2_before_the_run(tmp_path, capsys):
    # valid, but every edge is on the boundary: no velocity unknown to solve
    one = tmp_path / "one.txt"
    one.write_text("3 1\n0 0\n1 0\n0 1\n0 1 2 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["adapt", "--mesh", str(one), "--out", str(tmp_path / "out")])
    assert exc.value.code == EXIT_USAGE
    assert "interior edge" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["--domain", "lshape", "--solution", "smooth1"],
    ["--domain", "diamond"]], ids=["lshape", "diamond"])
def test_adapt_exact_solution_of_another_domain_exits_2(tmp_path, capsys,
                                                        argv):
    # smooth1's velocity is zero on the unit square's boundary only
    with pytest.raises(SystemExit) as exc:
        main(["adapt", "--max-iterations", "2", "--out",
              str(tmp_path / "out")] + argv)
    assert exc.value.code == EXIT_USAGE
    assert "not zero on the boundary" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_adapt_records_no_rate_for_a_short_run(tmp_path):
    # two steps are too few for rate_fit, so the rate is null, and too few
    # to reach the default --eps
    rc = main(["adapt", "--max-iterations", "2", "--out", str(tmp_path)])
    assert rc == EXIT_NOT_CONVERGED
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["iterations"] == 2 and summary["rate"] is None


def test_adapt_small_run(tmp_path):
    rc = main(["adapt", "--solution", "smooth1", "--theta", "0.5",
               "--max-iterations", "5", "--eps", "0", "--mu", "2",
               "--out", str(tmp_path)])
    assert rc == EXIT_NOT_CONVERGED         # no run reaches eps = 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "anfem-trace-v4"
    assert lines[1].split(",")[:3] == ["iteration", "nelems", "ndofs"]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["schema"] == "anfem-summary-v5"
    assert "truncated" not in summary
    assert summary["mu"] == 2.0
    assert summary["iterations"] == 5
    assert summary["final_eta"] > 0
    assert not summary["converged"]
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
    # stopped at the element cap short of --eps: not converged, exit 3
    rc = main(["adapt", "--solution", "smooth1", "--theta", "0.5",
               "--element-cap", "20", "--eps", "0", "--out", str(tmp_path)])
    assert rc == EXIT_NOT_CONVERGED
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert not summary["converged"] and summary["final_nelems"] >= 20


# the exit code is the run's one outcome: 0 only when it reached --eps, 3
# when it stopped at --max-iterations (or the element cap) first
@pytest.mark.parametrize("flags,code", [
    (["--max-iterations", "3"], EXIT_NOT_CONVERGED),
    (["--theta", "0.5", "--eps", "0.3"], EXIT_OK)],
    ids=["max-iterations", "eps"])
def test_adapt_exit_code_is_the_outcome(tmp_path, flags, code):
    rc = main(["adapt", *flags, "--out", str(tmp_path)])
    assert rc == code
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["converged"] == (code == EXIT_OK) == (
        summary["final_eta"] < summary["params"]["eps"])


# a file where the output directory should be, or below it: exit 2 before the
# run, not a traceback after it
@pytest.mark.parametrize("command", [
    ["adapt", "--max-iterations", "1"], ["counterexample"]],
    ids=["adapt", "counterexample"])
@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-file"])
def test_out_not_a_directory_exits_2_before_the_run(tmp_path, capsys,
                                                     monkeypatch, command,
                                                     sub):
    blocker = tmp_path / "file"
    blocker.write_text("")

    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr("anfem.adaptive.anfem_loop", no_run)
    monkeypatch.setattr("anfem.counterexample.scaling_study", no_run)
    with pytest.raises(SystemExit) as exc:
        main(command + ["--out", str(blocker / sub)])
    assert exc.value.code == EXIT_USAGE
    assert "--out" in capsys.readouterr().err
