import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import anfem.adaptive
from anfem import quadrature as quad
from anfem.adaptive import (IterationRecord, LoopParams, MarkingError,
                            anfem_loop, contraction_monitor, dorfler_mark,
                            rate_fit, uniform_trace)
from anfem.domains import unit_square
from anfem.estimator import EstimatorReport
from anfem.mesh import bisect
from anfem.problems import get_solution, zero_load


def fake_report(eta_sq):
    eta = np.sqrt(np.asarray(eta_sq, dtype=float))
    n = len(eta)
    return EstimatorReport(mesh=None, eta=eta, osc_sq=np.zeros(n),
                           vol_sq=np.zeros(n))


def test_dorfler_single_dominant():
    report = fake_report([0.0, 100.0, 1e-9, 0.0])
    for theta in (0.1, 0.5, 0.9):
        assert dorfler_mark(report, theta).tolist() == [1]


def test_dorfler_equal_mass():
    n = 10
    report = fake_report(np.ones(n))
    marked = dorfler_mark(report, 0.5)
    assert len(marked) == 5        # ceil(theta * n) for equal masses
    assert marked.tolist() == list(range(5))  # tie-break by ascending id


def test_dorfler_zero():
    assert len(dorfler_mark(fake_report(np.zeros(4)), 0.5)) == 0


def test_dorfler_bad_theta():
    with pytest.raises(MarkingError):
        dorfler_mark(fake_report([1.0]), 1.5)
    with pytest.raises(MarkingError):
        LoopParams(theta=0.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40),
       st.floats(0.05, 0.95))
def test_dorfler_minimality(eta_sq, theta):
    report = fake_report(eta_sq)
    total = report.eta_sq.sum()
    marked = dorfler_mark(report, theta)
    got = report.eta_sq[marked].sum()
    if total == 0.0:
        assert len(marked) == 0
        return
    assert got >= theta * total * (1.0 - 1e-12)
    # brute-force minimal size over all subsets of the same cardinality - 1:
    # the best possible smaller set is the top (k-1) elements
    k = len(marked)
    top = np.sort(report.eta_sq)[::-1]
    if k > 1:
        assert top[:k - 1].sum() < theta * total


def test_contraction_params_validation():
    for name in ("gamma1", "gamma2", "beta1"):
        with pytest.raises(ValueError):
            LoopParams(**{name: 0.0})


# one out-of-range value per LoopParams field that has a range
BAD_LOOP_PARAMS = [("theta", 1.0), ("theta", float("nan")), ("eps", -1e-3),
                   ("mu", 0.0), ("mu", float("inf")), ("beta1", -1.0),
                   ("gamma1", -1.0), ("gamma2", -1.0), ("element_cap", 0),
                   ("element_cap", 1.5), ("max_iterations", 0),
                   ("max_iterations", 2.5)]


@pytest.mark.parametrize("name,value", BAD_LOOP_PARAMS)
def test_loop_params_rejects_out_of_range(name, value):
    # raised at construction, and the fields cannot be reassigned later, so
    # no loop can start with the value
    with pytest.raises(ValueError, match=name):
        LoopParams(**{name: value})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(LoopParams(), name, value)


def test_zero_load_terminates_immediately():
    trace = anfem_loop(unit_square(2), zero_load(), LoopParams(eps=1e-8))
    assert trace.converged
    assert len(trace.records) == 1
    assert trace.records[0].eta2 == 0.0


def test_loop_trace_and_determinism():
    load = get_solution("smooth1")
    params = LoopParams(theta=0.5, max_iterations=8)
    a = anfem_loop(unit_square(2), load, params)
    b = anfem_loop(unit_square(2), load, params)
    na = a.column("nelems")
    assert np.all(np.diff(na) > 0)          # strictly growing meshes
    assert np.array_equal(na, b.column("nelems"))
    assert np.array_equal(a.column("eta2"), b.column("eta2"))
    assert np.all(np.isfinite(a.column("eta2")))


def test_loop_truncation_flag():
    load = get_solution("smooth1")
    trace = anfem_loop(unit_square(2), load,
                       LoopParams(theta=0.5, element_cap=20,
                                  max_iterations=50))
    assert trace.truncated and not trace.converged


def test_loop_convergence_flag():
    load = get_solution("smooth1")
    trace = anfem_loop(unit_square(2), load,
                       LoopParams(theta=0.5, eps=0.3, max_iterations=50))
    assert trace.converged
    assert np.sqrt(trace.records[-1].eta2) < 0.3


def test_marked_bounded_by_refined():
    """|M_k| <= |T_k \\ T_{k+1}| at every step (each marked element splits)."""
    load = get_solution("smooth1")
    trace = anfem_loop(unit_square(2), load,
                       LoopParams(theta=0.3, max_iterations=8))
    ne = trace.column("nelems")
    nm = trace.column("nmarked")
    for k in range(len(ne) - 1):
        assert ne[k + 1] - ne[k] >= nm[k] > 0


def test_contraction_monitor_smooth():
    load = get_solution("smooth1")
    trace = anfem_loop(unit_square(2), load,
                       LoopParams(theta=0.3, max_iterations=12))
    mon = contraction_monitor(trace)
    assert mon["count"] >= 10
    assert 0.0 < mon["geomean"] < 1.0


def test_trace_csv_schema(tmp_path):
    load = get_solution("smooth1")
    trace = anfem_loop(unit_square(2), load,
                       LoopParams(theta=0.5, max_iterations=3))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "anfem-trace-v4"
    names = [f.name for f in dataclasses.fields(IterationRecord)]
    assert lines[1].split(",") == names
    assert len(lines) == 2 + len(trace.records)
    # every field is written, the last record's unset reduction as nan
    last = dict(zip(names, lines[-1].split(",")))
    assert float(last["eta2"]) == trace.records[-1].eta2
    assert last["reduction_lhs"] == "nan"
    # the solve's diagnostics of every step
    for row in lines[2:]:
        rec = dict(zip(names, row.split(",")))
        assert 1 <= int(rec["solver_iterations"]) <= 60
        assert int(rec["lu_fill"]) > 0
        assert 0.0 <= float(rec["solver_residual"]) <= 1e-10


def test_rate_fit_requires_points():
    trace = anfem_loop(unit_square(2), get_solution("smooth1"),
                       LoopParams(theta=0.5, max_iterations=2))
    with pytest.raises(ValueError):
        rate_fit(trace)


def test_uniform_rate_smooth():
    load = get_solution("smooth1")
    trace = uniform_trace(unit_square(2), load, levels=6,
                          rounds_per_level=1)
    s = rate_fit(trace)
    assert -0.65 < s < -0.35        # optimal N^(-1/2) for smooth data


def test_loop_ends_at_its_last_solve(monkeypatch):
    calls = []

    def counting_bisect(mesh, marked):
        calls.append(len(marked))
        return bisect(mesh, marked)

    monkeypatch.setattr(anfem.adaptive, "bisect", counting_bisect)
    trace = anfem_loop(unit_square(1), get_solution("smooth1"),
                       LoopParams(max_iterations=3))
    last = trace.records[-1]
    assert trace.final_solution.mesh.num_triangles == last.nelems == 9
    assert last.nmarked == 0 and np.isnan(last.reduction_lhs)
    assert len(calls) == len(trace.records) - 1
    assert not trace.truncated and not trace.converged


def test_loop_evaluates_exact_solution_once_per_mesh():
    """grad u and p are evaluated once per solve, at the degree-4 points,
    for both the errors and the quasi-orthogonality monitors."""
    load = get_solution("smooth1")
    calls = []

    def counted(name):
        field = getattr(load, name)

        def evaluate(x, y):
            calls.append((name, x.shape))
            return field(x, y)
        return evaluate

    counted_load = dataclasses.replace(
        load, grad_velocity=counted("grad_velocity"),
        pressure=counted("pressure"))
    trace = anfem_loop(unit_square(2), counted_load,
                       LoopParams(theta=0.5, max_iterations=4))
    nq = len(quad.DEG4_WEIGHTS)
    assert calls == [(name, (r.nelems, nq)) for r in trace.records
                     for name in ("grad_velocity", "pressure")]
    for name in ("qo_velocity", "qo_pressure"):
        assert np.isfinite(trace.column(name)[1:]).all()


def test_uniform_trace_checks_solver_invariants(monkeypatch):
    load = get_solution("smooth1")
    trace = uniform_trace(unit_square(1), load, levels=3, rounds_per_level=1)
    assert trace.column("nmarked").tolist() == [4, 8, 0]
    # no previous mesh on the first level, as in anfem_loop
    assert trace.column("gamma").tolist() == [1.0, 2 ** 0.5, 2 ** 0.5]
    assert trace.final_solution.mesh.num_triangles == 16
    solve_saddle = anfem.adaptive.solve_saddle

    def perturbed(system):
        sol = solve_saddle(system)
        sol.u = sol.u + np.random.default_rng(0).normal(size=sol.u.shape)
        return sol

    monkeypatch.setattr(anfem.adaptive, "solve_saddle", perturbed)
    with pytest.raises(AssertionError, match="divergence"):
        uniform_trace(unit_square(1), load, levels=3, rounds_per_level=1)


@pytest.mark.parametrize("solution", ["smooth1", "constant"])
def test_loop_records_discrete_reliability(solution):
    # ||u_k - u_{k-1}|| + ||p_k - p_{k-1}|| <= drel eta_{k-1}(R_k), with or
    # without an exact solution; no previous level on the first record
    trace = anfem_loop(unit_square(2), get_solution(solution),
                       LoopParams(theta=0.3, max_iterations=10))
    drel = trace.column("drel")
    assert np.isnan(drel[0])
    assert np.all((drel[1:] > 0) & (drel[1:] < 1))


def test_marking_threshold_table():
    # a theta sweep of the loop: a larger theta marks a larger fraction
    load = get_solution("smooth1")
    fractions = []
    for theta in (0.3, 0.7):
        trace = anfem_loop(unit_square(2), load,
                           LoopParams(theta=theta, max_iterations=6))
        assert len(trace.records) == 6
        marked = trace.column("nmarked")[:-1] / trace.column("nelems")[:-1]
        fractions.append(marked.mean())
    assert fractions[1] > fractions[0]
