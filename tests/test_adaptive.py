import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import anfem.adaptive
from anfem import quadrature as quad
from anfem.adaptive import (AdaptiveTrace, IterationRecord, LoopParams,
                            anfem_loop, dorfler_mark, rate_fit, uniform_trace)
from anfem.domains import diamond, l_shape, unit_square
from anfem.estimator import EstimatorReport, estimate
from anfem.mesh import bisect, build_initial, uniform_refine
from anfem.problems import PointValues, get_solution, smooth1
from anfem.spaces import solve


def fake_report(eta_sq):
    eta = np.sqrt(np.asarray(eta_sq, dtype=float))
    n = len(eta)
    return EstimatorReport(eta=eta, osc_sq=np.zeros(n),
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
    with pytest.raises(ValueError, match="theta"):
        dorfler_mark(fake_report([1.0]), 1.5)
    with pytest.raises(ValueError, match="theta"):
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
    """The contraction weights are the paper's fixed, positive and finite
    constants; a loop cannot be given others."""
    for name in ("BETA1", "GAMMA1", "GAMMA2"):
        assert getattr(anfem.adaptive, name) == 1.0
    for name in ("gamma1", "gamma2", "beta1"):
        with pytest.raises(TypeError, match=name):
            LoopParams(**{name: 0.0})


def test_records_weigh_with_the_papers_constants(monkeypatch):
    """eta~^2, Lambda and alpha of each step, bit for bit, with the paper's
    weights at 1: eta~^2 = sum_K (h_K^2 ||g||_K^2 + eta_K^2),
    Lambda = err_u2 + err_p2 + eta~^2 and alpha = Lambda / previous
    Lambda."""
    reports = []

    def recorded(sol):
        reports.append(estimate(sol))
        return reports[-1]

    monkeypatch.setattr(anfem.adaptive, "estimate", recorded)
    trace = anfem_loop(unit_square(2), smooth1(2.0),
                       LoopParams(theta=0.5, max_iterations=5))
    recs = trace.records
    assert len(reports) == len(recs) == 5
    for rec, report in zip(recs, reports):
        assert rec.eta_tilde2 == float((report.vol_sq + report.eta_sq).sum())
        assert rec.lam == rec.err_u2 + rec.err_p2 + rec.eta_tilde2
    assert np.isnan(recs[0].alpha)
    for prev, rec in zip(recs, recs[1:]):
        assert rec.alpha == rec.lam / prev.lam


# one out-of-range value per LoopParams field that has a range
BAD_LOOP_PARAMS = [("theta", 1.0), ("theta", float("nan")), ("eps", -1e-3),
                   ("element_cap", 0), ("element_cap", 1.5),
                   ("max_iterations", 0), ("max_iterations", 2.5),
                   ("max_iterations", True), ("element_cap", True),
                   ("check_reduction", "no"), ("check_reduction", 0)]


@pytest.mark.parametrize("name,value", BAD_LOOP_PARAMS)
def test_loop_params_rejects_out_of_range(name, value):
    # raised at construction, and the fields cannot be reassigned later, so
    # no loop can start with the value
    with pytest.raises(ValueError, match=name):
        LoopParams(**{name: value})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(LoopParams(), name, value)


def test_zero_load_terminates_immediately():
    trace = anfem_loop(unit_square(2), get_solution("zero"),
                       LoopParams(eps=1e-8))
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
    # stopped at the cap, short of eps = 0: the run did not converge
    assert not trace.converged and trace.records[-1].nelems >= 20
    assert len(trace.records) < 50


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
    rec = trace.records[0]
    grown = dataclasses.replace(rec, nelems=rec.nelems + 1)
    # five points, of which none or one has more elements than the first
    for records in ([rec] * 5, [rec] * 5 + [grown]):
        with pytest.raises(ValueError, match="growing"):
            rate_fit(AdaptiveTrace(records=records))


def test_uniform_rate_smooth():
    load = get_solution("smooth1")
    trace = uniform_trace(unit_square(2), load, levels=6)
    s = rate_fit(trace)
    assert -0.65 < s < -0.35        # optimal N^(-1/2) for smooth data
    assert not trace.converged      # no tolerance to reach


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
    assert not trace.converged


def test_loop_evaluates_exact_solution_once_per_mesh():
    """grad u and p are evaluated once per element lineage, at the degree-4
    points, for both the errors and the quasi-orthogonality monitors: on
    every element of the first mesh, then on each element bisect creates
    (an element that is its parent's only child keeps its values)."""
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
    # the loop's bisections, oldest first
    steps = trace.final_solution.mesh.lineage[:len(trace.records) - 1]
    created = [int(np.count_nonzero(np.bincount(parent)[parent] > 1))
               for _, parent, _ in reversed(steps)]
    assert all(0 < n < r.nelems for n, r in zip(created, trace.records[1:]))
    nq = len(quad.DEG4_WEIGHTS)
    assert calls == [(name, (n, nq))
                     for n in [trace.records[0].nelems] + created
                     for name in ("grad_velocity", "pressure")]
    for name in ("qo_velocity", "qo_pressure"):
        assert np.isfinite(trace.column(name)[1:]).all()


def test_carried_record_equals_full_evaluation(monkeypatch):
    """On every refined mesh of an L-shape loop, the record the loop
    descends from the previous mesh's record equals a fresh evaluation of
    every midpoint and every element's integrals bit for bit."""
    records = []
    descend = PointValues.descend

    def recorded(self, fine):
        records.append(descend(self, fine))
        return records[-1]

    monkeypatch.setattr(PointValues, "descend", recorded)
    load = get_solution("lshape_singular")
    anfem_loop(l_shape(), load, LoopParams(theta=0.3, max_iterations=12,
                                           check_reduction=False))
    assert len(records) == 11
    for values in records:
        fresh = PointValues(values.mesh, load)
        for part in ("at_midpoints", "moments"):
            assert part in vars(values)       # built by the loop
            got, ref = getattr(values, part), getattr(fresh, part)
            assert sorted(got) == sorted(ref)
            for name in ref:
                assert np.array_equal(got[name], ref[name]), (part, name)


def test_uniform_trace_checks_solver_invariants(monkeypatch):
    load = get_solution("smooth1")
    trace = uniform_trace(unit_square(1), load, levels=3)
    assert trace.column("nmarked").tolist() == [4, 16, 0]
    # no previous mesh on the first level, as in anfem_loop
    assert trace.column("gamma").tolist() == [1.0, 2.0, 2.0]
    assert trace.final_solution.mesh.num_triangles == 64
    solve_saddle = anfem.adaptive.solve_saddle
    # a perturbed u breaks div u = 0; a perturbed p keeps it but breaks
    # A u + B^T p = F
    for name, check in (("u", "divergence"), ("p", "Galerkin identity")):
        def perturbed(system):
            sol = solve_saddle(system)
            x = getattr(sol, name)
            setattr(sol, name, x + np.random.default_rng(0).normal(
                size=x.shape))
            return sol

        monkeypatch.setattr(anfem.adaptive, "solve_saddle", perturbed)
        with pytest.raises(AssertionError, match=check):
            uniform_trace(unit_square(1), load, levels=3)


# eta_K scaled by 2 and h_K^2 ||g||_K^2 by 4: each term of the sum by 4
@pytest.mark.parametrize("name,field,factor", [("estimator", "eta", 2.0),
                                               ("volume-term", "vol_sq", 4.0)])
def test_loop_raises_when_reduction_fails(monkeypatch, name, field, factor):
    """The frozen estimator (or its volume term) made four times larger on
    the refined mesh than bisection leaves it fails the reduction check at
    the first refinement."""
    frozen = anfem.adaptive.estimate_frozen

    def inflated(sol, values):
        report = frozen(sol, values)
        return dataclasses.replace(
            report, **{field: factor * getattr(report, field)})

    monkeypatch.setattr(anfem.adaptive, "estimate_frozen", inflated)
    with pytest.raises(AssertionError,
                       match=f"^{name} reduction violated at step 0"):
        anfem_loop(unit_square(2), get_solution("smooth1"),
                   LoopParams(max_iterations=3))


# (domain, solution) pairs whose exact velocity is not zero on the boundary
WRONG_DOMAIN = [(l_shape, "smooth1"), (diamond, "smooth1"),
                (unit_square, "lshape_singular")]


@pytest.mark.parametrize("domain,solution", WRONG_DOMAIN)
def test_exact_solution_must_vanish_on_the_boundary(monkeypatch, domain,
                                                    solution):
    """The discrete velocity is zero on the boundary, so an exact solution
    that is not cannot be converged to: both loops and `solve` refuse it
    before any solve."""
    def no_solve(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(anfem.adaptive, "_solve_level", no_solve)
    monkeypatch.setattr(anfem.spaces, "solve_saddle", no_solve)
    load = get_solution(solution)
    with pytest.raises(ValueError, match="not zero on the boundary"):
        anfem_loop(domain(), load)
    with pytest.raises(ValueError, match="not zero on the boundary"):
        uniform_trace(domain(), load, levels=1)
    for mesh in (domain(), uniform_refine(domain(), 2)):
        with pytest.raises(ValueError, match="not zero on the boundary"):
            solve(mesh, load)


@pytest.mark.parametrize("levels", [0, -3])
def test_uniform_trace_rejects_no_levels(levels):
    with pytest.raises(ValueError, match="levels"):
        uniform_trace(unit_square(1), get_solution("smooth1"), levels)


@pytest.mark.parametrize("solution", ["smooth1", "constant"])
def test_loop_records_discrete_reliability(solution):
    # ||u_k - u_{k-1}|| + ||p_k - p_{k-1}|| <= drel eta_{k-1}(R_k), with or
    # without an exact solution; no previous level on the first record
    trace = anfem_loop(unit_square(2), get_solution(solution),
                       LoopParams(theta=0.3, max_iterations=10))
    drel = trace.column("drel")
    assert np.isnan(drel[0])
    assert np.all((drel[1:] > 0) & (drel[1:] < 1))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_loop_gates_hold_on_perturbed_meshes(data):
    """On unit_square(k) or l_shape(k), k = 1 or 2, with each interior
    vertex moved by up to 0.3 times the shortest edge and the refinement
    edges chosen anew by build_initial, the loop runs all its steps with
    the reduction check on: the divergence, Galerkin, estimator-reduction
    and volume-term gates hold at every step. The cross-level constants
    are finite from step 1 on: drel always, alpha and the quasi-orthogonality
    constants with the exact solution."""
    domain = data.draw(st.sampled_from([unit_square, l_shape]), label="domain")
    base = domain(data.draw(st.integers(1, 2), label="k"))
    interior = np.setdiff1d(np.arange(base.num_vertices),
                            base.boundary_vertices)
    radius, angle = np.array(data.draw(st.lists(
        st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 2 * np.pi)),
        min_size=len(interior), max_size=len(interior)), label="moves")).T
    vertices = base.vertices.copy()
    vertices[interior] += (base.edge_length.min() * radius[:, None]
                           * np.stack([np.cos(angle), np.sin(angle)], axis=1))
    names = ["smooth1", "constant"] if domain is unit_square else ["constant"]
    load = get_solution(data.draw(st.sampled_from(names), label="load"))
    theta = data.draw(st.floats(0.2, 0.8), label="theta")
    trace = anfem_loop(build_initial(vertices, base.triangles), load,
                       LoopParams(theta=theta, max_iterations=6))
    assert len(trace.records) == 6 and not trace.converged
    later = trace.records[1:]
    assert np.isfinite([r.drel for r in later]).all()
    if load.has_exact:
        assert np.isfinite([(r.alpha, r.qo_velocity, r.qo_pressure)
                            for r in later]).all()


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
