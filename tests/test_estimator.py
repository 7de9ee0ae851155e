import dataclasses

import numpy as np
import pytest

from anfem.adaptive import LoopParams, anfem_loop
from anfem.domains import l_shape, unit_square
from anfem.estimator import estimate, estimate_frozen, tangential_jumps
from anfem.mesh import bisect, uniform_refine
from anfem.problems import (PointValues, constant_load, get_solution,
                            lshape_singular)
from anfem.spaces import (assemble_saddle, cr_gradients, pressure_error_sq,
                          solve, velocity_error_sq)
from anfem import quadrature as quad


@pytest.fixture(scope="module")
def smooth():
    return get_solution("smooth1")


@pytest.fixture(scope="module")
def smooth_solution(smooth):
    return solve(unit_square(4), smooth)


def test_zero_solution_zero_load():
    mesh = unit_square(2)
    zero = get_solution("zero")
    sol = solve(mesh, zero)
    report = estimate(sol)
    assert not report.eta.any()
    assert not report.osc_sq.any()


def test_tangential_jump_oracle(smooth_solution, smooth):
    """Edge jumps against a brute-force two-sided evaluation."""
    mesh = smooth_solution.mesh
    grads = cr_gradients(mesh, smooth_solution.u)
    jumps = tangential_jumps(mesh, grads)
    for e in range(0, mesh.num_edges, 7):
        tau = mesh.edge_tangent[e]
        k0, k1 = mesh.edge_tris[e]
        gt0 = grads[k0] @ tau
        gt1 = np.zeros(2) if k1 < 0 else grads[k1] @ tau
        assert np.isclose(jumps[e], ((gt0 - gt1) ** 2).sum(), atol=1e-14)


def test_affine_field_no_interior_jumps():
    """Where a CR function locally equals one affine field, jumps vanish.

    Boundary edge means are fixed to zero, so only edges between two
    elements that both reproduce the affine field qualify.
    """
    mesh = uniform_refine(unit_square(2), 2)
    mids = mesh.edge_midpoints()[mesh.interior_edges]
    v = np.stack([mids[:, 1], mids[:, 0]], axis=-1).ravel()
    grads = cr_gradients(mesh, v)
    jumps = tangential_jumps(mesh, grads)
    target = np.array([[0.0, 1.0], [1.0, 0.0]])
    exact = np.array([np.allclose(g, target, atol=1e-12) for g in grads])
    for e in np.flatnonzero(~mesh.boundary_edge):
        k0, k1 = mesh.edge_tris[e]
        if exact[k0] and exact[k1]:
            assert jumps[e] < 1e-24


def test_oscillation_below_volume(smooth):
    report = estimate(solve(unit_square(3), smooth))
    assert np.all(report.osc_sq <= report.vol_sq + 1e-15)


def _counted(load, names, calls):
    """`load` with the callables `names` logging (name, points shape) to
    `calls` on each evaluation."""
    def counted(name):
        field = getattr(load, name)

        def evaluate(x, y):
            calls.append((name, np.shape(x)))
            return field(x, y)
        return evaluate

    return dataclasses.replace(load, **{name: counted(name) for name in names})


def test_volume_terms_evaluate_load_once(smooth):
    """|g|^2 and the mean of g come from one evaluation of g, with the same
    arithmetic as integrating each on its own."""
    calls = []
    mesh = unit_square(3)
    sol = solve(mesh, _counted(smooth, ("g",), calls))
    report = estimate(sol)
    assert calls == [("g", (mesh.num_triangles, len(quad.DEG4_WEIGHTS)))]

    def gsq(x, y):
        v = smooth.g(x, y)
        return np.einsum("...c,...c->...", v, v)

    g_l2sq = quad.integrate(mesh, gsq)
    g_mean = quad.integrate(mesh, smooth.g) / mesh.area[:, None]
    osc = np.maximum(
        g_l2sq - mesh.area * np.einsum("tc,tc->t", g_mean, g_mean), 0.0)
    assert np.array_equal(report.vol_sq, mesh.h ** 2 * g_l2sq)
    assert np.array_equal(report.osc_sq, mesh.h ** 2 * osc)


def test_oscillation_zero_for_constant_load():
    load = constant_load(3.0, -1.0)
    assert estimate(solve(l_shape(), load)).osc_sq.sum() < 1e-13


def test_modified_eta(smooth_solution, smooth):
    """The loop records the modified estimator
    eta~^2 = sum_K (h_K^2 ||g||_K^2 + eta_K^2) of its level's solution."""
    report = estimate(smooth_solution)
    trace = anfem_loop(smooth_solution.mesh, smooth,
                       LoopParams(max_iterations=1))
    (rec,) = trace.records
    assert rec.eta2 == report.eta_sq.sum()
    assert np.isclose(rec.eta_tilde2,
                      report.vol_sq.sum() + report.eta_sq.sum())
    assert rec.eta_tilde2 > rec.eta2 > 0.0


# the monitors of IterationRecord that carry the weights of mu
MU_WEIGHTED_MONITORS = ("lam", "alpha", "qo_velocity", "qo_pressure", "drel")


def _adaptive_run(load, check_reduction):
    trace = anfem_loop(l_shape(), load, LoopParams(
        max_iterations=20, check_reduction=check_reduction))
    mesh = trace.final_solution.mesh
    monitors = [trace.column(name) for name in MU_WEIGHTED_MONITORS]
    monitors.append(trace.column("reduction_lhs")
                    / trace.column("reduction_rhs"))
    return (list(trace.column("nelems")), mesh.triangles, mesh.vertices,
            monitors)


@pytest.mark.parametrize("mu", [1e-2, 1e2])
@pytest.mark.parametrize("make, check_reduction", [
    (lshape_singular, False),
    (lambda mu: constant_load(mu=mu), True)],
    ids=["lshape_singular", "constant_load"])
def test_marking_does_not_depend_on_the_viscosity(make, check_reduction, mu):
    """Both loads rescale with mu: lshape_singular(mu) is the mu = 1 problem
    with p and g times mu, and a constant load divides u by mu. The volume
    term's weight mu^-1 makes eta the mu = 1 estimator of the rescaled
    problem, so the 20-step loop builds the mu = 1 meshes bit for bit; the
    monitors' weights make Lambda, alpha, qo_*, drel and the reduction
    ratio those of the rescaled problem too, equal to mu = 1's up to
    rounding (NaN where mu = 1's is NaN)."""
    nelems, triangles, vertices, monitors = _adaptive_run(
        make(mu), check_reduction)
    ref_nelems, ref_triangles, ref_vertices, ref_monitors = _adaptive_run(
        make(1.0), check_reduction)
    assert nelems == ref_nelems
    assert np.array_equal(triangles, ref_triangles)
    assert np.array_equal(vertices, ref_vertices)
    for name, got, ref in zip(MU_WEIGHTED_MONITORS + ("reduction ratio",),
                              monitors, ref_monitors):
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=0,
                                   equal_nan=True, err_msg=name)


def test_frozen_estimator_identity(smooth_solution):
    """Frozen on the same mesh = plain estimator."""
    rep_a = estimate(smooth_solution)
    rep_b = estimate_frozen(smooth_solution, smooth_solution.values)
    assert np.array_equal(rep_a.eta, rep_b.eta)


def test_frozen_estimator_reduction(smooth_solution, smooth):
    """One bisection round reduces the frozen estimator by the paper factor."""
    mesh = smooth_solution.mesh
    fine = bisect(mesh, np.arange(mesh.num_triangles))
    coarse = estimate(smooth_solution)
    frozen = estimate_frozen(smooth_solution, PointValues(fine, smooth))
    rho = 1.0 - 2.0 ** -0.5
    coarse_sq = coarse.eta_sq.sum()
    assert frozen.eta_sq.sum() <= (coarse_sq - rho * coarse_sq) + 1e-9


def test_solution_functionals_share_one_evaluation(smooth):
    """After one solve, the estimator and both error norms evaluate g,
    grad u and p once each, at the degree-4 points: the load vector and
    every functional read the solution's record."""
    calls = []
    mesh = unit_square(3)
    sol = solve(mesh, _counted(smooth, ("g", "grad_velocity", "pressure"),
                               calls))
    estimate(sol)
    velocity_error_sq(sol)
    pressure_error_sq(sol)
    points = (mesh.num_triangles, len(quad.DEG4_WEIGHTS))
    assert calls == [("g", points), ("grad_velocity", points),
                     ("pressure", points)]


def test_records_of_another_mesh_or_load_are_rejected(smooth):
    mesh = unit_square(2)
    other = get_solution("smooth1")
    with pytest.raises(ValueError, match="another mesh or load"):
        assemble_saddle(mesh, smooth,
                        values=PointValues(unit_square(2), smooth))
    with pytest.raises(ValueError, match="another mesh or load"):
        assemble_saddle(mesh, smooth, values=PointValues(mesh, other))
    sol = solve(mesh, smooth)
    fine = bisect(mesh, np.arange(mesh.num_triangles))
    with pytest.raises(ValueError, match="another load"):
        estimate_frozen(sol, PointValues(fine, other))
