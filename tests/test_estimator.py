import dataclasses

import numpy as np
import pytest

from anfem.domains import l_shape, unit_square
from anfem.estimator import (consistency_error, estimate, estimate_frozen,
                             modified_eta, tangential_jumps)
from anfem.mesh import bisect, uniform_refine
from anfem.problems import constant_load, get_solution, zero_load
from anfem.spaces import cr_gradients, solve
from anfem import quadrature as quad


@pytest.fixture(scope="module")
def smooth():
    return get_solution("smooth1")


@pytest.fixture(scope="module")
def smooth_solution(smooth):
    return solve(unit_square(4), smooth)


def test_zero_solution_zero_load():
    mesh = unit_square(2)
    sol = solve(mesh, zero_load())
    report = estimate(sol, zero_load())
    assert report.total_eta_sq == 0.0
    assert report.total_osc_sq == 0.0


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
    report = estimate(solve(unit_square(3), smooth), smooth)
    assert np.all(report.osc_sq <= report.vol_sq + 1e-15)


def test_volume_terms_evaluate_load_once(smooth):
    """|g|^2 and the mean of g come from one evaluation of g, with the same
    arithmetic as integrating each on its own."""
    calls = []

    def g(x, y):
        calls.append(x.shape)
        return smooth.g(x, y)

    mesh = uniform_refine(l_shape(), 2)
    sol = solve(mesh, smooth)
    report = estimate(sol, dataclasses.replace(smooth, g=g))
    assert calls == [(mesh.num_triangles, len(quad.DEG4_WEIGHTS))]

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
    assert estimate(solve(l_shape(), load), load).total_osc_sq < 1e-13


def test_modified_eta(smooth_solution, smooth):
    report = estimate(smooth_solution, smooth)
    assert np.isclose(modified_eta(report),
                      report.total_vol_sq + report.total_eta_sq)
    assert np.isclose(modified_eta(report, 2.0),
                      2.0 * report.total_vol_sq + report.total_eta_sq)
    with pytest.raises(ValueError):
        modified_eta(report, 0.0)


def test_frozen_estimator_identity(smooth_solution, smooth):
    """Frozen on the same mesh = plain estimator."""
    mesh = smooth_solution.mesh
    rep_a = estimate(smooth_solution, smooth)
    rep_b = estimate_frozen(smooth_solution, mesh, smooth)
    assert np.array_equal(rep_a.eta, rep_b.eta)


def test_frozen_estimator_reduction(smooth_solution, smooth):
    """One bisection round reduces the frozen estimator by the paper factor."""
    mesh = smooth_solution.mesh
    fine = bisect(mesh, np.arange(mesh.num_triangles))
    coarse = estimate(smooth_solution, smooth)
    frozen = estimate_frozen(smooth_solution, fine, smooth)
    rho = 1.0 - 2.0 ** -0.5
    assert frozen.total_eta_sq <= (coarse.total_eta_sq
                                   - rho * coarse.total_eta_sq) + 1e-9


def test_consistency_error_decay(smooth):
    vals = []
    for rounds in (4, 6):
        mesh = unit_square(rounds)
        vals.append(consistency_error(smooth.stress(1.0), mesh, smooth))
    assert 1.6 < vals[0] / vals[1] < 2.4
