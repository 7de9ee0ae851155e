import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anfem.adaptive import LoopParams, anfem_loop
from anfem.domains import diamond, l_shape, unit_square
from anfem.mesh import bisect, uniform_refine
from anfem.problems import (LoadFunction, constant_load, get_solution,
                            lshape_singular, smooth1)
from anfem.spaces import (SolverError, assemble_saddle, broken_grad_norm_sq,
                          cr_gradients, edge_values, element_dofs,
                          galerkin_residual, max_element_divergence,
                          num_velocity_dofs, pressure_error_sq, solve,
                          solve_saddle, velocity_error_sq)
from anfem import quadrature as quad, spaces
from oracles import (multiplier_solve, pointwise_exact_terms,
                     reference_assembly)


@pytest.fixture(scope="module")
def smooth():
    return get_solution("smooth1")


def test_dof_count():
    mesh = unit_square(1)
    ni = len(mesh.interior_edges)
    assert num_velocity_dofs(mesh) == 2 * ni
    u = np.arange(2.0 * ni) + 1.0
    vals = edge_values(mesh, u)
    assert vals.shape == (mesh.num_edges, 2)
    assert not vals[mesh.boundary_edge].any()
    assert np.array_equal(vals[mesh.interior_edges].ravel(), u)
    # the element map reads the same layout: -1 exactly on boundary edges
    edof = element_dofs(mesh)
    assert edof.shape == (mesh.num_triangles, 3, 2)
    assert np.array_equal(np.where(edof >= 0, u[edof], 0.0),
                          vals[mesh.tri_edges])


def test_stiffness_spd():
    mesh = unit_square(2)
    A = assemble_saddle(mesh, get_solution("zero")).A.toarray()
    assert np.allclose(A, A.T)
    w = np.linalg.eigvalsh(A)
    assert w.min() > 0


def test_zero_load_zero_solution():
    # the first iterate is exactly divergence-free, so the second step's
    # equal divergence stops the iteration
    sol = solve(unit_square(2), get_solution("zero"))
    assert not sol.u.any() and not sol.p.any()
    assert sol.iterations <= 2


@pytest.mark.parametrize("mu", [float("nan"), float("inf")])
def test_assemble_rejects_bad_viscosity(mu):
    # the viscosity reaches assembly only through the load, which rejects
    # it; a positional viscosity after the load is not a parameter any more
    with pytest.raises(ValueError, match="viscosity"):
        assemble_saddle(unit_square(1), get_solution("zero", mu))
    with pytest.raises(TypeError):
        assemble_saddle(unit_square(1), get_solution("zero"), mu)


def test_stiffness_scales_with_the_load_viscosity():
    """A is assembled with the load's own mu: doubling mu doubles every
    entry exactly (a power of 2), and B and F do not move."""
    mesh = unit_square(3)
    one, two = (assemble_saddle(mesh, smooth1(mu)) for mu in (1.0, 2.0))
    assert np.array_equal(two.A.indptr, one.A.indptr)
    assert np.array_equal(two.A.indices, one.A.indices)
    assert np.array_equal(two.A.data, 2 * one.A.data)
    assert (two.B != one.B).nnz == 0


def test_non_finite_load_raises_solver_error():
    system = assemble_saddle(unit_square(2), get_solution("zero"))
    system.F[3] = np.nan
    with pytest.raises(SolverError):
        solve_saddle(system)


def corner_graded_l_shape(rounds=20, refine_rounds=0):
    """`l_shape(refine_rounds)` with the elements at the reentrant corner
    bisected `rounds` times: element sizes shrink by 2^(-rounds/2)."""
    mesh = l_shape(refine_rounds)
    for _ in range(rounds):
        at_corner = (mesh.vertices[mesh.triangles] == 0.0).all(-1).any(-1)
        mesh = bisect(mesh, np.flatnonzero(at_corner))
    return mesh


@pytest.mark.parametrize("mu", [1e-3, 1.0, 1e3])
def test_solve_on_corner_graded_mesh(mu):
    """The solver's gates hold (`solve_saddle` raises otherwise) and the
    solution matches the multiplier solve relative to its max-norm, across
    six decades of viscosity."""
    mesh = corner_graded_l_shape()
    system = assemble_saddle(mesh, lshape_singular(mu))
    sol = solve_saddle(system)
    assert 1 <= sol.iterations <= 5
    assert sol.residual <= 1e-10 and sol.lu_fill >= system.A.nnz
    u, p = multiplier_solve(system.A, system.B, system.F, mesh.area)
    assert np.abs(sol.u - u).max() <= 1e-13 * np.abs(u).max()
    assert np.abs(sol.p - p).max() <= 1e-13 * np.abs(p).max()


def test_divergence_gate_scales_with_each_element():
    """On corner elements of area 1e-25 the divergence's round-off is far
    above 1e-10 (1 + ||grad_h u||), the global bound the gate used before,
    but stays near 1e-14 of each element's own gradient: the per-element
    gate passes the accurate solve that the global one rejected."""
    mesh = corner_graded_l_shape(rounds=80, refine_rounds=2)
    assert mesh.num_triangles == 504 and mesh.area.min() < 1e-24
    load = lshape_singular()
    system = assemble_saddle(mesh, load)
    sol = solve_saddle(system)
    assert sol.residual <= 1e-10
    gn = np.sqrt(broken_grad_norm_sq(mesh, sol.u))
    assert max_element_divergence(sol) > 1e-10 * (1.0 + gn)
    G = sol.grads
    assert np.array_equal(G, cr_gradients(mesh, sol.u))
    ratio = np.abs(G[:, 0, 0] + G[:, 1, 1]) / (1.0 + np.abs(G).max(
        axis=(1, 2)))
    assert ratio.max() < 1e-13


@pytest.mark.parametrize(
    "mesh,load", [(unit_square(3), smooth1()),
                  (corner_graded_l_shape(), lshape_singular())],
    ids=["unit_square3", "corner_graded_l_shape"])
def test_solve_cost(mesh, load, monkeypatch):
    """One factorization and iterations + 1 solves with it: one per Uzawa
    step and one closing refinement step."""
    factors, solves = [], []
    spd_factor = spaces.spd_factor

    def counting_factor(M):
        lu = spd_factor(M)
        factors.append(M.shape)

        class Counted:
            nnz = lu.nnz

            def solve(self, rhs):
                solves.append(len(rhs))
                return lu.solve(rhs)
        return Counted()

    monkeypatch.setattr(spaces, "spd_factor", counting_factor)
    sol = solve(mesh, load)
    assert len(factors) == 1
    assert len(solves) == sol.iterations + 1


def test_solve_holds_no_copy_of_its_factor():
    """At 24 576 L-shape elements the arrays `solve_saddle` allocates peak
    below 8 bytes per stored factor entry (SuperLU's own storage is not
    traced): one copy of K and the iterates fit, a CSC copy of L and U,
    at 12 bytes per entry, does not."""
    system = assemble_saddle(uniform_refine(l_shape(), 12),
                             lshape_singular())
    tracemalloc.start()
    try:
        sol = solve_saddle(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * sol.lu_fill, (peak, sol.lu_fill)


def test_load_evaluated_once_per_edge(smooth):
    mesh = l_shape(2)
    calls = []

    def g(x, y):
        calls.append(np.size(x))
        return smooth.g(x, y)

    assemble_saddle(mesh, LoadFunction(g=g))
    assert calls == [mesh.num_edges]


def test_divergence_free_and_galerkin(smooth):
    for rounds in (2, 3, 4):
        mesh = unit_square(rounds)
        system = assemble_saddle(mesh, smooth)
        sol = solve_saddle(system)
        gn = np.sqrt(broken_grad_norm_sq(mesh, sol.u))
        assert max_element_divergence(sol) <= 1e-10 * (1.0 + gn)
        assert galerkin_residual(system, sol) <= 1e-10


def test_pressure_zero_mean(smooth):
    sol = solve(unit_square(3), smooth)
    assert abs(sol.mesh.area @ sol.p) < 1e-13


def test_constant_load_is_pressure_gradient():
    """A constant body force is the gradient of a linear pressure, so the
    exact velocity is zero; the discrete one converges to zero."""
    errs = []
    for rounds in (3, 5, 7):
        sol = solve(unit_square(rounds), constant_load(1.0, 2.0))
        errs.append(np.sqrt(broken_grad_norm_sq(sol.mesh, sol.u)))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 0.4 * errs[0]


def test_first_order_velocity_convergence(smooth):
    errs = []
    for rounds in (3, 5, 7):
        sol = solve(unit_square(rounds), smooth)
        errs.append(np.sqrt(velocity_error_sq(sol)))
    # h halves between entries
    assert 1.6 < errs[0] / errs[1] < 2.4
    assert 1.7 < errs[1] / errs[2] < 2.3


def test_pressure_convergence(smooth):
    errs = []
    for rounds in (3, 5, 7):
        sol = solve(unit_square(rounds), smooth)
        errs.append(np.sqrt(pressure_error_sq(sol)))
    assert errs[2] < errs[1] < errs[0]


@pytest.mark.parametrize("case", ["smooth1", "lshape_singular"])
def test_exact_functionals_match_pointwise_reference(case):
    """The error norms and the integrals of grad u and p the
    quasi-orthogonality monitors read, all from the record's per-element
    integrals, equal the rule applied point by point to 1e-12 relative: on
    a uniform mesh, and on the corner-graded mesh of 12 L-shape loop
    steps."""
    if case == "smooth1":
        sol = solve(unit_square(3), smooth1())
    else:
        sol = anfem_loop(l_shape(), lshape_singular(), LoopParams(
            theta=0.3, max_iterations=12,
            check_reduction=False)).final_solution
    err_u2, err_p2, grad_int, p_int = pointwise_exact_terms(sol)
    moments = sol.values.moments
    for got, ref in ((velocity_error_sq(sol), err_u2),
                     (pressure_error_sq(sol), err_p2),
                     (moments["grad_velocity"], grad_int),
                     (moments["pressure"], p_int)):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_edge_rule_is_ten_point_gauss_legendre():
    """The fixed edge table is numpy's 10-point Gauss-Legendre rule mapped
    to [0, 1], bit for bit."""
    x, w = np.polynomial.legendre.leggauss(10)
    assert np.array_equal(quad.EDGE_NODES, 0.5 * (x + 1.0))
    assert np.array_equal(quad.EDGE_WEIGHTS, 0.5 * w)


def test_cr_values_edge_mean_property():
    """The CR basis reproduces coefficients as interior-edge means."""
    from anfem.mesh import barycentric
    from anfem.spaces import cr_element_coeffs
    mesh = unit_square(2)
    rng = np.random.default_rng(7)
    u = rng.normal(size=num_velocity_dofs(mesh))
    coeffs = cr_element_coeffs(mesh, u)
    s, w = quad.EDGE_NODES, quad.EDGE_WEIGHTS
    vals = u.reshape(-1, 2)
    for idx, e in enumerate(mesh.interior_edges[:10]):
        k = mesh.edge_tris[e, 0]
        p0 = mesh.vertices[mesh.edges[e, 0]]
        p1 = mesh.vertices[mesh.edges[e, 1]]
        pts = np.outer(1 - s, p0) + np.outer(s, p1)
        acc = np.zeros(2)
        for wt, pt in zip(w, pts):
            lam = barycentric(mesh, k, pt)
            acc += wt * (1.0 - 2.0 * lam) @ coeffs[k]
        assert np.allclose(acc, vals[idx], atol=1e-12)


def test_solver_determinism(smooth):
    mesh = unit_square(3)
    a = solve(mesh, smooth)
    b = solve(mesh, smooth)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.p, b.p)


def test_factorization_failure_raises_solver_error(monkeypatch, smooth):
    def failing(matrix):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spaces, "spd_factor", failing)
    with pytest.raises(SolverError, match="factorization failed"):
        solve(unit_square(2), smooth)


def test_solve_gates_the_divergence(monkeypatch, smooth):
    """`solve` and a direct `solve_saddle` call run the divergence gate:
    gradients shifted by 1e-6 I give every element a divergence of 2e-6."""
    grads = spaces.cr_gradients
    monkeypatch.setattr(spaces, "cr_gradients",
                        lambda mesh, u: grads(mesh, u) + 1e-6 * np.eye(2))
    mesh = unit_square(2)
    for run in (lambda: solve(mesh, smooth),
                lambda: solve_saddle(assemble_saddle(mesh, smooth))):
        with pytest.raises(SolverError, match="discrete divergence too large"):
            run()


def test_uzawa_step_cap_raises_solver_error(monkeypatch, smooth):
    # one step cannot show that the divergence stopped halving
    monkeypatch.setattr(spaces, "MAX_UZAWA_STEPS", 1)
    with pytest.raises(SolverError, match="still converging after 1 steps"):
        solve(unit_square(2), smooth)


def test_singular_system_rejected():
    # a single triangle has no interior edges
    from anfem.mesh import build_initial
    tri = build_initial(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                        np.array([[0, 1, 2]]))
    with pytest.raises(SolverError):
        solve(tri, get_solution("zero"))


def test_residual_scaling_under_refinement(smooth):
    """Galerkin residual stays at solver precision as the mesh grows."""
    for mesh in (unit_square(3), uniform_refine(unit_square(3), 2)):
        system = assemble_saddle(mesh, smooth)
        sol = solve_saddle(system)
        assert galerkin_residual(system, sol) < 1e-11


def check_against_references(mesh, load):
    """Assembly equals the masked per-element reference bit for bit, the
    rows of B sum to exactly zero (so ker B^T is the constants and the zero
    mean shift changes no residual), and the solve equals the
    Lagrange-multiplier solve."""
    system = assemble_saddle(mesh, load)
    A, B, F = reference_assembly(mesh, load)
    for got, ref in ((system.A, A), (system.B, B)):
        assert got.shape == ref.shape and got.nnz == ref.nnz
        assert np.array_equal(got.toarray(), ref.toarray())
    assert np.array_equal(system.F, F)
    assert not np.any(np.ones(mesh.num_triangles) @ system.B)
    sol = solve_saddle(system)
    u, p = multiplier_solve(A, B, F, mesh.area)
    assert np.abs(sol.u - u).max() <= 1e-12
    assert np.abs(sol.p - p).max() <= 1e-10


@pytest.mark.parametrize(
    "mesh", [l_shape(2), unit_square(3), corner_graded_l_shape()],
    ids=["l_shape2", "unit_square3", "corner_graded_l_shape"])
def test_assembly_and_solve_match_references(mesh, smooth):
    check_against_references(mesh, smooth)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_assembly_and_solve_match_references_on_nvb_chains(data):
    mesh = data.draw(st.sampled_from(
        [unit_square(1), l_shape(), diamond()]), label="domain")
    for _ in range(data.draw(st.integers(1, 4), label="rounds")):
        nt = mesh.num_triangles
        mesh = bisect(mesh, data.draw(st.lists(
            st.integers(0, nt - 1), min_size=1, max_size=nt), label="marked"))
    check_against_references(mesh, get_solution("smooth1"))
