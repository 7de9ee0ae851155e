import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anfem.counterexample import p1_gradients
from anfem.domains import l_shape, unit_square
from anfem.mesh import MeshError, bisect, descent_maps, nesting_sets
from anfem.problems import get_solution
from anfem.spaces import cr_gradients, num_velocity_dofs, solve
from anfem.transfer import (conservative_interpolation, mixed_prolongation,
                            naive_prolongation, nodal_averaging,
                            prolongation_defect_constant, restriction)
from oracles import edge_means_of_field, p1_to_cr


def random_smooth_field(rng):
    a = rng.normal(size=(2, 6))

    def field(x, y):
        basis = np.stack([np.ones_like(x), x, y, x * y,
                          np.sin(2 * x), np.cos(2 * y)], axis=-1)
        return np.stack([basis @ a[0], basis @ a[1]], axis=-1)

    return field


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_conservative_interpolation_preserves_means(seed):
    rng = np.random.default_rng(seed)
    field = random_smooth_field(rng)
    mesh = unit_square(rng.integers(1, 4))
    v = conservative_interpolation(field, mesh)
    oracle = edge_means_of_field(field, mesh)[mesh.interior_edges]
    assert np.abs(v.reshape(-1, 2) - oracle).max() < 1e-12


def test_classify_fine_edges():
    coarse = unit_square(1)
    fine = bisect(coarse, np.arange(coarse.num_triangles))
    coarse_edge = descent_maps(coarse, fine)[1]
    mids = fine.edge_midpoints()
    for e in np.flatnonzero(coarse_edge >= 0):
        # the fine edge midpoint sits on the named coarse edge
        a, b = coarse.vertices[coarse.edges[coarse_edge[e]]]
        cross = (b - a)[0] * (mids[e] - a)[1] - (b - a)[1] * (mids[e] - a)[0]
        assert abs(cross) < 1e-12


def test_restriction_inverts_naive_prolongation():
    """Fine edges tile the coarse edges and the naive prolongation keeps
    the linear coarse traces, so restriction gives v back."""
    coarse = unit_square(3)
    fine = coarse
    for _ in range(3):
        fine = bisect(fine, np.arange(0, fine.num_triangles, 5))
    v = np.random.default_rng(4).normal(size=num_velocity_dofs(coarse))
    pv = naive_prolongation(v, coarse, fine)
    assert np.abs(restriction(pv, fine, coarse) - v).max() < 1e-13


def test_restriction_inverts_means():
    """Restriction recovers coarse edge means of a conservatively
    interpolated smooth field (edge integrals are additive)."""
    rng = np.random.default_rng(42)
    field = random_smooth_field(rng)
    coarse = unit_square(2)
    fine = bisect(coarse, np.arange(coarse.num_triangles))
    v_fine = conservative_interpolation(field, fine)
    v_restr = restriction(v_fine, fine, coarse)
    v_coarse = conservative_interpolation(field, coarse)
    assert np.abs(v_restr - v_coarse).max() < 1e-12


def test_restriction_rejects_non_nested():
    v = np.zeros(num_velocity_dofs(l_shape()))
    with pytest.raises(MeshError):
        restriction(v, l_shape(), unit_square(1))


def test_nodal_averaging_is_conforming():
    mesh = unit_square(3)
    rng = np.random.default_rng(1)
    v = rng.normal(size=num_velocity_dofs(mesh))
    nodal = nodal_averaging(v, mesh).reshape(-1, 2)
    assert np.abs(nodal[mesh.boundary_vertices]).max() == 0.0
    # vertex values of the averaged field agree across elements by definition;
    # interpolating back to CR gives midpoints of a continuous function
    w = p1_to_cr(nodal.ravel(), mesh)
    e = mesh.edges[mesh.interior_edges]
    expect = 0.5 * (nodal[e[:, 0]] + nodal[e[:, 1]])
    assert np.allclose(w.reshape(-1, 2), expect)


def test_p1_gradients_oracle():
    mesh = unit_square(2)
    nodal = np.stack([mesh.vertices[:, 0] * 2 - mesh.vertices[:, 1],
                      mesh.vertices[:, 1] * 3], axis=-1).ravel()
    G = p1_gradients(nodal, mesh)
    assert np.allclose(G[:, 0], [2.0, -1.0])
    assert np.allclose(G[:, 1], [0.0, 3.0])


def test_identity_when_no_refinement():
    mesh = unit_square(2)
    rng = np.random.default_rng(9)
    v = rng.normal(size=num_velocity_dofs(mesh))
    ns = nesting_sets(mesh, mesh)
    pv = mixed_prolongation(v, mesh, mesh, ns)
    assert np.allclose(pv, v, atol=1e-12)


def test_mixed_prolongation_exact_on_conforming():
    """J reproduces continuous P1 fields that vanish on the boundary, so the
    defect constant is zero for them."""
    coarse = unit_square(3)
    fine = bisect(coarse, np.flatnonzero(
        np.arange(coarse.num_triangles) % 3 == 0))
    nodal = np.zeros((coarse.num_vertices, 2))
    interior = np.setdiff1d(np.arange(coarse.num_vertices),
                            coarse.boundary_vertices)
    rng = np.random.default_rng(2)
    nodal[interior] = rng.normal(size=(len(interior), 2))
    v = p1_to_cr(nodal.ravel(), coarse)
    ns = nesting_sets(coarse, fine)
    pv = mixed_prolongation(v, coarse, fine, ns)
    Gp = cr_gradients(fine, pv)
    Gc = cr_gradients(coarse, v)[ns.ancestors]
    assert np.abs(Gp - Gc).max() < 1e-10


def test_naive_prolongation_averages_traces():
    coarse = unit_square(2)
    fine = bisect(coarse, np.array([0]))
    v = np.zeros(num_velocity_dofs(coarse))
    v[0] = 1.0
    pv = naive_prolongation(v, coarse, fine)
    assert np.isfinite(pv).all()
    assert np.abs(pv).max() > 0


def test_transfer_operators_reject_stale_genealogy():
    """Two pairs of the same size from different refinements: each operator
    checks the genealogy it is given against its own pair."""
    coarse = unit_square(2)
    f1, f2 = bisect(coarse, [0]), bisect(coarse, [5])
    assert f1.num_triangles == f2.num_triangles == 10
    stale = nesting_sets(coarse, f1)
    v = np.random.default_rng(0).normal(size=num_velocity_dofs(coarse))
    for call in (
            lambda: naive_prolongation(v, coarse, f2, stale.ancestors),
            lambda: mixed_prolongation(v, coarse, f2, stale),
            lambda: prolongation_defect_constant(coarse, f2, v, stale),
            lambda: restriction(naive_prolongation(v, coarse, f2), f2,
                                coarse, stale.ancestors)):
        with pytest.raises(MeshError, match="genealogy"):
            call()


def test_restriction_rejects_fine_edges_that_do_not_tile():
    """A genealogy that puts every fine edge inside a coarse element leaves
    the coarse edges uncovered."""
    coarse = unit_square(1)
    fine = bisect(coarse, [0])
    token, parent, edge_parent = fine.lineage[0]
    fine.lineage = ((token, parent, np.full_like(edge_parent, -1)),)
    with pytest.raises(MeshError, match="do not tile"):
        restriction(np.zeros(num_velocity_dofs(fine)), fine, coarse)


def test_defect_constant_of_zero_is_zero():
    # v = 0 has no jumps, so the quotient is 0 / 0, read as 0
    coarse = unit_square(2)
    fine = bisect(coarse, np.array([0, 1]))
    ns = nesting_sets(coarse, fine)
    v = np.zeros(num_velocity_dofs(coarse))
    for op in ("mixed", "naive"):
        assert prolongation_defect_constant(coarse, fine, v, ns,
                                            operator=op) == 0.0


def test_defect_constant_nonnegative_finite():
    coarse = unit_square(2)
    fine = bisect(coarse, np.array([0, 1]))
    load = get_solution("smooth1")
    v = solve(coarse, load).u
    ns = nesting_sets(coarse, fine)
    for op in ("mixed", "naive"):
        c = prolongation_defect_constant(coarse, fine, v, ns, operator=op)
        assert np.isfinite(c) and c >= 0
    with pytest.raises(ValueError):
        prolongation_defect_constant(coarse, fine, v, ns, operator="bogus")

