"""Inter-mesh operators: conservative interpolation, restriction, the naive
prolongation, nodal averaging onto conforming P1, and the mixed prolongation
that switches between averaging on the refined region and identity elsewhere.
"""

from __future__ import annotations

import numpy as np

from . import quadrature as quad
from .estimator import element_jump_sq
from .mesh import (MeshError, NestingSets, Triangulation, barycentric,
                   descent_maps)
from .spaces import cr_element_coeffs, cr_gradients, edge_values


# ---------------------------------------------------------------------------
# conservative interpolation


def conservative_interpolation(field, mesh: Triangulation) -> np.ndarray:
    """CR coefficients: the interior edge means of `field`, 10-point Gauss."""
    # point-major (10, n_interior, 2): the sum adds point by point, in order
    pts = quad.edge_points(mesh, quad.EDGE_NODES, mesh.interior_edges)
    return (quad.EDGE_WEIGHTS[:, None, None]
            * field(pts[..., 0], pts[..., 1])).sum(0).ravel()


# ---------------------------------------------------------------------------
# genealogy of a nested pair


def _descent(coarse: Triangulation, fine: Triangulation,
             ancestors: np.ndarray | None = None):
    """`descent_maps(coarse, fine)`: the (ancestor, coarse edge) maps of the
    fine elements and edges.  A given `ancestors` must match them."""
    anc, coarse_edge = descent_maps(coarse, fine)
    if ancestors is not None and not np.array_equal(ancestors, anc):
        raise MeshError("ancestors do not match the mesh genealogy")
    return anc, coarse_edge


def _cr_eval(coarse: Triangulation, coeffs_elem: np.ndarray, elems,
             points) -> np.ndarray:
    """CR field with element coefficients `coeffs_elem` at points[i] in
    element elems[i]."""
    basis = 1.0 - 2.0 * barycentric(coarse, elems, points)
    return quad.combine3(basis, coeffs_elem.take(elems, axis=0))


# ---------------------------------------------------------------------------
# restriction to a coarser mesh


def restriction(v_fine: np.ndarray, fine: Triangulation,
                coarse: Triangulation,
                ancestors: np.ndarray | None = None) -> np.ndarray:
    """Coarse CR function whose edge integrals are the summed fine-edge
    integrals of v_fine."""
    _, coarse_edge = _descent(coarse, fine, ancestors)
    fmeans = edge_values(fine, v_fine)

    on = coarse_edge >= 0
    ce, length = coarse_edge[on], fine.edge_length[on]
    integrals = np.stack([np.bincount(ce, fmeans[on, c] * length,
                                      minlength=coarse.num_edges)
                          for c in range(2)], axis=1)
    covered = np.bincount(ce, length, minlength=coarse.num_edges)
    if np.any(np.abs(covered - coarse.edge_length) >
              1e-9 * coarse.edge_length):
        raise MeshError("fine edges do not tile the coarse edges; "
                        "meshes are not nested")
    means = integrals / coarse.edge_length[:, None]
    return means[coarse.interior_edges].ravel()


# ---------------------------------------------------------------------------
# naive prolongation I'


def naive_prolongation(v_coarse: np.ndarray, coarse: Triangulation,
                       fine: Triangulation,
                       ancestors: np.ndarray | None = None) -> np.ndarray:
    """Each fine-edge mean is the average of the one-sided coarse traces of
    its patch: the coarse elements at the coarse edge the fine edge lies on,
    or else the one coarse element it lies inside."""
    anc, coarse_edge = _descent(coarse, fine, ancestors)
    coeffs_elem = cr_element_coeffs(coarse, v_coarse)
    interior = fine.interior_edges
    host = np.full((len(interior), 2), -1, dtype=np.int64)
    host[:, 0] = anc[fine.edge_tris[interior, 0]]
    on = coarse_edge[interior] >= 0
    host[on] = coarse.edge_tris[coarse_edge[interior[on]]]
    mids = fine.edge_midpoints()[interior]
    out = _cr_eval(coarse, coeffs_elem, host[:, 0], mids)
    two = host[:, 1] >= 0
    out[two] = 0.5 * (out[two] + _cr_eval(coarse, coeffs_elem,
                                          host[two, 1], mids[two]))
    return out.ravel()


# ---------------------------------------------------------------------------
# nodal averaging onto the conforming P1 space


def nodal_averaging(v: np.ndarray, mesh: Triangulation) -> np.ndarray:
    """Average the one-sided vertex values; zero at boundary vertices.

    Returns (2 * nv,) nodal values of a continuous piecewise linear field.
    """
    # one-sided values psi_i = 1 - 2 lambda_i at the corners, (3, nt, 2),
    # onto dof 2 * vertex + c, corner by corner, then element by element
    c0, c1, c2 = cr_element_coeffs(mesh, v).transpose(1, 0, 2)
    vv = np.stack([c1 - c0 + c2, c0 - c1 + c2, c0 + c1 - c2])
    dof = 2 * mesh.triangles.T[..., None] + np.arange(2)
    sums = np.bincount(dof.ravel(), vv.ravel(),
                       minlength=2 * mesh.num_vertices).reshape(-1, 2)
    counts = np.bincount(mesh.triangles.ravel(), minlength=len(sums))
    nodal = sums / np.maximum(counts, 1.0)[:, None]
    nodal[mesh.boundary_vertices] = 0.0
    return nodal.ravel()


def p1_eval(nodal: np.ndarray, mesh: Triangulation, elems,
            points) -> np.ndarray:
    """P1 nodal field at points[i] in element elems[i]."""
    lam = barycentric(mesh, elems, points)
    return quad.combine3(lam, nodal.reshape(-1, 2).take(mesh.triangles[elems],
                                                        axis=0))


# ---------------------------------------------------------------------------
# mixed prolongation J


def mixed_prolongation(v_coarse: np.ndarray, coarse: Triangulation,
                       fine: Triangulation,
                       nesting: NestingSets) -> np.ndarray:
    """Averaged values on the refined region, identity on the common region.

    Per fine interior edge: if any incident fine element descends from a
    refined coarse element (the edge lies in the refined region or on the
    boundary of the common region), take the edge mean of the averaged
    conforming field; otherwise keep the coarse edge mean.
    """
    anc, coarse_edge = _descent(coarse, fine, nesting.ancestors)
    refined_mask = np.zeros(coarse.num_triangles, dtype=bool)
    refined_mask[nesting.refined] = True

    interior = fine.interior_edges
    k0, k1 = anc[fine.edge_tris[interior]].T
    avg = refined_mask[k0] | refined_mask[k1]
    out = np.empty((len(interior), 2))
    # an edge between two common elements is a coarse edge: keep its mean
    out[~avg] = edge_values(coarse, v_coarse)[coarse_edge[interior[~avg]]]
    nodal = nodal_averaging(v_coarse, coarse)
    out[avg] = p1_eval(nodal, coarse, k0[avg],
                       fine.edge_midpoints()[interior[avg]])
    return out.ravel()


# ---------------------------------------------------------------------------
# empirical constants for the prolongation bounds


def prolongation_defect_constant(coarse: Triangulation, fine: Triangulation,
                                 v_coarse: np.ndarray,
                                 nesting: NestingSets,
                                 operator: str = "mixed") -> float:
    """||grad(P v - v)||^2 over the jump estimator on the refined neighborhood.

    P is the mixed prolongation for operator="mixed", the naive one for
    operator="naive".
    """
    if operator == "mixed":
        pv = mixed_prolongation(v_coarse, coarse, fine, nesting)
    elif operator == "naive":
        pv = naive_prolongation(v_coarse, coarse, fine, nesting.ancestors)
    else:
        raise ValueError("operator must be 'mixed' or 'naive'")
    Gc = cr_gradients(coarse, v_coarse)
    diff = cr_gradients(fine, pv) - Gc[nesting.ancestors]
    num = float((fine.area * np.einsum("tij,tij->t", diff, diff)).sum())
    jumps = element_jump_sq(coarse, Gc)
    den = float(jumps[nesting.neighborhood].sum())
    if den == 0.0:
        return 0.0 if num < 1e-24 else np.inf
    return num / den
