"""Inter-mesh operators: conservative interpolation, restriction, the naive
prolongation, nodal averaging onto conforming P1, and the mixed prolongation
that switches between averaging on the refined region and identity elsewhere.
"""

from __future__ import annotations

import numpy as np

from . import quadrature as quad
from .estimator import _element_jump_sq
from .mesh import (MeshError, NestingSets, Triangulation, barycentric,
                   descent_maps, nesting_sets)
from .spaces import (cr_element_coeffs, cr_gradients, cr_vertex_values,
                     edge_values)


# ---------------------------------------------------------------------------
# conservative interpolation


def conservative_interpolation(field, mesh: Triangulation,
                               npts: int = 10) -> np.ndarray:
    """CR coefficients with the same edge means as `field` (interior edges)."""
    return edge_means_of_field(field, mesh, npts)[mesh.interior_edges].ravel()


def edge_means_of_field(field, mesh: Triangulation, npts: int = 16):
    """(ne, 2) edge means of a field, by npts-point Gauss rules."""
    s, w = quad.gauss_edge(npts)
    p0 = mesh.vertices[mesh.edges[:, 0]]
    p1 = mesh.vertices[mesh.edges[:, 1]]
    pts = p0[:, None, :] * (1.0 - s)[None, :, None] \
        + p1[:, None, :] * s[None, :, None]
    vals = field(pts[..., 0], pts[..., 1])
    return np.einsum("q,eqc->ec", w, vals)


# ---------------------------------------------------------------------------
# classification of fine edges relative to a coarse mesh


def classify_fine_edges(coarse: Triangulation, fine: Triangulation,
                        ancestors: np.ndarray | None = None):
    """For each fine edge: the coarse elements of its patch omega_{E,k}.

    Returns (host, coarse_edge) from bisect's genealogy: coarse_edge[e] is
    the coarse edge the fine edge lies on (-1 if the edge is interior to a
    single coarse element) and host[e] the one or two coarse elements of its
    patch, padded with -1.  A given `ancestors` must match the genealogy.
    """
    anc, coarse_edge = descent_maps(coarse, fine)
    if ancestors is not None and not np.array_equal(ancestors, anc):
        raise MeshError("ancestors do not match the mesh genealogy")
    host = np.full((fine.num_edges, 2), -1, dtype=np.int64)
    host[:, 0] = anc[fine.edge_tris[:, 0]]
    on = coarse_edge >= 0
    host[on] = coarse.edge_tris[coarse_edge[on]]
    return host, coarse_edge


def _cr_eval(coarse: Triangulation, coeffs_elem: np.ndarray, elems,
             points) -> np.ndarray:
    """CR field with element coefficients `coeffs_elem` at points[i] in
    element elems[i]."""
    basis = 1.0 - 2.0 * barycentric(coarse, elems, points)
    return np.einsum("...i,...ic->...c", basis, coeffs_elem[elems])


# ---------------------------------------------------------------------------
# restriction to a coarser mesh


def restriction(v_fine: np.ndarray, fine: Triangulation,
                coarse: Triangulation,
                ancestors: np.ndarray | None = None) -> np.ndarray:
    """Coarse CR function whose edge integrals are the summed fine-edge
    integrals of v_fine."""
    _, coarse_edge = classify_fine_edges(coarse, fine, ancestors)
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
    """Fine-edge means set to the patch average of the one-sided coarse traces."""
    host, _ = classify_fine_edges(coarse, fine, ancestors)
    coeffs_elem = cr_element_coeffs(coarse, v_coarse)
    interior = fine.interior_edges
    host = host[interior]
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
    vv = cr_vertex_values(mesh, v)                  # (nt, 3, 2)
    sums = np.zeros((mesh.num_vertices, 2))
    counts = np.zeros(mesh.num_vertices)
    for i in range(3):
        np.add.at(sums, mesh.triangles[:, i], vv[:, i])
        np.add.at(counts, mesh.triangles[:, i], 1.0)
    nodal = sums / np.maximum(counts, 1.0)[:, None]
    nodal[mesh.boundary_vertices] = 0.0
    return nodal.ravel()


def p1_eval(nodal: np.ndarray, mesh: Triangulation, elems,
            points) -> np.ndarray:
    """P1 nodal field at points[i] in element elems[i]."""
    lam = barycentric(mesh, elems, points)
    return np.einsum("...i,...ic->...c", lam,
                     nodal.reshape(-1, 2)[mesh.triangles[elems]])


def p1_gradients(nodal: np.ndarray, mesh: Triangulation) -> np.ndarray:
    """(nt, 2, 2) gradients of a P1 nodal field."""
    vals = nodal.reshape(-1, 2)[mesh.triangles]     # (nt, 3, 2)
    return np.einsum("tic,tid->tcd", vals, mesh.bary_grads)


# ---------------------------------------------------------------------------
# mixed prolongation J


def mixed_prolongation(v_coarse: np.ndarray, coarse: Triangulation,
                       fine: Triangulation,
                       nesting: NestingSets | None = None) -> np.ndarray:
    """Averaged values on the refined region, identity on the common region.

    Per fine interior edge: if any incident fine element descends from a
    refined coarse element (the edge lies in the refined region or on the
    boundary of the common region), take the edge mean of the averaged
    conforming field; otherwise keep the coarse edge mean.
    """
    if nesting is None:
        nesting = nesting_sets(coarse, fine)
    refined_mask = np.zeros(coarse.num_triangles, dtype=bool)
    refined_mask[nesting.refined] = True

    interior = fine.interior_edges
    k0, k1 = nesting.ancestors[fine.edge_tris[interior]].T
    avg = refined_mask[k0] | refined_mask[k1]
    out = np.empty((len(interior), 2))
    # an edge between two common elements is a coarse edge: keep its mean
    coarse_edge = descent_maps(coarse, fine)[1][interior[~avg]]
    out[~avg] = edge_values(coarse, v_coarse)[coarse_edge]
    nodal = nodal_averaging(v_coarse, coarse)
    out[avg] = p1_eval(nodal, coarse, k0[avg],
                       fine.edge_midpoints()[interior[avg]])
    return out.ravel()


# ---------------------------------------------------------------------------
# empirical constants for the prolongation bounds


def prolongation_defect_constant(coarse: Triangulation, fine: Triangulation,
                                 v_coarse: np.ndarray,
                                 nesting: NestingSets | None = None,
                                 operator: str = "mixed") -> float:
    """||grad(P v - v)||^2 over the jump estimator on the refined neighborhood.

    P is the mixed prolongation for operator="mixed", the naive one for
    operator="naive".
    """
    if nesting is None:
        nesting = nesting_sets(coarse, fine)
    if operator == "mixed":
        pv = mixed_prolongation(v_coarse, coarse, fine, nesting)
    elif operator == "naive":
        pv = naive_prolongation(v_coarse, coarse, fine, nesting.ancestors)
    else:
        raise ValueError("operator must be 'mixed' or 'naive'")
    Gp = cr_gradients(fine, pv)
    Gc = cr_gradients(coarse, v_coarse)[nesting.ancestors]
    diff = Gp - Gc
    num = float((fine.area * np.einsum("tij,tij->t", diff, diff)).sum())
    jumps = _element_jump_sq(coarse, cr_gradients(coarse, v_coarse))
    den = float(jumps[nesting.neighborhood].sum())
    if den == 0.0:
        return 0.0 if num < 1e-24 else np.inf
    return num / den
