"""Criss-cross mesh family on the diamond and the sqrt(N) scaling witness.

The diamond |x|+|y| <= 1 is cut by N lines parallel to each pair of sides
into an N x N grid of sub-diamonds; each sub-diamond is split by its vertical
diagonal, giving 2 N^2 triangles.  A coarse jump [u] = y across the vertical
diagonal AC paired with an alternating-sign conforming hat combination
produces a boundary pairing that defeats any gamma-independent bound for the
naive prolongation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Triangulation, build_initial
from .transfer import p1_gradients


@dataclass
class CrissCrossFamily:
    n: int                      # odd
    fine: Triangulation         # 2 N^2 triangles
    sign_nodes: np.ndarray      # fine vertex ids of Z_i, i = -k..k (in order)
    ac_vertex_col: np.ndarray   # fine vertex ids on segment AC, bottom to top


def build_family(n: int) -> CrissCrossFamily:
    if n < 1 or n % 2 == 0:
        raise ValueError(
            f"family parameter must be an odd integer >= 1, got {n}")
    k = (n - 1) // 2
    # lattice in rotated coordinates u = x + y, v = y - x, both in [-1, 1]
    # vertex (i, j) at u = -1 + 2i/n, v = -1 + 2j/n has id ids[i, j]
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    u = -1.0 + 2.0 * i.ravel() / n
    v = -1.0 + 2.0 * j.ravel() / n
    verts = np.stack([(u - v) / 2.0, (u + v) / 2.0], axis=1)
    ids = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)
    p00, p10 = ids[:-1, :-1].ravel(), ids[1:, :-1].ravel()
    p01, p11 = ids[:-1, 1:].ravel(), ids[1:, 1:].ravel()
    # vertical diagonal p00 - p11 (equal x, differing y)
    tris = np.stack([p00, p10, p11, p00, p11, p01], axis=1).reshape(-1, 3)
    fine = build_initial(verts, tris)

    i = np.arange(-k, k + 1)
    sign_nodes = ids[k + 1 + i, k + i]
    ac_col = np.diagonal(ids).copy()
    # reindex through build_initial: vertices are passed through unchanged
    fam = CrissCrossFamily(n=n, fine=fine, sign_nodes=sign_nodes,
                           ac_vertex_col=ac_col)
    _validate(fam)
    return fam


def _validate(fam: CrissCrossFamily):
    n = fam.n
    if fam.fine.num_triangles != 2 * n * n:
        raise RuntimeError(f"criss-cross mesh has {fam.fine.num_triangles} "
                           f"elements, not {2 * n * n}")
    zx = fam.fine.vertices[fam.sign_nodes]
    k = (n - 1) // 2
    expected = np.stack([np.full(n, 1.0 / n),
                         2.0 * np.arange(-k, k + 1) / n], axis=1)
    if not np.allclose(zx, expected, atol=1e-12):
        raise RuntimeError("sign nodes are not at x = 1/n, y = 2i/n")


def build_test_pair(fam: CrissCrossFamily) -> np.ndarray:
    """Nodal values of v = sum_i sign(i) phi_{Z_i}, (2 * nv,) P1 field.

    The coarse function enters only through its jump [u] = y across AC and
    needs no explicit representation.
    """
    k = (fam.n - 1) // 2
    nodal = np.zeros((fam.fine.num_vertices, 2))
    for i, z in zip(range(-k, k + 1), fam.sign_nodes):
        nodal[z, 0] = float(np.sign(i))
    return nodal.ravel()


def ac_segments(fam: CrissCrossFamily):
    """Fine edges along AC with their left/right incident elements."""
    fine = fam.fine
    segs = np.flatnonzero(np.isin(fine.edges, fam.ac_vertex_col).all(axis=1))
    if len(segs) != fam.n:
        raise RuntimeError(f"{len(segs)} fine edges on AC, not {fam.n}")
    t0, t1 = fine.edge_tris[segs].T
    if np.any(t1 < 0):
        raise RuntimeError("AC segment on the boundary")
    t0_left = fine.centroids()[t0, 0] < 0
    left, right = np.where(t0_left, t0, t1), np.where(t0_left, t1, t0)
    ymid = fine.edge_midpoints()[segs, 1]
    order = np.argsort(ymid, kind="stable")
    return list(zip(segs[order], left[order], right[order], ymid[order]))


def boundary_sum(fam: CrissCrossFamily, nodal: np.ndarray) -> float:
    """int_AC [u] {dv/dnu} ds with [u] = y and nu = (1, 0).

    The normal-derivative average is constant per fine segment; the jump is
    linear, so per-segment exact integration is midpoint * length.
    """
    grads = p1_gradients(nodal, fam.fine)
    total = 0.0
    for e, left, right, ymid in ac_segments(fam):
        avg = 0.5 * (grads[left][0, 0] + grads[right][0, 0])
        total += avg * ymid * fam.fine.edge_length[e]
    return float(total)


def grad_norm_sq(fam: CrissCrossFamily, nodal: np.ndarray) -> float:
    g = p1_gradients(nodal, fam.fine)
    return float((fam.fine.area * np.einsum("tij,tij->t", g, g)).sum())


def closed_form(n: int) -> float:
    return n / 2.0 - 1.0 / (2.0 * n)


def coarse_jump_term() -> float:
    """sum over coarse-only edges of h_E^{-1} ||[u]||^2 with [u] = y on AC.

    AC has length 2 and int_{-1}^{1} y^2 dy = 2/3, so the value is 1/3;
    it carries no fine-mesh quantity and is constant in N.
    """
    return (2.0 / 3.0) / 2.0


def scaling_study(n_values) -> dict:
    """Fit the growth exponent against N of the pairing constant
    C = boundary_sum / (coarse_jump_term^(1/2) ||grad v||)."""
    n_values = sorted(int(n) for n in n_values)
    if len(set(n_values)) < 4 or n_values[0] < 3 or any(
            n % 2 == 0 for n in n_values):
        raise ValueError(f"need at least 4 distinct odd N >= 3, got "
                         f"{n_values}")
    rows = []
    for n in n_values:
        fam = build_family(n)
        nodal = build_test_pair(fam)
        bs = boundary_sum(fam, nodal)
        gsq = grad_norm_sq(fam, nodal)
        rows.append({"N": n, "boundary_sum": bs, "grad_norm_sq": gsq,
                     "C": bs / (np.sqrt(coarse_jump_term()) * np.sqrt(gsq)),
                     "closed_form": closed_form(n)})
    logn = np.log([r["N"] for r in rows])
    logc = np.log([r["C"] for r in rows])
    exponent = float(np.polyfit(logn, logc, 1)[0])
    return {"rows": rows, "exponent": exponent}
