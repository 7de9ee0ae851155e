"""Criss-cross mesh family on the diamond and the sqrt(N) scaling witness.

The diamond |x|+|y| <= 1 is cut by N lines parallel to each pair of sides
into an N x N grid of sub-diamonds; each sub-diamond is split by its vertical
diagonal, giving 2 N^2 triangles.  A coarse jump [u] = y across the vertical
diagonal AC paired with an alternating-sign conforming hat combination
produces a boundary pairing that defeats any gamma-independent bound for the
naive prolongation.  Both factors of the pairing live next to AC, so the
family holds only the band of 6N - 6 triangles there and costs O(N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadrature as quad
from .mesh import Triangulation, build_initial, check_count


@dataclass
class CrissCrossFamily:
    n: int                      # odd
    fine: Triangulation         # band along AC: 6N - 6 triangles (2, N = 1)
    sign_nodes: np.ndarray      # fine vertex ids of Z_i, i = -k..k (in order)
    ac_cells: np.ndarray        # band cells (i, i) along AC, bottom to top


def build_family(n: int) -> CrissCrossFamily:
    if check_count("n", n, 1) % 2 == 0:
        raise ValueError(f"n must be an odd integer >= 1, got {n!r}")
    k = (n - 1) // 2
    # the band of cells (i, j), 0 <= i - j <= 2, in full-mesh order i*n + j:
    # AC (i = j) and the star of every sign node (k + 1 + m, k + m)
    i = np.repeat(np.arange(n), 3)
    j = i - np.tile([2, 1, 0], n)
    i, j = i[j >= 0], j[j >= 0]
    # lattice in rotated coordinates u = x + y, v = y - x, both in [-1, 1]:
    # vertex (a, b) at u = -1 + 2a/n, v = -1 + 2b/n has full-mesh id
    # a * (n + 1) + b; the band numbers its vertices in that order
    p00, p10 = i * (n + 1) + j, (i + 1) * (n + 1) + j
    p01, p11 = p00 + 1, p10 + 1
    # vertical diagonal p00 - p11 (equal x, differing y)
    full = np.stack([p00, p10, p11, p00, p11, p01], axis=1).reshape(-1, 3)
    ids, tris = np.unique(full, return_inverse=True)
    a, b = np.divmod(ids, n + 1)
    u = -1.0 + 2.0 * a / n
    v = -1.0 + 2.0 * b / n
    verts = np.stack([(u - v) / 2.0, (u + v) / 2.0], axis=1)
    fine = build_initial(verts, tris.reshape(-1, 3))

    m = np.arange(-k, k + 1)
    fam = CrissCrossFamily(
        n=n, fine=fine,
        sign_nodes=np.searchsorted(ids, (k + 1 + m) * (n + 1) + k + m),
        # cell (i, i) closes row i of the band
        ac_cells=np.maximum(3 * np.arange(n) - 1, 0))
    _validate(fam)
    return fam


def _validate(fam: CrissCrossFamily):
    n, fine = fam.n, fam.fine
    want = 2 * max(3 * n - 3, 1)
    if fine.num_triangles != want:
        raise RuntimeError(f"criss-cross band has {fine.num_triangles} "
                           f"elements, not {want}")
    # N cells, each with both elements on the sides of one edge on x = 0
    segs, left = ac_segments(fam)[:2]
    if (len(segs) != n or np.any(fine.tri_edges[left, 2] != segs)
            or np.any(fine.vertices[fine.edges[segs], 0] != 0.0)):
        raise RuntimeError("ac_cells is not the strip of cells along AC")
    zx = fine.vertices[fam.sign_nodes]
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
    nodal[fam.sign_nodes, 0] = np.sign(np.arange(-k, k + 1))
    return nodal.ravel()


def ac_segments(fam: CrissCrossFamily):
    """The fine edges along AC, bottom to top, their left and right
    incident elements and the y of their midpoints: four arrays.  Cell c
    holds element 2c right of AC and 2c + 1 left of it, and AC's segment
    is the refinement edge (local edge 2) of both."""
    fine, right = fam.fine, 2 * fam.ac_cells
    segs = fine.tri_edges[right, 2]
    ymid = 0.5 * fine.vertices[fine.edges[segs], 1].sum(axis=1)
    return segs, right + 1, right, ymid


def p1_gradients(nodal: np.ndarray, mesh: Triangulation,
                 elems=slice(None)) -> np.ndarray:
    """(..., 2, 2) gradients of a P1 nodal field on the elements `elems`."""
    vals = nodal.reshape(-1, 2).take(mesh.triangles[elems], axis=0)
    return quad.combine3(vals.transpose(0, 2, 1),
                         mesh.bary_grads[elems][:, None])


def boundary_sum(fam: CrissCrossFamily, nodal: np.ndarray) -> float:
    """int_AC [u] {dv/dnu} ds with [u] = y and nu = (1, 0).

    The normal-derivative average is constant per fine segment; the jump is
    linear, so per-segment exact integration is midpoint * length.  Only
    the 2N elements along AC are read.
    """
    segs, left, right, ymid = ac_segments(fam)
    grads = p1_gradients(nodal, fam.fine, np.concatenate([left, right]))
    n = len(segs)
    avg = 0.5 * (grads[:n, 0, 0] + grads[n:, 0, 0])
    # summed segment by segment, in order
    return float(np.cumsum(avg * ymid * fam.fine.edge_length[segs])[-1])


def grad_norm_sq(fam: CrissCrossFamily, nodal: np.ndarray) -> float:
    """||grad v||^2, summed over the band in full-mesh element order."""
    g = p1_gradients(nodal, fam.fine)
    return float((fam.fine.area * np.einsum("tij,tij->t", g, g)).sum())


def closed_form(n: int) -> float:
    return n / 2.0 - 1.0 / (2.0 * n)


# sum over coarse-only edges of h_E^{-1} ||[u]||^2 with [u] = y on AC: AC
# has length 2 and int_{-1}^{1} y^2 dy = 2/3, so the value is 1/3; it
# carries no fine-mesh quantity and is constant in N
COARSE_JUMP_TERM = (2.0 / 3.0) / 2.0


def scaling_study(n_values) -> dict:
    """Fit the growth exponent against N of the pairing constant
    C = boundary_sum / (COARSE_JUMP_TERM^(1/2) ||grad v||)."""
    n_values = sorted(check_count("N", n, 3) for n in n_values)
    if (len(set(n_values)) < max(4, len(n_values))
            or any(n % 2 == 0 for n in n_values)):
        raise ValueError("need at least 4 odd N >= 3, none repeated, "
                         f"got {n_values}")
    rows = []
    for n in n_values:
        fam = build_family(n)
        nodal = build_test_pair(fam)
        bs = boundary_sum(fam, nodal)
        gsq = grad_norm_sq(fam, nodal)
        rows.append({"N": n, "boundary_sum": bs, "grad_norm_sq": gsq,
                     "C": bs / (np.sqrt(COARSE_JUMP_TERM) * np.sqrt(gsq)),
                     "closed_form": closed_form(n)})
    logn = np.log([r["N"] for r in rows])
    logc = np.log([r["C"] for r in rows])
    exponent = float(np.polyfit(logn, logc, 1)[0])
    return {"rows": rows, "exponent": exponent}
