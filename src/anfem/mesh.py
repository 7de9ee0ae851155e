"""Conforming triangulations with newest-vertex-bisection refinement.

A triangle is stored as an ordered vertex triple (v0, v1, v2) with positive
signed area.  The refinement edge is always (v0, v1); v2 plays the role of
the newest vertex.  Bisection inserts the midpoint m of (v0, v1) and produces
the children (v2, v0, m) and (v1, v2, m), so the new vertex becomes the peak
of both children and the remaining parent edges become their refinement edges.

`bisect` is the single source of genealogy: every mesh it returns records,
per bisection back to its initial mesh, the token of the mesh it was refined
from, the element parent map and the fine-edge -> coarse-edge map, in
`Triangulation.lineage`, the only genealogy a mesh holds.  Nesting queries
compose these maps; `build_initial` and `read_mesh` start a new genealogy.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np


class MeshError(ValueError):
    pass


def check_count(name: str, value, low: int) -> int:
    """`value` as an int if it is an integer >= `low`, else ValueError
    naming `name`: the one check of every count parameter.  A bool is
    refused, though it passes as the integer 0 or 1."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


# local edge i is opposite local vertex i, from vertex i + 1 to i + 2
_EDGE_FROM, _EDGE_TO = [1, 2, 0], [2, 0, 1]

_TOKENS = itertools.count()


@dataclass
class Triangulation:
    vertices: np.ndarray            # (nv, 2) float
    triangles: np.ndarray           # (nt, 3) int, refinement edge = (t0, t1)
    # one (ancestor token, element map, edge map) step per bisection, nearest
    # ancestor first; integer arrays only, so no ancestor mesh is kept alive
    lineage: tuple = ()

    token: int = field(init=False)               # process-unique genealogy id
    # derived connectivity, filled by _build_topology
    edges: np.ndarray = field(init=False)        # (ne, 2) vertex pairs, sorted
    tri_edges: np.ndarray = field(init=False)    # (nt, 3) edge id of local edge i
    edge_tris: np.ndarray = field(init=False)    # (ne, 2) incident elements, -1 pad
    boundary_edge: np.ndarray = field(init=False)  # (ne,) bool
    interior_edges: np.ndarray = field(init=False)  # (ni,) ids, not boundary
    edge_length: np.ndarray = field(init=False)
    edge_tangent: np.ndarray = field(init=False)  # (ne, 2) unit, low -> high id
    area: np.ndarray = field(init=False)         # (nt,)
    h: np.ndarray = field(init=False)            # (nt,) h_K = |K|^{1/2}
    bary_grads: np.ndarray = field(init=False)   # (nt, 3, 2) gradients of the
    # barycentric coordinate functions

    def __post_init__(self):
        self.vertices, self.triangles = _mesh_arrays(self.vertices,
                                                     self.triangles)
        self.token = next(_TOKENS)
        self._build_topology()

    @property
    def parent(self) -> np.ndarray | None:
        """(nt,) index into the mesh bisect() was called on; None for a mesh
        that starts its genealogy."""
        return self.lineage[0][1] if self.lineage else None

    # -- basic counts ------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def boundary_vertices(self) -> np.ndarray:
        return np.unique(self.edges[self.boundary_edge])

    def _build_topology(self):
        tris, v = self.triangles, self.vertices
        # row 3t + i: local edge i of triangle t, from vertex a to b
        a, b = tris[:, _EDGE_FROM].ravel(), tris[:, _EDGE_TO].ravel()
        e = v.take(b, axis=0) - v.take(a, axis=0)
        e3 = e.reshape(-1, 3, 2)
        self.area = 0.5 * (e3[:, 1, 0] * e3[:, 2, 1]
                           - e3[:, 2, 0] * e3[:, 1, 1])
        bad = np.flatnonzero(self.area <= 0)
        if bad.size:
            raise MeshError(f"degenerate or misoriented triangle {bad[0]}")
        self.h = np.sqrt(self.area)

        # one stable sort of the rows' keys lo * nv + hi gives the unique
        # edges in lexicographic order, tri_edges, and the incident
        # triangles of each edge in ascending id
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keys = lo * len(v) + hi
        order = np.argsort(keys, kind="stable")
        new = np.diff(keys[order], prepend=-1) != 0    # row starts an edge
        first = np.flatnonzero(new)
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(new) - 1
        self.tri_edges = inverse.reshape(-1, 3)
        row = order[first]                    # first row of each edge
        self.edges = np.stack([lo[row], hi[row]], axis=1)

        counts = np.diff(first, append=len(order))
        if counts.max() > 2:
            raise MeshError("edge shared by more than two triangles")
        # positively oriented neighbours run along their edge in opposite
        # directions; duplicated or folded triangles run the same way
        second, fwd = np.append(order, 0)[first + 1], a < b
        if np.any((counts == 2) & (fwd[row] == fwd[second])):
            raise MeshError("duplicated or folded triangles: both triangles "
                            "of an edge run along it the same way")
        self.edge_tris = np.stack([row // 3, np.where(
            counts == 2, second // 3, -1)], axis=1)
        self.boundary_edge = counts == 1
        self.interior_edges = np.flatnonzero(~self.boundary_edge)

        # the row's edge vector, from the low to the high vertex id
        vec = e.take(row, axis=0)
        vec *= np.where(fwd[row], 1.0, -1.0)[:, None]
        self.edge_length = np.sqrt(vec[:, 0] ** 2 + vec[:, 1] ** 2)
        self.edge_tangent = vec / self.edge_length[:, None]

        # grad lambda_i is the inward normal of local edge i over 2|K|
        self.bary_grads = np.stack([-e3[..., 1], e3[..., 0]], axis=-1)
        self.bary_grads /= (2.0 * self.area)[:, None, None]
        # conformity: the boundary edges form closed loops (two at each
        # boundary vertex), or a hanging node left an open chain
        deg = np.bincount(self.edges[self.boundary_edge].ravel())
        if np.any((deg != 0) & (deg != 2)):
            raise MeshError("non-conforming input: open boundary chain "
                            "(hanging node or inconsistent connectivity)")

    # -- queries -----------------------------------------------------------
    def edge_midpoints(self) -> np.ndarray:
        return 0.5 * self.vertices.take(self.edges, axis=0).sum(axis=1)

    def corners(self, elems=slice(None)) -> np.ndarray:
        """(..., 3, 2) corner coordinates of the elements `elems`."""
        return self.vertices.take(self.triangles[elems], axis=0)

    def centroids(self) -> np.ndarray:
        return self.corners().mean(axis=1)


def _mesh_arrays(vertices, triangles):
    """(nv, 2) finite float vertices and an (nt >= 1, 3) int64 connectivity
    of vertex ids in [0, nv), or MeshError: the one check of both."""
    v, tris = np.asarray(vertices, dtype=float), np.asarray(triangles)
    if v.ndim != 2 or v.shape[1] != 2:
        raise MeshError("vertices must be (nv, 2)")
    if tris.ndim != 2 or tris.shape[1] != 3:
        raise MeshError("connectivity must be (nt, 3)")
    if not len(tris):
        raise MeshError("mesh has no triangles")
    if tris.dtype.kind not in "iu" or tris.min() < 0 or tris.max() >= len(v):
        raise MeshError(f"vertex ids must be integers in [0, {len(v)})")
    if not np.all(np.isfinite(v)):
        raise MeshError("non-finite vertex coordinates")
    return v, tris.astype(np.int64, copy=False)


def barycentric(mesh: Triangulation, elems, points) -> np.ndarray:
    """Barycentric coordinates (..., 3) of points[i] in element elems[i],
    by Cramer's rule: the 2 x 2 system's determinant is 2|K| > 0."""
    p = mesh.corners(elems)
    e1, e2 = p[..., 1, :] - p[..., 0, :], p[..., 2, :] - p[..., 0, :]
    r = np.asarray(points) - p[..., 0, :]
    det = 2.0 * mesh.area[elems]
    a = (r[..., 0] * e2[..., 1] - r[..., 1] * e2[..., 0]) / det
    b = (e1[..., 0] * r[..., 1] - e1[..., 1] * r[..., 0]) / det
    return np.stack([1.0 - a - b, a, b], axis=-1)


def build_initial(vertices, triangle_connectivity) -> Triangulation:
    """Build an oriented initial mesh with refinement edges assigned.

    The refinement edge of each triangle is its longest edge; ties are broken
    by the smallest opposite-vertex id.  Triangles given with negative area
    are reordered.
    """
    v, tris = _mesh_arrays(vertices, triangle_connectivity)
    e = v.take(tris[:, _EDGE_TO], 0) - v.take(tris[:, _EDGE_FROM], 0)
    area = 0.5 * (e[:, 1, 0] * e[:, 2, 1] - e[:, 2, 0] * e[:, 1, 1])
    bad = np.flatnonzero(area == 0)
    if bad.size:
        raise MeshError(f"degenerate triangle {bad[0]}: zero area")
    # the refinement edge is the longest, rounded to 14 digits; a tie goes
    # to the smallest opposite vertex id, whose corner c becomes v2 and is
    # followed by c + 1, c + 2 (c + 2, c + 1 for a negative area) as v0, v1
    lengths = np.round(np.sqrt(e[..., 0] ** 2 + e[..., 1] ** 2), 14)
    longest = lengths == lengths.max(axis=1, keepdims=True)
    c = np.argmin(np.where(longest, tris, np.iinfo(np.int64).max), axis=1)
    step = np.where(area < 0, 2, 1)[:, None]
    tris = np.take_along_axis(tris, (c[:, None] + step * [1, 2, 0]) % 3, 1)
    return Triangulation(v, tris)


def bisect(tri: Triangulation, marked) -> Triangulation:
    """Refine all marked elements by newest vertex bisection with completion.

    `marked` holds integer element ids; the result records its genealogy.
    """
    marked = np.atleast_1d(np.asarray(marked)).ravel()
    if marked.size and marked.dtype.kind not in "iu":
        raise MeshError("marked must hold integer element ids, got dtype "
                        f"{marked.dtype}")
    marked = np.unique(marked.astype(np.int64))
    if len(marked) and (marked[0] < 0 or marked[-1] >= tri.num_triangles):
        raise MeshError("marked set contains invalid element ids")
    te = tri.tri_edges
    refine_edge = np.zeros(tri.num_edges, dtype=bool)
    refine_edge[te[marked, 2]] = True
    # completion: any triangle with a marked edge must have its refinement
    # edge marked too; each pass marks at least one more edge or stops
    while True:
        need = te[refine_edge[te].any(axis=1), 2]
        if refine_edge[need].all():
            break
        refine_edge[need] = True

    # new vertices at midpoints of refined edges
    new_vid = np.full(tri.num_edges, -1, dtype=np.int64)
    ref_ids = np.flatnonzero(refine_edge)
    mids = tri.edge_midpoints()[ref_ids]
    new_vid[ref_ids] = tri.num_vertices + np.arange(len(ref_ids))
    vertices = np.vstack([tri.vertices, mids])

    # children in parent order, by the rule applied in two rounds: a row
    # whose refinement edge carries a new vertex m becomes (v2, v0, m) and
    # then (v1, v2, m).  `mid` holds the new vertex on each row's local
    # edges, -1 for none; a child's refinement edge is parent edge 1, resp.
    # 0, and its other edges carry none
    out, mid, parent = tri.triangles, new_vid[te], np.arange(len(te))
    for _ in range(2):
        split = mid[:, 2] >= 0
        at = np.cumsum(1 + split)[split] - 2    # first child of a split row
        (v0, v1, v2), (m0, m1, m2) = out[split].T, mid[split].T
        out, mid, parent = (np.repeat(a, 1 + split, axis=0)
                            for a in (out, mid, parent))
        out[at] = np.stack([v2, v0, m2], axis=1)
        out[at + 1] = np.stack([v1, v2, m2], axis=1)
        mid[at] = mid[at + 1] = -1
        mid[at, 2], mid[at + 1, 2] = m1, m0

    mesh = Triangulation(vertices, out)
    mesh.lineage = ((tri.token, parent, _edge_parents(tri, mesh, ref_ids)),) \
        + tri.lineage
    return mesh


def _edge_parents(coarse: Triangulation, fine: Triangulation, ref_ids):
    """Coarse edge each edge of `fine = bisect(coarse, ...)` lies on, -1 for
    an edge inside one coarse element.

    An edge between two coarse vertices is a coarse edge.  An edge from a
    coarse vertex to the midpoint of the refined coarse edge E lies on E iff
    the vertex ends E.  Every other fine edge ends at a new vertex inside a
    coarse element.
    """
    nv = coarse.num_vertices
    a, b = fine.edges.T                      # a < b: b is new unless both old
    out = np.full(fine.num_edges, -1, dtype=np.int64)
    old = b < nv
    out[old] = np.searchsorted(coarse.edges[:, 0] * nv + coarse.edges[:, 1],
                               a[old] * nv + b[old])
    half = np.flatnonzero((a < nv) & ~old)
    host = ref_ids[b[half] - nv]
    on = (coarse.edges[host] == a[half, None]).any(axis=1)
    out[half[on]] = host[on]
    return out


def uniform_refine(tri: Triangulation, rounds: int = 1) -> Triangulation:
    for _ in range(check_count("rounds", rounds, 0)):
        tri = bisect(tri, np.arange(tri.num_triangles))
    return tri


# ---------------------------------------------------------------------------
# nesting queries between two meshes


@dataclass
class NestingSets:
    coarse: Triangulation
    fine: Triangulation
    refined: np.ndarray      # coarse element ids that were subdivided
    neighborhood: np.ndarray  # coarse elements touching the refined region
    ancestors: np.ndarray    # (nt_fine,) coarse ancestor of each fine element
    # (nt_fine,) whether each fine element is its ancestor's only
    # descendant: one bisect kept, with its ancestor's corner coordinates
    kept: np.ndarray
    # max over fine T of h_K / h_T, K the ancestor of T: exactly 1 without
    # refinement, as a kept element keeps its vertices and so its h
    gamma: float


def descent_maps(coarse: Triangulation, fine: Triangulation):
    """(ancestors, coarse_edge) of a fine mesh descending from `coarse` by
    bisect: the coarse element containing each fine element, and the coarse
    edge each fine edge lies on (-1 inside a coarse element).

    Composes the per-bisection maps recorded in `fine.lineage`.
    """
    anc, edge = np.arange(fine.num_triangles), np.arange(fine.num_edges)
    if fine.token == coarse.token:
        return anc, edge
    for token, parent, edge_parent in fine.lineage:
        anc = parent[anc]
        edge = np.where(edge >= 0, edge_parent[edge], -1)
        if token == coarse.token:
            return anc, edge
    raise MeshError("fine mesh does not descend from the coarse mesh by "
                    "bisect")


def ancestor_map(coarse: Triangulation, fine: Triangulation) -> np.ndarray:
    """Map each fine element to the coarse element containing it.

    The map comes from bisect's genealogy and is verified geometrically. A
    kept element, its ancestor's only descendant, must have its ancestor's
    corner coordinates, exactly and in order, as bisect copies an unsplit
    element; every vertex of the other fine elements must lie in its
    ancestor.
    """
    anc = descent_maps(coarse, fine)[0]
    kept = np.bincount(anc)[anc] == 1
    if not (fine.corners(kept) == coarse.corners(anc[kept])).all():
        raise MeshError("a kept element moved from its ancestor's corners")
    split = np.flatnonzero(~kept)
    lam = barycentric(coarse, np.repeat(anc[split], 3),
                      fine.corners(split).reshape(-1, 2))
    if lam.size and lam.min() < -1e-9:
        raise MeshError("fine mesh not nested in coarse mesh")
    return anc


def nesting_sets(coarse: Triangulation, fine: Triangulation) -> NestingSets:
    anc = ancestor_map(coarse, fine)
    counts = np.bincount(anc, minlength=coarse.num_triangles)
    if counts.min() == 0:
        raise MeshError("fine mesh does not cover the coarse mesh")
    fine_area = np.bincount(anc, fine.area, minlength=coarse.num_triangles)
    if np.any(np.abs(fine_area - coarse.area) > 1e-12 * coarse.area):
        raise MeshError("fine mesh not nested: ancestor areas do not match")
    refined = np.flatnonzero(counts > 1)

    # touching = sharing at least one vertex with a refined coarse element,
    # which every refined element does
    touch = np.isin(coarse.triangles,
                    np.unique(coarse.triangles[refined])).any(axis=1)
    neighborhood = np.flatnonzero(touch)
    return NestingSets(coarse=coarse, fine=fine, refined=refined,
                       neighborhood=neighborhood, ancestors=anc,
                       kept=counts[anc] == 1,
                       gamma=float(np.max(coarse.h[anc] / fine.h)))


# ---------------------------------------------------------------------------
# plain-text mesh reader
#
# line 1: `nv nt`; then nv lines `x y`; then nt lines `v0 v1 v2 refedge`
# (refedge is the local index of the refinement edge, edge i opposite
# vertex i)


def read_mesh(path) -> Triangulation:
    """Read the format above.  A malformed file raises MeshError naming the
    file and the problem."""
    with open(path) as f:
        tokens = f.read().split()
    try:
        if len(tokens) < 2:
            raise MeshError("missing the 'nv nt' header")
        nv, nt = int(tokens[0]), int(tokens[1])
        if nv < 0 or nt < 0:
            raise MeshError(f"negative count in the header '{nv} {nt}'")
        if len(tokens) != 2 + 2 * nv + 4 * nt:
            raise MeshError(f"{nv} vertices and {nt} triangles need "
                            f"{2 * nv + 4 * nt} numbers after the header, "
                            f"found {len(tokens) - 2}")
        verts = np.array(tokens[2:2 + 2 * nv], dtype=float).reshape(nv, 2)
        cells = np.array(tokens[2 + 2 * nv:], dtype=np.int64).reshape(nt, 4)
        ids, ref = cells[:, :3], cells[:, 3]
        if np.any((ref < 0) | (ref > 2)):
            raise MeshError("refinement-edge index must be 0, 1 or 2")
        # rotate each triangle so that its refinement edge is (v0, v1)
        shift = (ref + 1) % 3
        tris = np.take_along_axis(ids, (np.arange(3) + shift[:, None]) % 3, 1)
        return Triangulation(verts, tris)
    except ValueError as exc:       # MeshError and unparsable numbers
        raise MeshError(f"{path}: {exc}") from None
