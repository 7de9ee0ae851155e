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
from dataclasses import dataclass, field

import numpy as np


class MeshError(ValueError):
    pass


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
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
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
        if not len(self.triangles):
            raise MeshError("mesh has no triangles")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("non-finite vertex coordinates")
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
        self.edge_tris = np.stack([row // 3, np.where(
            counts == 2, np.append(order, 0)[first + 1] // 3, -1)], axis=1)
        self.boundary_edge = counts == 1
        self.interior_edges = np.flatnonzero(~self.boundary_edge)

        # the row's edge vector, from the low to the high vertex id
        vec = e.take(row, axis=0)
        vec *= np.where(a[row] < b[row], 1.0, -1.0)[:, None]
        self.edge_length = np.sqrt(vec[:, 0] ** 2 + vec[:, 1] ** 2)
        if np.any(self.edge_length <= 0):
            raise MeshError("zero-length edge")
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
    v = np.asarray(vertices, dtype=float)
    tris = np.asarray(triangle_connectivity, dtype=np.int64)
    if tris.ndim != 2 or tris.shape[1] != 3:
        raise MeshError("connectivity must be (nt, 3)")
    repeated = ((tris[:, 0] == tris[:, 1]) | (tris[:, 1] == tris[:, 2])
                | (tris[:, 2] == tris[:, 0]))
    e = v.take(tris[:, _EDGE_TO], 0) - v.take(tris[:, _EDGE_FROM], 0)
    area = 0.5 * (e[:, 1, 0] * e[:, 2, 1] - e[:, 2, 0] * e[:, 1, 1])
    bad = np.flatnonzero(repeated | (area == 0))
    if bad.size:
        k = bad[0]
        raise MeshError(f"degenerate triangle {k}: " + (
            "repeated vertex" if repeated[k] else "zero area"))
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
    nt = tri.num_triangles
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

    # children in parent order: an untouched element is kept; a split one
    # emits (v2, v0, m2) then (v1, v2, m2), each bisected once more when its
    # refinement edge (parent edge 1, resp. 0) is refined
    r = refine_edge[te]
    split = r.any(axis=1)
    n_a = np.where(split, 1 + r[:, 1], 1)
    count = n_a + np.where(split, 1 + r[:, 0], 0)
    parent = np.repeat(np.arange(nt), count)
    first = np.cumsum(count) - count
    second = first + n_a
    out = np.empty((len(parent), 3), dtype=np.int64)
    t0, t1, t2 = tri.triangles.T
    m0, m1, m2 = new_vid[te].T
    out[first[~split]] = tri.triangles[~split]
    for sel, at, child in (
            (split & ~r[:, 1], first, (t2, t0, m2)),
            (split & r[:, 1], first, (m2, t2, m1)),
            (split & r[:, 1], first + 1, (t0, m2, m1)),
            (split & ~r[:, 0], second, (t1, t2, m2)),
            (split & r[:, 0], second, (m2, t1, m0)),
            (split & r[:, 0], second + 1, (t2, m2, m0))):
        out[at[sel]] = np.stack([c[sel] for c in child], axis=1)

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
    for _ in range(rounds):
        tri = bisect(tri, np.arange(tri.num_triangles))
    return tri


# ---------------------------------------------------------------------------
# nesting queries between two meshes


@dataclass
class NestingSets:
    refined: np.ndarray      # coarse element ids that were subdivided
    neighborhood: np.ndarray  # coarse elements touching the refined region
    ancestors: np.ndarray    # (nt_fine,) coarse ancestor of each fine element
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


def _same_corners(coarse: Triangulation, fine: Triangulation,
                  anc: np.ndarray) -> np.ndarray:
    """(nt_fine,) whether each fine element has the corner coordinates, in
    order, of its coarse ancestor `anc`: an element that bisect kept."""
    return (fine.corners() == coarse.corners(anc)).all(axis=(1, 2))


def ancestor_map(coarse: Triangulation, fine: Triangulation) -> np.ndarray:
    """Map each fine element to the coarse element containing it.

    The map comes from bisect's genealogy and is verified geometrically:
    every fine vertex must lie in its ancestor. A fine element whose corner
    coordinates are its ancestor's (one that bisect kept) passes without
    the barycentric solve.
    """
    anc = descent_maps(coarse, fine)[0]
    moved = np.flatnonzero(~_same_corners(coarse, fine, anc))
    lam = barycentric(coarse, np.repeat(anc[moved], 3),
                      fine.corners(moved).reshape(-1, 2))
    if lam.size and lam.min() < -1e-9:
        raise MeshError("fine mesh not nested in coarse mesh")
    return anc


def kept_rows(coarse: Triangulation, fine: Triangulation):
    """(element source, edge source) of a fine mesh descending from
    `coarse` by bisect: the coarse element with each fine element's corner
    coordinates in the same order, and the coarse edge with each fine
    edge's end coordinates, -1 for an element or edge bisect created.

    The candidates come from the genealogy (`descent_maps`) and are kept
    only where the coordinates are equal, so anything computed from a
    kept row's points on `coarse` is, bit for bit, its value on `fine`.
    """
    anc, edge = descent_maps(coarse, fine)
    on = np.flatnonzero(edge >= 0)
    same = (fine.vertices.take(fine.edges[on], axis=0)
            == coarse.vertices.take(coarse.edges[edge[on]], axis=0)).all(
                axis=(1, 2))
    edge_src = np.full(fine.num_edges, -1, dtype=np.int64)
    edge_src[on[same]] = edge[on[same]]
    return np.where(_same_corners(coarse, fine, anc), anc, -1), edge_src


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
    return NestingSets(refined=refined, neighborhood=neighborhood,
                       ancestors=anc,
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
        if ids.size and (ids.min() < 0 or ids.max() >= nv):
            raise MeshError(f"vertex id outside [0, {nv})")
        if np.any((ref < 0) | (ref > 2)):
            raise MeshError("refinement-edge index must be 0, 1 or 2")
        # rotate each triangle so that its refinement edge is (v0, v1)
        shift = (ref + 1) % 3
        tris = np.take_along_axis(ids, (np.arange(3) + shift[:, None]) % 3, 1)
        return Triangulation(verts, tris)
    except ValueError as exc:       # MeshError and unparsable numbers
        raise MeshError(f"{path}: {exc}") from None
