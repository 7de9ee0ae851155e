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


# local edge i is opposite local vertex i
_LOCAL_EDGES = ((1, 2), (2, 0), (0, 1))

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
    def interior_edges(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary_edge)

    @property
    def boundary_vertices(self) -> np.ndarray:
        return np.unique(self.edges[self.boundary_edge])

    def _build_topology(self):
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("non-finite vertex coordinates")
        tris = self.triangles
        v = self.vertices
        e1 = v[tris[:, 1]] - v[tris[:, 0]]
        e2 = v[tris[:, 2]] - v[tris[:, 0]]
        self.area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        bad = np.flatnonzero(self.area <= 0)
        if bad.size:
            raise MeshError(f"degenerate or misoriented triangle {bad[0]}")
        self.h = np.sqrt(self.area)

        # unique edges, lexicographic in the sorted vertex pair a < b < nv
        nt, nv = len(tris), len(v)
        raw = np.sort(np.concatenate(
            [tris[:, [a, b]] for a, b in _LOCAL_EDGES], axis=0), axis=1)
        keys, inverse = np.unique(raw[:, 0] * nv + raw[:, 1],
                                  return_inverse=True)
        self.edges = np.stack([keys // nv, keys % nv], axis=1)
        self.tri_edges = inverse.reshape(3, -1).T.copy()

        ne = len(self.edges)
        counts = np.bincount(inverse, minlength=ne)
        if counts.max() > 2:
            raise MeshError("edge shared by more than two triangles")
        # incident triangles, ascending triangle id per edge; row r of `raw`
        # belongs to triangle r % nt
        tri_sorted = np.argsort(inverse * nt + np.arange(3 * nt) % nt) % nt
        start = np.cumsum(counts) - counts
        self.edge_tris = np.full((ne, 2), -1, dtype=np.int64)
        self.edge_tris[:, 0] = tri_sorted[start]
        two = counts == 2
        self.edge_tris[two, 1] = tri_sorted[start[two] + 1]
        self.boundary_edge = self.edge_tris[:, 1] < 0

        vec = v[self.edges[:, 1]] - v[self.edges[:, 0]]
        self.edge_length = np.linalg.norm(vec, axis=1)
        if np.any(self.edge_length <= 0):
            raise MeshError("zero-length edge")
        self.edge_tangent = vec / self.edge_length[:, None]

        self.bary_grads = _barycentric_gradients(v, tris, self.area)
        # a hanging node leaves an interior edge on one element only, so it
        # shows up as an open chain of "boundary" edges
        _check_cover(self)

    # -- queries -----------------------------------------------------------
    def edge_midpoints(self) -> np.ndarray:
        return 0.5 * (self.vertices[self.edges[:, 0]]
                      + self.vertices[self.edges[:, 1]])

    def centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)


def _barycentric_gradients(v, tris, area):
    # grad lambda_i is the inward normal of the opposite edge scaled by 1/(2|K|)
    p = v[tris]                                   # (nt, 3, 2)
    g = np.empty((len(tris), 3, 2))
    for i in range(3):
        a, b = _LOCAL_EDGES[i]
        e = p[:, b] - p[:, a]
        g[:, i, 0] = -e[:, 1]
        g[:, i, 1] = e[:, 0]
    g /= (2.0 * area)[:, None, None]
    return g


def barycentric(mesh: Triangulation, elems, points) -> np.ndarray:
    """Barycentric coordinates (..., 3) of points[i] in element elems[i]."""
    p = mesh.vertices[mesh.triangles[elems]]      # (..., 3, 2)
    T = np.stack([p[..., 1, :] - p[..., 0, :], p[..., 2, :] - p[..., 0, :]],
                 axis=-1)
    ab = np.linalg.solve(T, (np.asarray(points) - p[..., 0, :])[..., None])
    a, b = ab[..., 0, 0], ab[..., 1, 0]
    return np.stack([1.0 - a - b, a, b], axis=-1)


def build_initial(vertices, triangle_connectivity) -> Triangulation:
    """Build an oriented initial mesh with refinement edges assigned.

    The refinement edge of each triangle is its longest edge; ties are broken
    by the smallest opposite-vertex id.  Triangles given with negative area
    are reordered.
    """
    v = np.asarray(vertices, dtype=float)
    tris = np.asarray(triangle_connectivity, dtype=np.int64).copy()
    if tris.ndim != 2 or tris.shape[1] != 3:
        raise MeshError("connectivity must be (nt, 3)")
    repeated = ((tris[:, 0] == tris[:, 1]) | (tris[:, 1] == tris[:, 2])
                | (tris[:, 2] == tris[:, 0]))
    p = v[tris]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    bad = np.flatnonzero(repeated | (area == 0))
    if bad.size:
        k = bad[0]
        raise MeshError(f"degenerate triangle {k}: " + (
            "repeated vertex" if repeated[k] else "zero area"))
    tris[area < 0] = tris[area < 0][:, [0, 2, 1]]
    # rotate so that the refinement edge (longest, rounded to 14 digits; tie
    # -> smallest opposite vertex id) sits at local positions (0, 1)
    p = v[tris]
    lengths = np.round(np.stack(
        [np.linalg.norm(p[:, (i + 2) % 3] - p[:, (i + 1) % 3], axis=1)
         for i in range(3)], axis=1), 14)
    longest = lengths == lengths.max(axis=1, keepdims=True)
    best = np.argmin(np.where(longest, tris, np.iinfo(np.int64).max), axis=1)
    # refinement edge opposite local vertex `best`; want it as (v0, v1)
    shift = (best + 1) % 3
    tris = np.take_along_axis(tris, (np.arange(3) + shift[:, None]) % 3, 1)
    return Triangulation(v, tris)


def _check_cover(mesh: Triangulation):
    # conformity cross-check: the boundary edges must form closed loops,
    # i.e. each boundary vertex has exactly two incident boundary edges
    bnd = mesh.edges[mesh.boundary_edge]
    if len(bnd):
        counts = np.bincount(bnd.ravel())
        deg = counts[counts > 0]
        if np.any(deg != 2):
            raise MeshError("non-conforming input: open boundary chain "
                            "(hanging node or inconsistent connectivity)")


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
    if len(marked) == 0:
        return Triangulation(
            tri.vertices.copy(), tri.triangles.copy(),
            lineage=((tri.token, np.arange(nt), np.arange(tri.num_edges)),)
            + tri.lineage)

    te = tri.tri_edges
    refine_edge = np.zeros(tri.num_edges, dtype=bool)
    refine_edge[te[marked, 2]] = True
    # completion: any triangle with a marked edge must have its refinement
    # edge marked too; iterate to a fixpoint
    cap = 10 * nt + 10
    for _ in range(cap):
        tri_touched = refine_edge[te].any(axis=1)
        need = te[tri_touched, 2]
        before = refine_edge.sum()
        refine_edge[need] = True
        if refine_edge.sum() == before:
            break
    else:  # pragma: no cover - NVB completion always terminates
        raise MeshError("refinement-edge completion did not terminate")

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

    The map comes from bisect's genealogy and is verified geometrically:
    every fine vertex must lie in its ancestor.
    """
    anc = descent_maps(coarse, fine)[0]
    lam = barycentric(coarse, np.repeat(anc, 3),
                      fine.vertices[fine.triangles].reshape(-1, 2))
    if lam.min() < -1e-9:
        raise MeshError("fine mesh not nested in coarse mesh")
    return anc


def nesting_sets(coarse: Triangulation, fine: Triangulation) -> NestingSets:
    anc = ancestor_map(coarse, fine)
    counts = np.bincount(anc, minlength=coarse.num_triangles)
    if counts.min() == 0:
        raise MeshError("fine mesh does not cover the coarse mesh")
    fine_area = np.zeros(coarse.num_triangles)
    np.add.at(fine_area, anc, fine.area)
    if np.any(np.abs(fine_area - coarse.area) > 1e-12 * coarse.area):
        raise MeshError("fine mesh not nested: ancestor areas do not match")
    refined = np.flatnonzero(counts > 1)

    # touching = sharing at least one vertex with a refined coarse element,
    # which every refined element does
    refined_verts = np.unique(coarse.triangles[refined]) if len(refined) \
        else np.empty(0, dtype=np.int64)
    touch = np.isin(coarse.triangles, refined_verts).any(axis=1)
    neighborhood = np.flatnonzero(touch)
    return NestingSets(refined=refined, neighborhood=neighborhood,
                       ancestors=anc)


def refinement_ratio(coarse: Triangulation, fine: Triangulation) -> float:
    """max over coarse K of max over fine T inside K of h_K / h_T.

    A kept element has the same vertices, hence the same h, on both meshes,
    so without refinement the ratio is exactly 1.
    """
    anc = descent_maps(coarse, fine)[0]
    return float(np.max(coarse.h[anc] / fine.h))


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
