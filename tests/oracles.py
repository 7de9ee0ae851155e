"""Independent reference implementations the property tests compare against.

These are the per-element loop versions of mesh and nesting code that the
package computes with vectorized array operations or reads from `bisect`'s
genealogy: geometric point location for ancestor maps, midpoint-on-edge
classification for edge maps, and loop versions of `build_initial`'s
orientation, `bisect`'s child emission and the topology fill. For the CR/P0
system: assembly through a per-element dof map masked on boundary edges,
the solve with a Lagrange multiplier row for the zero-mean pressure, and
the edge-midpoint values of a continuous P1 field as CR coefficients. For
the manufactured solutions: their symbolic derivation with sympy, evaluated
with mpmath at 40 digits.
"""

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

# local edge i is opposite local vertex i
LOCAL_EDGES = ((1, 2), (2, 0), (0, 1))
# barycentric coordinates of the midpoint of local edge i, row i
MIDPOINT_BARY = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])


def point_barycentric(mesh, k, point):
    p = mesh.vertices[mesh.triangles[k]]
    T = np.column_stack([p[1] - p[0], p[2] - p[0]])
    ab = np.linalg.solve(T, np.asarray(point) - p[0])
    return np.array([1.0 - ab[0] - ab[1], ab[0], ab[1]])


class TriLocator:
    """Uniform-grid point location for a fixed triangulation."""

    def __init__(self, mesh):
        self.mesh = mesh
        pts = mesh.vertices[mesh.triangles]
        self.lo = pts.reshape(-1, 2).min(axis=0)
        hi = pts.reshape(-1, 2).max(axis=0)
        n = max(1, int(np.sqrt(mesh.num_triangles)))
        self.n = n
        self.size = np.maximum(hi - self.lo, 1e-300) / n
        self.buckets = {}
        bmin = np.floor((pts.min(axis=1) - self.lo) / self.size).astype(int)
        bmax = np.floor((pts.max(axis=1) - self.lo) / self.size).astype(int)
        bmin = np.clip(bmin, 0, n - 1)
        bmax = np.clip(bmax, 0, n - 1)
        for k in range(mesh.num_triangles):
            for i in range(bmin[k, 0], bmax[k, 0] + 1):
                for j in range(bmin[k, 1], bmax[k, 1] + 1):
                    self.buckets.setdefault((i, j), []).append(k)

    def locate(self, point, tol=1e-10):
        cell = np.clip(np.floor((point - self.lo) / self.size).astype(int),
                       0, self.n - 1)
        for k in self.buckets.get((cell[0], cell[1]), ()):
            if point_barycentric(self.mesh, k, point).min() >= -tol:
                return k
        for k in range(self.mesh.num_triangles):
            if point_barycentric(self.mesh, k, point).min() >= -tol:
                return k
        return -1


def located_ancestors(coarse, fine):
    """Coarse element containing each fine centroid, -1 where none does."""
    loc = TriLocator(coarse)
    return np.array([loc.locate(c) for c in fine.centroids()],
                    dtype=np.int64)


def geometric_edge_map(coarse, fine, ancestors, tol=1e-10):
    """Coarse edge each fine edge lies on (its midpoint has a zero
    barycentric coordinate in the ancestor of an incident element), else -1.
    """
    mids = fine.edge_midpoints()
    out = np.full(fine.num_edges, -1, dtype=np.int64)
    for e in range(fine.num_edges):
        k = ancestors[fine.edge_tris[e, 0]]
        onedge = np.flatnonzero(
            np.abs(point_barycentric(coarse, k, mids[e])) <= tol)
        if onedge.size:
            out[e] = coarse.tri_edges[k, onedge[0]]
    return out


def reference_topology(triangles):
    """(edges, tri_edges, edge_tris) by the sort-and-fill loop."""
    tris = np.asarray(triangles)
    raw = np.concatenate([tris[:, [a, b]] for a, b in LOCAL_EDGES], axis=0)
    edges, inverse = np.unique(np.sort(raw, axis=1), axis=0,
                               return_inverse=True)
    inverse = inverse.ravel()
    tri_edges = inverse.reshape(3, -1).T.copy()
    edge_tris = np.full((len(edges), 2), -1, dtype=np.int64)
    order = np.argsort(inverse, kind="stable")
    tri_of_row = np.tile(np.arange(len(tris)), 3)[order]
    first = np.ones(len(edges), dtype=bool)
    for t, e in zip(tri_of_row, inverse[order]):
        if first[e]:
            edge_tris[e, 0] = t
            first[e] = False
        elif t < edge_tris[e, 0]:
            edge_tris[e, 1] = edge_tris[e, 0]
            edge_tris[e, 0] = t
        else:
            edge_tris[e, 1] = t
    return edges, tri_edges, edge_tris


def reference_bisect(tri, marked):
    """(vertices, triangles, parent) by the per-element emit loop, for a
    non-empty list of integer element ids."""
    marked = np.asarray(sorted(set(int(m) for m in marked)), dtype=np.int64)
    refine_edge = np.zeros(tri.num_edges, dtype=bool)
    refine_edge[tri.tri_edges[marked, 2]] = True
    while True:
        need = tri.tri_edges[refine_edge[tri.tri_edges].any(axis=1), 2]
        if refine_edge[need].all():
            break
        refine_edge[need] = True
    new_vid = np.full(tri.num_edges, -1, dtype=np.int64)
    ref_ids = np.flatnonzero(refine_edge)
    new_vid[ref_ids] = tri.num_vertices + np.arange(len(ref_ids))
    vertices = np.vstack([tri.vertices, tri.edge_midpoints()[ref_ids]])
    out = []
    for k in range(tri.num_triangles):
        t, e = tri.triangles[k], tri.tri_edges[k]
        if not refine_edge[e].any():
            out.append((tuple(t), k))
            continue
        m2 = new_vid[e[2]]
        for child, child_edge in (((t[2], t[0], m2), e[1]),
                                  ((t[1], t[2], m2), e[0])):
            if refine_edge[child_edge]:
                mm = new_vid[child_edge]
                a, b, c = child
                out.append(((c, a, mm), k))
                out.append(((b, c, mm), k))
            else:
                out.append((child, k))
    tris, parent = (np.array(col, dtype=np.int64) for col in zip(*out))
    return vertices, tris, parent


def reference_orientation(vertices, triangles):
    """build_initial's oriented and rotated connectivity by the loops:
    positive area, refinement edge (longest, rounded to 14 digits; ties to
    the smallest opposite vertex id) at local positions (0, 1)."""
    v = np.asarray(vertices, dtype=float)
    tris = np.asarray(triangles, dtype=np.int64).copy()
    for k, t in enumerate(tris):
        e1, e2 = v[t[1]] - v[t[0]], v[t[2]] - v[t[0]]
        if e1[0] * e2[1] - e1[1] * e2[0] < 0:
            tris[k] = t[[0, 2, 1]]
    for k, t in enumerate(tris):
        p = v[t]
        lengths = [np.linalg.norm(p[(i + 2) % 3] - p[(i + 1) % 3])
                   for i in range(3)]
        best = min(range(3), key=lambda i: (-round(lengths[i], 14), t[i]))
        tris[k] = np.roll(t, -((best + 1) % 3))
    return tris


def reference_assembly(mesh, load, mu=1.0):
    """(A, B, F) over the interior-edge dofs, scattered element by element
    with boundary edges masked out of a per-element dof map; the load is
    evaluated at each element's three edge midpoints."""
    from anfem.quadrature import tri_points
    dof = np.full(mesh.num_edges, -1, dtype=np.int64)
    dof[mesh.interior_edges] = np.arange(len(mesh.interior_edges))
    ldof = dof[mesh.tri_edges]
    nt, nu = mesh.num_triangles, 2 * len(mesh.interior_edges)
    gpsi = -2.0 * mesh.bary_grads
    S = mu * mesh.area[:, None, None] * np.einsum("tid,tjd->tij", gpsi, gpsi)
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            mask = (ldof[:, i] >= 0) & (ldof[:, j] >= 0)
            for c in range(2):
                rows.append(2 * ldof[mask, i] + c)
                cols.append(2 * ldof[mask, j] + c)
                vals.append(S[mask, i, j])
    A = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nu, nu))
    brows, bcols, bvals = [], [], []
    for i in range(3):
        mask = ldof[:, i] >= 0
        for c in range(2):
            brows.append(np.flatnonzero(mask))
            bcols.append(2 * ldof[mask, i] + c)
            bvals.append(mesh.area[mask] * gpsi[mask, i, c])
    B = sparse.csr_matrix(
        (np.concatenate(bvals), (np.concatenate(brows), np.concatenate(bcols))),
        shape=(nt, nu))
    mids = tri_points(mesh, MIDPOINT_BARY)
    gvals = load.g(mids[..., 0], mids[..., 1])
    F = np.zeros(nu)
    for i in range(3):
        mask = ldof[:, i] >= 0
        contrib = (mesh.area[mask] / 3.0)[:, None] * gvals[mask, i]
        np.add.at(F, 2 * ldof[mask, i], contrib[:, 0])
        np.add.at(F, 2 * ldof[mask, i] + 1, contrib[:, 1])
    return A, B, F


def multiplier_solve(A, B, F, area):
    """(u, p) of the saddle system with the zero-mean pressure imposed by one
    Lagrange multiplier row and column coupling every pressure."""
    nu, nt = A.shape[0], B.shape[0]
    a_col = sparse.csr_matrix(
        (area, (np.arange(nt), np.zeros(nt, dtype=np.int64))), shape=(nt, 1))
    K = sparse.bmat([[A, B.T, None], [B, None, a_col], [None, a_col.T, None]],
                    format="csc")
    rhs = np.concatenate([F, np.zeros(nt + 1)])
    lu = spla.splu(K)
    sol = lu.solve(rhs)
    for _ in range(2):
        sol = sol + lu.solve(rhs - K @ sol)
    p = sol[nu:nu + nt]
    return sol[:nu], p - (area @ p) / area.sum()


def p1_to_cr(nodal, mesh):
    """Edge midpoint values of a continuous P1 field as CR coefficients."""
    nod = nodal.reshape(-1, 2)
    e = mesh.edges[mesh.interior_edges]
    return (0.5 * (nod[e[:, 0]] + nod[e[:, 1]])).ravel()


# ---------------------------------------------------------------------------
# symbolic derivations of the manufactured solutions


def smooth1_expressions(mu):
    """((x, y), fields) of `smooth1` with sympy: fields maps "g", "velocity",
    "grad_velocity" and "pressure" to expressions (nested lists for the
    vector and tensor fields)."""
    import sympy as sp
    x, y = sp.symbols("x y", real=True)
    psi = (x * (1 - x) * y * (1 - y)) ** 2
    u1 = sp.diff(psi, y)
    u2 = -sp.diff(psi, x)
    p = x ** 3 - sp.Rational(1, 4)
    g1 = -mu * (sp.diff(u1, x, 2) + sp.diff(u1, y, 2)) - sp.diff(p, x)
    g2 = -mu * (sp.diff(u2, x, 2) + sp.diff(u2, y, 2)) - sp.diff(p, y)
    return (x, y), {
        "g": [g1, g2], "velocity": [u1, u2],
        "grad_velocity": [[sp.diff(u, var) for var in (x, y)]
                          for u in (u1, u2)],
        "pressure": p}


def lshape_singular_expressions(mu):
    """((r, t), fields) of `lshape_singular` in polar coordinates, derived by
    differentiating u = curl(B r^(1+a) psi(t)) with sympy; the pressure,
    -B p_std, has zero mean as it is. Each field of g is the full
    -mu*Lap(u) - grad(p), whose leading r^(a-2) terms cancel."""
    import sympy as sp
    from anfem.problems import LSHAPE_ALPHA
    # all the digits of the double: with fewer, the r^(a-2) terms of g no
    # longer cancel to the working precision near the corner
    a = sp.Float(LSHAPE_ALPHA, 40)
    w = 3 * sp.pi / 2
    r, t = sp.symbols("r t", positive=True)
    psi = (sp.sin((1 + a) * t) * sp.cos(a * w) / (1 + a)
           - sp.cos((1 + a) * t)
           - sp.sin((1 - a) * t) * sp.cos(a * w) / (1 - a)
           + sp.cos((1 - a) * t))

    xc, yc = r * sp.cos(t), r * sp.sin(t)
    B = (1 - xc ** 2) ** 2 * (1 - yc ** 2) ** 2 / (1 + 8 * r ** 2)

    def dx(f):
        return sp.cos(t) * sp.diff(f, r) - sp.sin(t) / r * sp.diff(f, t)

    def dy(f):
        return sp.sin(t) * sp.diff(f, r) + sp.cos(t) / r * sp.diff(f, t)

    stream = B * r ** (1 + a) * psi
    u1, u2 = dy(stream), -dx(stream)
    p_std = -r ** (a - 1) * ((1 + a) ** 2 * sp.diff(psi, t)
                             + sp.diff(psi, t, 3)) / (1 - a)
    p = -mu * B * p_std
    g1 = -mu * (dx(dx(u1)) + dy(dy(u1))) - dx(p)
    g2 = -mu * (dx(dx(u2)) + dy(dy(u2))) - dy(p)
    return (r, t), {
        "g": [g1, g2], "velocity": [u1, u2],
        "grad_velocity": [[dx(u1), dy(u1)], [dx(u2), dy(u2)]],
        "pressure": p}


def mp_evaluate(symbols, expr, x, y, polar=False, dps=40):
    """Values of a sympy expression, or a (nested) list of them, at the
    points (x[k], y[k]) with mpmath at `dps` digits, rounded to float; shape
    (npoints,) + the list's shape. With `polar` the symbols are (r, t), t the
    angle in [0, 2 pi)."""
    import mpmath
    import sympy as sp
    shape = np.shape(np.array(expr, dtype=object))
    # one flat list, so that cse shares subexpressions across all entries
    f = sp.lambdify(symbols, list(np.ravel(np.array(expr, dtype=object))),
                    "mpmath", cse=True)
    out = []
    with mpmath.workdps(dps):
        for xk, yk in zip(np.ravel(x), np.ravel(y)):
            args = (mpmath.mpf(float(xk)), mpmath.mpf(float(yk)))
            if polar:
                t = mpmath.atan2(args[1], args[0])
                args = (mpmath.hypot(*args), t + 2 * mpmath.pi if t < 0 else t)
            out.append(f(*args))
    return np.array(out, dtype=float).reshape((-1,) + shape)
