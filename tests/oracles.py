"""Independent reference implementations the property tests compare against.

These are the per-element loop versions of mesh and nesting code that the
package computes with vectorized array operations or reads from `bisect`'s
genealogy: geometric point location for ancestor maps, midpoint-on-edge
classification for edge maps, and loop versions of `build_initial`'s
orientation, `bisect`'s child emission and the topology fill. For the CR/P0
system: assembly through a per-element dof map masked on boundary edges,
the load vector by the degree-4 rule on each element's red children,
the consistency error through the same map and assembly, the solve
with a Lagrange multiplier row for the zero-mean pressure, and the
edge-midpoint values of a continuous P1 field as CR coefficients. For
conservative interpolation: the edge means of a field by a 16-point Gauss
rule, edge by edge. For the sqrt(N) counterexample: the whole criss-cross
diamond, of which `build_family` builds only the band along AC. For the
manufactured solutions: their symbolic derivation with sympy, evaluated
with mpmath at 40 digits.
"""

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from anfem.counterexample import CrissCrossFamily
from anfem.mesh import build_initial

# local edge i is opposite local vertex i
LOCAL_EDGES = ((1, 2), (2, 0), (0, 1))


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


def brute_topology(triangles):
    """(edges, tri_edges, edge_tris, boundary_edge) from a dict over the
    sorted vertex pairs of the local edges: the edges in lexicographic
    order, each with its incident elements in ascending id, -1 padded."""
    owners = {}
    for t, tri in enumerate(np.asarray(triangles).tolist()):
        for i, (a, b) in enumerate(LOCAL_EDGES):
            pair = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            owners.setdefault(pair, []).append((t, i))
    edges = sorted(owners)
    tri_edges = np.full((len(triangles), 3), -1, dtype=np.int64)
    edge_tris = np.full((len(edges), 2), -1, dtype=np.int64)
    for e, pair in enumerate(edges):
        for k, (t, i) in enumerate(sorted(owners[pair])):
            tri_edges[t, i] = e
            edge_tris[e, k] = t
    return (np.array(edges, dtype=np.int64).reshape(-1, 2), tri_edges,
            edge_tris, edge_tris[:, 1] < 0)


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


def full_criss_cross(n):
    """The criss-cross family on the whole diamond: 2 N^2 triangles in cell
    order i * n + j, with the sign nodes of `build_family` and its own strip
    of cells (i, i) along AC."""
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
    i = np.arange(-k, k + 1)
    return CrissCrossFamily(n=n, fine=build_initial(verts, tris),
                            sign_nodes=ids[k + 1 + i, k + i],
                            ac_cells=np.arange(n) * (n + 1))


def edge_means_of_field(field, mesh):
    """(ne, 2) means of `field` over every edge, edge by edge with the
    16-point Gauss-Legendre rule."""
    x, w = np.polynomial.legendre.leggauss(16)
    out = np.empty((mesh.num_edges, 2))
    for e, (a, b) in enumerate(mesh.vertices[mesh.edges]):
        pts = a + 0.5 * (x + 1.0)[:, None] * (b - a)
        out[e] = 0.5 * w @ field(pts[:, 0], pts[:, 1])
    return out


def reference_dofs(mesh):
    """(nt, 3) interior-edge index of each element's local edges, -1 on
    boundary edges; component c of interior edge k is dof 2 * k + c."""
    dof = np.full(mesh.num_edges, -1, dtype=np.int64)
    dof[mesh.interior_edges] = np.arange(len(mesh.interior_edges))
    return dof[mesh.tri_edges]


def reference_assembly(mesh, load):
    """(A, B, F) over the interior-edge dofs, scattered element by element
    with boundary edges masked out of a per-element dof map; F integrates
    g psi_i, psi_i = 1 - 2 lambda_i the CR basis function of local edge i,
    by the degree-4 rule, one local edge at a time."""
    from anfem.quadrature import DEG4_BARY, integrate_values, tri_points
    ldof = reference_dofs(mesh)
    nt, nu = mesh.num_triangles, 2 * len(mesh.interior_edges)
    gpsi = -2.0 * mesh.bary_grads
    S = load.mu * mesh.area[:, None, None] * np.einsum("tid,tjd->tij",
                                                       gpsi, gpsi)
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
    pts = tri_points(mesh, DEG4_BARY)
    gvals = load.g(pts[..., 0], pts[..., 1])
    F = np.zeros(nu)
    for i in range(3):
        mask = ldof[:, i] >= 0
        psi = 1.0 - 2.0 * DEG4_BARY[:, i]
        contrib = integrate_values(mesh.area[mask],
                                   psi[None, :, None] * gvals[mask])
        np.add.at(F, 2 * ldof[mask, i], contrib[:, 0])
        np.add.at(F, 2 * ldof[mask, i] + 1, contrib[:, 1])
    return A, B, F


# the red refinement of a triangle: its four children's corners in the
# parent's barycentric coordinates, MID[i] the midpoint of local edge i
MID = 0.5 * (1.0 - np.eye(3))
RED_CHILDREN = np.array([[np.eye(3)[0], MID[2], MID[1]],
                         [MID[2], np.eye(3)[1], MID[0]],
                         [MID[1], MID[0], np.eye(3)[2]],
                         [MID[0], MID[1], MID[2]]])


def red_load_vector(mesh, load):
    """The load vector (g, psi_i) over the interior-edge dofs, element by
    element, by the degree-4 rule on each of the element's four red
    children: exact, like the rule on the whole element, for a cubic g, but
    at other points."""
    from anfem.quadrature import DEG4_BARY, DEG4_WEIGHTS
    ldof = reference_dofs(mesh)
    F = np.zeros(2 * len(mesh.interior_edges))
    for t in range(mesh.num_triangles):
        corners = mesh.vertices[mesh.triangles[t]]
        for child in RED_CHILDREN:
            bary = DEG4_BARY @ child              # (6, 3) in the parent
            pts = bary @ corners
            g = load.g(pts[:, 0], pts[:, 1])
            for i in range(3):
                if ldof[t, i] >= 0:
                    w = DEG4_WEIGHTS * (1.0 - 2.0 * bary[:, i])
                    k = 2 * ldof[t, i]
                    F[k:k + 2] += 0.25 * mesh.area[t] * (w @ g)
    return F


def consistency_error(mesh, load):
    """Dual norm sup_v [(g, v) - (sigma, grad v)] / ||grad v|| over the CR
    space of the exact stress sigma = mu grad u + p I, element by element.
    The right-hand side of mu (grad w, grad v) = (g, v) - (sigma, grad v) is
    the load vector of `reference_assembly` minus the degree-4 integral of
    sigma against each basis gradient, with the load evaluated here; the
    norm is mu ||grad w|| = sqrt(mu w.Aw) with A of `reference_assembly`."""
    from anfem.quadrature import DEG4_BARY, DEG4_WEIGHTS, tri_points
    ldof = reference_dofs(mesh)
    A, _, rhs = reference_assembly(mesh, load)
    pts = tri_points(mesh, DEG4_BARY)
    grad_u = load.grad_velocity(pts[..., 0], pts[..., 1])
    p = load.pressure(pts[..., 0], pts[..., 1])
    for t in range(mesh.num_triangles):
        sigma = load.mu * grad_u[t] + p[t, :, None, None] * np.eye(2)
        sigma_int = mesh.area[t] * np.tensordot(DEG4_WEIGHTS, sigma, 1)
        for i in range(3):
            if ldof[t, i] >= 0:
                k = 2 * ldof[t, i]
                rhs[k:k + 2] -= sigma_int @ (-2.0 * mesh.bary_grads[t, i])
    w = spla.spsolve(A.tocsc(), rhs)
    return float(np.sqrt(load.mu * (w @ (A @ w))))


def pointwise_exact_terms(sol):
    """(||grad_h(u - u_h)||^2, ||p - p_h||^2, int_K grad u, int_K p) of a
    discrete solution of a load with an exact solution, the degree-4 rule
    applied to the values at its points: the errors to the squared
    differences, so that nothing cancels between the integrals of |grad u|^2,
    grad u and |grad u_h|^2 that `spaces.velocity_error_sq` sums."""
    from anfem.quadrature import DEG4_BARY, DEG4_WEIGHTS, tri_points
    mesh, load = sol.mesh, sol.values.load
    pts = tri_points(mesh, DEG4_BARY)
    grad_u = load.grad_velocity(pts[..., 0], pts[..., 1])
    p = load.pressure(pts[..., 0], pts[..., 1])
    diff = grad_u - sol.grads[:, None, :, :]
    per_pt = np.einsum("tqij,tqij->tq", diff, diff)
    err_u2 = float((mesh.area * (per_pt @ DEG4_WEIGHTS)).sum())
    err_p2 = float((mesh.area * ((p - sol.p[:, None]) ** 2
                                 @ DEG4_WEIGHTS)).sum())
    return (err_u2, err_p2,
            mesh.area[:, None, None] * np.tensordot(DEG4_WEIGHTS, grad_u,
                                                    (0, 1)),
            mesh.area * (p @ DEG4_WEIGHTS))


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
