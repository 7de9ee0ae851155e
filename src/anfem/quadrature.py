"""Fixed quadrature rules: degree 4 on triangles, 10-point Gauss on edges."""

from __future__ import annotations

import numpy as np

# 6-point rule, exact for degree 4
_a1, _b1 = 0.816847572980459, 0.091576213509771
_a2, _b2 = 0.108103018168070, 0.445948490915965
DEG4_BARY = np.array([
    [_a1, _b1, _b1], [_b1, _a1, _b1], [_b1, _b1, _a1],
    [_a2, _b2, _b2], [_b2, _a2, _b2], [_b2, _b2, _a2]])
DEG4_WEIGHTS = np.array([0.109951743655322] * 3 + [0.223381589678011] * 3)

# 10-point Gauss-Legendre rule on [0, 1], exact for degree 19, weights
# summing to 1: the lower five nodes and their weights, mirrored about 1/2
_s = np.array([0.013046735741414128, 0.06746831665550773,
               0.16029521585048778, 0.2833023029353764, 0.4255628305091844])
_w = np.array([0.03333567215434407, 0.0747256745752902, 0.109543181257991,
               0.13463335965499826, 0.1477621123573764])
EDGE_NODES = np.concatenate([_s, 1.0 - _s[::-1]])
EDGE_WEIGHTS = np.concatenate([_w, _w[::-1]])


def combine3(w, x):
    """sum_i w[..., i] x[..., i, :], added for i = 0, 1, 2 as einsum does."""
    return (w[..., 0, None] * x[..., 0, :] + w[..., 1, None] * x[..., 1, :]
            + w[..., 2, None] * x[..., 2, :])


def tri_points(mesh, bary, elements=slice(None)):
    """Physical quadrature points (nt, nq, 2) of `elements` (default all)."""
    return combine3(bary, mesh.corners(elements)[:, None])


def edge_points(mesh, s, edges):
    """Points (ns, ne, 2) at the fractions s along `edges`, low to high id."""
    p0, p1 = mesh.vertices.take(mesh.edges[edges].T, axis=0)
    return p0 * (1.0 - s)[:, None, None] + p1 * s[:, None, None]


def integrate(mesh, f, bary=DEG4_BARY, weights=DEG4_WEIGHTS):
    """Elementwise integrals of f(x, y); returns (nt, ...) array."""
    pts = tri_points(mesh, bary)
    return integrate_values(mesh.area, f(pts[..., 0], pts[..., 1]), weights)


def integrate_values(area, vals, weights=DEG4_WEIGHTS):
    """Integrals over n elements of areas `area` from values (n, nq, ...)."""
    extra = vals.shape[2:]
    w = weights.reshape((1, -1) + (1,) * len(extra))
    sums = (vals * w).sum(axis=1)
    return sums * area.reshape((-1,) + (1,) * len(extra))
