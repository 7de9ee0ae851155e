"""Load functions and manufactured solutions.

Sign convention: the weak form is a(u,v) + b(v,p) + b(u,q) = (g,v) with
b(v,q) = (div v, q), so the strong form is -mu*Lap(u) - grad(p) = g.

A load owns its viscosity: `LoadFunction.mu`, the mu of its g and exact
solution, is the one copy assembly, the solve and the monitors read.

Both manufactured solutions are closed forms in numpy. `smooth1` is a
product of 1-D polynomials. `lshape_singular` is the curl of the stream
function S = B(x, y) * Phi with the smooth cut-off B and the pure corner
flow Phi = r^(1+a) psi(theta); S's partial derivatives come from the
Leibniz rule on the Taylor jets of B and Phi (`_jet_mul`), and those of Phi
and its pressure p_std from its complex (Goursat) form Phi = Re(A z^(1+a) +
E z zbar^a), each of whose derivatives is two powers of zbar with constant
coefficients (`_corner`). sympy is not used: the tests compare both
solutions with their symbolic derivation. `check_no_slip` refuses a mesh on
whose boundary an exact velocity is not zero (it solves another domain);
`spaces.solve`, both loops and `anfem adapt` call it.

Each manufactured solution is one joint pass, (x, y, names) -> {name:
values}, that shares the points, the jets and the corner powers between
the fields it is asked for; its callables `g`, `velocity`,
`grad_velocity` and `pressure` are views of that pass (`_View`), one field
each. `PointValues` is a mesh's one record of a load's values at the edge
midpoints and of its per-element degree-4 integrals; `PointValues.descend`
derives the record of a refined mesh from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial, prod
from typing import Callable

import numpy as np

from . import quadrature as quad
from .mesh import Triangulation, kept_rows


class _View:
    """The field `name` of a joint pass built for viscosity `mu`, as a
    callable (x, y) -> values."""

    def __init__(self, joint: Callable, name: str, mu: float):
        self.joint, self.name, self.mu = joint, name, mu

    def __call__(self, x, y):
        return self.joint(x, y, (self.name,))[self.name]


@dataclass
class LoadFunction:
    g: Callable                     # (x, y) arrays -> (..., 2)
    velocity: Callable | None = None  # exact u, same signature
    grad_velocity: Callable | None = None  # (x, y) -> (..., 2, 2), d u_i / d x_j
    pressure: Callable | None = None
    mu: float = 1.0                 # the viscosity of -mu Lap(u) - grad(p) = g

    def __post_init__(self):
        # a bool is a number to every comparison (True == 1)
        if isinstance(self.mu, bool) or not 0.0 < self.mu < np.inf:
            raise ValueError(f"viscosity mu must be positive and finite, "
                             f"got {self.mu!r}")
        kinds = {f if f is None else callable(f)
                 for f in (self.velocity, self.grad_velocity, self.pressure)}
        if not callable(self.g) or kinds not in ({None}, {True}):
            raise ValueError("a load needs a callable g, and callable "
                             "velocity, grad_velocity and pressure or none")
        # a view's fields are those of its own mu, which
        # `dataclasses.replace(load, mu=...)` would leave behind
        for name in _STREAM_ORDER:
            f = getattr(self, name)
            if isinstance(f, _View) and f.mu != self.mu:
                raise ValueError(f"{name} is a field of viscosity {f.mu!r}, "
                                 f"not of mu = {self.mu!r}")

    @property
    def has_exact(self) -> bool:
        return self.velocity is not None

    def evaluate(self, x, y, names) -> dict:
        """{name: the callable `name` at (x, y)} for the named fields: one
        joint pass when every named callable is a view of the same one,
        else one call each, so that a callable replaced after construction
        (`dataclasses.replace`, `setattr`) is the one evaluated."""
        fns = [getattr(self, name) for name in names]
        if all(isinstance(f, _View) and f.joint is fns[0].joint
               for f in fns):
            return fns[0].joint(x, y, tuple(names))
        return {name: f(x, y) for name, f in zip(names, fns)}


def _xy(x, y):
    return np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))


# ---------------------------------------------------------------------------
# Taylor jets. The jet of order m of f at an array of points maps (i, j),
# i + j <= m, to d^(i+j) f / dx^i dy^j / (i! j!) there, so the jet of a
# product is the truncated product of two Taylor polynomials: the Leibniz
# rule. Both manufactured solutions are u = curl S for a stream function S
# given by its jet.

def _jet_keys(order: int) -> list:
    return [(i, k - i) for k in range(order + 1) for i in range(k, -1, -1)]


# the coefficients of order exactly 1, 2 and 3: those u, grad u and Lap u
# take from the stream function's jet
_JET1, _JET2, _JET3 = ([key for key in _jet_keys(m) if sum(key) == m]
                       for m in (1, 2, 3))


def _jet_mul(f: dict, h: dict, keys) -> dict:
    """The coefficients `keys` of the jet of f*h; a key missing from f or h
    is a zero coefficient."""
    return {(i, j): sum(fc * h[i - k, j - l] for (k, l), fc in f.items()
                        if k <= i and l <= j and (i - k, j - l) in h)
            for i, j in keys}


def _curl(s):
    """u = curl S = (S_y, -S_x) from the jet s of S."""
    return np.stack([s[0, 1], -s[1, 0]], axis=-1)


def _grad_curl(s):
    """grad u, d u_i / d x_j, from the jet s of S."""
    out =np.empty(s[1, 1].shape + (2, 2))
    out[..., 0, 0] = s[1, 1]
    out[..., 0, 1] = 2.0 * s[0, 2]
    out[..., 1, 0] = -2.0 * s[2, 0]
    out[..., 1, 1] = -s[1, 1]
    return out


def _minus_lap_curl(s):
    """-Lap(u) = (-(S_xxy + S_yyy), S_xxx + S_xyy) from the jet s of S, as
    two arrays."""
    return -2.0 * s[2, 1] - 6.0 * s[0, 3], 6.0 * s[3, 0] + 2.0 * s[1, 2]


def _smooth1_factor_jet(s):
    """Taylor coefficients of f(s) = s^2 (1-s)^2: f, f', f''/2, f'''/6."""
    return [(s * (1.0 - s)) ** 2, 2.0 * s * (1.0 - s) * (1.0 - 2.0 * s),
            1.0 - 6.0 * s + 6.0 * s * s, 4.0 * s - 2.0]


# the order of the stream function's jet each field needs
_STREAM_ORDER = {"pressure": 0, "velocity": 1, "grad_velocity": 2, "g": 3}


def _stream_fields(s, names) -> dict:
    """u and grad u, among `names`, from the jet s of the stream function."""
    out = {}
    if "velocity" in names:
        out["velocity"] = _curl(s)
    if "grad_velocity" in names:
        out["grad_velocity"] = _grad_curl(s)
    return out


def _from_joint(joint, mu) -> LoadFunction:
    """A LoadFunction of viscosity `mu` whose callables view `joint`."""
    return LoadFunction(mu=mu, **{n: _View(joint, n, mu)
                                  for n in _STREAM_ORDER})


def smooth1(mu: float = 1.0) -> LoadFunction:
    """Divergence-free polynomial flow on the unit square, cubic pressure.

    u = curl(f(x) f(y)) with f(s) = s^2 (1-s)^2, which vanishes with its
    derivative on the boundary, and p = x^3 - 1/4 (zero mean).
    """

    def joint(x, y, names):
        x, y = _xy(x, y)
        order = max(_STREAM_ORDER[name] for name in names)
        fx, fy = _smooth1_factor_jet(x), _smooth1_factor_jet(y)
        s = {(i, j): fx[i] * fy[j] for i, j in _jet_keys(order)}
        out = _stream_fields(s, names)
        if "g" in names:
            g1, g2 = _minus_lap_curl(s)
            out["g"] = np.stack([mu * g1 - 3.0 * x * x, mu * g2], axis=-1)
        if "pressure" in names:
            out["pressure"] = x ** 3 - 0.25
        return out

    return _from_joint(joint, mu)


def constant_load(gx: float = 1.0, gy: float = 0.0,
                  mu: float = 1.0) -> LoadFunction:
    def g(x, y):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape + (2,))
        out[..., 0] = gx
        out[..., 1] = gy
        return out
    return LoadFunction(g=g, mu=mu)


# ---------------------------------------------------------------------------
# The L-shape corner flow

# corner exponent for the reentrant angle 3*pi/2: root of sin(a*w) = a
LSHAPE_ALPHA = 0.5444837367824645


def _bubble_jet(x, y, order: int) -> dict:
    """Jet of B = (1-x^2)^2 (1-y^2)^2 / (1 + 8 r^2), the cut-off that vanishes
    to second order on the boundary of [-1, 1]^2."""
    # (1 - s^2)^2 and its scaled derivatives
    qx = [(1.0 - x * x) ** 2, 4.0 * x * (x * x - 1.0), 6.0 * x * x - 2.0,
          4.0 * x]
    qy = [(1.0 - y * y) ** 2, 4.0 * y * (y * y - 1.0), 6.0 * y * y - 2.0,
          4.0 * y]
    den = {(1, 0): 16.0 * x, (0, 1): 16.0 * y, (2, 0): 8.0, (0, 2): 8.0}
    d0 = 1.0 + 8.0 * (x * x + y * y)
    # B * den = numerator, solved for B's coefficients by increasing order
    jet = {}
    for i, j in _jet_keys(order):
        rest = _jet_mul(den, jet, [(i, j)])[i, j]
        jet[i, j] = (qx[i] * qy[j] - rest) / d0
    return jet


# The corner flow Phi = r^(1+a) psi(theta), with psi the Stokes eigenfunction
# of the angle 3*pi/2, in Goursat form
#   Phi = Re(A z^(1+a) + z G(zbar)),  G(w) = E w^a,
# A = -1 - i cw/(1+a), E = 1 + i cw/(1-a), cw = cos(3 pi a/2); its pressure
# for mu = 1 is p_std = Re(-4i G'(zbar)). As dx = dz + dzbar,
# dy = i (dz - dzbar) and z G(zbar) is linear in z, for n = i + j
#   dx^i dy^j z^(1+a) = i^j (1+a) a ... (2+a-n) z^(1+a-n),
#   dx^i dy^j [z G(zbar)] = (-i)^j (z G^(n)(zbar) + (i - j) G^(n-1)(zbar)).
# Re is unchanged by conjugation, so the first term is taken as
# (-i)^j conj(A) (1+a) a ... (2+a-n) zbar^(1+a-n): each derivative is
# c1 zbar^(1+a-n) + c2 z zbar^(a-n) with constants c1, c2.

def _falling(s: float, n: int) -> float:
    """s (s-1) ... (s-n+1); 1 for n <= 0."""
    return prod((s - k for k in range(n)), start=1.0)


def _corner(x, y, r, t, keys) -> tuple:
    """The jet coefficients `keys` (i, j) of Phi, and p_std, at the points."""
    a = LSHAPE_ALPHA
    cw = np.cos(a * 1.5 * np.pi)
    conj_big_a = -1.0 + 1j * cw / (1 + a)
    big_e = 1.0 + 1j * cw / (1 - a)
    z = x + 1j * y
    zbar = np.conj(z)
    # zbar^(1+a-m) on the branch theta in [0, 2 pi), up to the m the keys
    # and p_std need: m = 1 is zbar^a, the others multiply or divide it by
    # zbar. At the corner zbar = 0 and r is clamped; dividing by 1 there
    # keeps every field finite.
    powers = {1: r ** a * np.exp(-1j * a * t)}
    if keys:
        powers[0] = zbar * powers[1]
    divisor = np.where(zbar == 0, 1.0, zbar)
    for m in range(2, max([2] + [i + j + 1 for i, j in keys]) + 1):
        powers[m] = powers[m - 1] / divisor
    jet = {}
    for i, j in keys:
        n = i + j
        scale = (-1j) ** j / (factorial(i) * factorial(j))
        c1 = scale * (conj_big_a * _falling(1 + a, n)
                      + (i - j) * big_e * _falling(a, n - 1))
        c2 = scale * big_e * _falling(a, n)
        jet[i, j] = (c1 * powers[n] + c2 * (z * powers[n + 1])).real
    return jet, (-4j * big_e * a * powers[2]).real


def _lshape_points(x, y):
    """x, y, r and the domain angle theta in [0, 2 pi) (the L-shape spans
    (0, 3 pi/2)) as broadcast float arrays."""
    x, y = _xy(x, y)
    r = np.maximum(np.hypot(x, y), 1e-300)
    t = np.arctan2(y, x)
    t = np.where(t < 0, t + 2.0 * np.pi, t)
    return x, y, r, t


def lshape_singular(mu: float = 1.0) -> LoadFunction:
    """Manufactured corner singularity on the L-shaped domain (u ~ r^0.544).

    u = curl S with S = B Phi: the corner flow Phi = r^(1+a) psi(theta)
    (psi the Stokes corner eigenfunction for the angle 3*pi/2, a =
    LSHAPE_ALPHA) times the cut-off B = (1-x^2)^2 (1-y^2)^2 / (1 + 8 r^2),
    which vanishes to second order on the outer boundary and damps the
    smooth far field so the corner singularity dominates the error. So u is
    divergence-free, satisfies no-slip and behaves like the pure r^a
    singularity at the corner. p = -mu B p_std, with p_std =
    r^(a-1) Q(theta) the pressure of Phi. p is odd under the reflection
    (x, y) -> (-y, -x), which maps the L-shape onto itself, so its mean is
    exactly zero.

    One pass serves every field asked for: the points, B's jet to the
    highest order a field needs (1 for u, 2 for grad u, 3 for g; its lower
    entries do not depend on that order) and Phi's jet and p_std from one
    set of corner powers. In g = -mu Lap(curl S) + mu grad(B p_std) the
    terms with no derivative on B sum to mu B (-Lap(curl Phi) +
    grad(p_std)), which is identically 0 (Phi and p_std solve Stokes), so
    they are left out: they are r^(a-2) sized terms that would cancel in
    floating point. What is left is bounded (g ~ r^a at the corner) and
    accurate at any radius, and needs Phi's jet to order 2 only.
    """

    def joint(x, y, names):
        x, y, r, t = _lshape_points(x, y)
        order = max(_STREAM_ORDER[name] for name in names)
        b = _bubble_jet(x, y, order)
        keys = _jet_keys(min(order, 2)) if order else []
        phi, pstd = _corner(x, y, r, t, keys)
        out = _stream_fields(_jet_mul(
            b, phi, (_JET1 if "velocity" in names else [])
            + (_JET2 if "grad_velocity" in names else [])), names)
        if "pressure" in names:
            out["pressure"] = mu * (-b[0, 0] * pstd)
        if "g" in names:
            # B * (pure corner residual) = 0
            rest = {key: v for key, v in b.items() if key != (0, 0)}
            g1, g2 = _minus_lap_curl(_jet_mul(rest, phi, _JET3))
            out["g"] = mu * np.stack([b[1, 0] * pstd + g1,
                                      b[0, 1] * pstd + g2], axis=-1)
        return out

    return _from_joint(joint, mu)


# ---------------------------------------------------------------------------
# one record of a load's values per mesh

# elements or edges per call of a load in `PointValues`: a joint pass at the
# degree-4 points holds several times its results in temporaries, so
# evaluating in blocks keeps those to one block's worth
EVAL_BLOCK = 2048


class PointValues:
    """A load's values on one mesh, each part built on first use as {field
    name: array}: `at_midpoints`, g at the edge midpoints (the load
    vector), and `moments`, the per-element degree-4 integrals every
    functional takes. `descend` gives the record of the same load on a
    refined mesh.
    """

    def __init__(self, mesh: Triangulation, load: LoadFunction):
        self.mesh, self.load = mesh, load
        # part -> (the previous record's part, the source row there of each
        # row here, -1 for a new one); a part drops its entry once built
        self._carry = {}

    def descend(self, fine: Triangulation) -> PointValues:
        """The record of this load on `fine`, a mesh that descends from this
        record's mesh by `bisect` (else `MeshError`). Each part copies from
        this record's (if that one is built) the rows of the elements and
        edges whose corner coordinates `bisect` kept (`kept_rows`) and
        computes only the others, so the values equal a full evaluation
        bit for bit."""
        out = PointValues(fine, self.load)
        elements, edges = kept_rows(self.mesh, fine)
        for part, source in (("at_midpoints", edges),
                             ("moments", elements)):
            if part in vars(self):
                out._carry[part] = (vars(self)[part], source)
        return out

    def _rows(self, part, count, block) -> dict:
        """The `count` rows of `part`: the carried rows copied, the others
        from `block(rows)`, `EVAL_BLOCK` rows at a time."""
        carried, source = self._carry.pop(part, ({}, np.full(count, -1)))
        new = np.flatnonzero(source < 0)
        out = {}
        # at least one pass, so that the fields' shapes are known
        for start in range(0, max(len(new), 1), EVAL_BLOCK):
            rows = new[start:start + EVAL_BLOCK]
            for name, values in block(rows).items():
                if name not in out:
                    out[name] = np.empty((count,) + values.shape[1:])
                out[name][rows] = values
        kept = source >= 0
        for name, values in carried.items():
            out[name][kept] = values[source[kept]]
        return out

    @cached_property
    def at_midpoints(self) -> dict:
        mids = self.mesh.edge_midpoints()
        return self._rows(
            "at_midpoints", self.mesh.num_edges,
            lambda rows: self.load.evaluate(mids[rows, 0], mids[rows, 1],
                                            ("g",)))

    @cached_property
    def moments(self) -> dict:
        """Per element K, the degree-4 integrals over K of g (`g`) and |g|^2
        (`g2`) and, with an exact solution, of grad u, |grad u|^2, p and p^2
        (`grad_velocity`, `grad_velocity2`, `pressure`, `pressure2`)."""
        names = ("g", "grad_velocity", "pressure") if self.load.has_exact \
            else ("g",)

        def block(rows):
            pts = quad.tri_points(self.mesh, quad.DEG4_BARY, rows)
            area = self.mesh.area[rows]
            out = {}
            for name, v in self.load.evaluate(pts[..., 0], pts[..., 1],
                                              names).items():
                flat = v.reshape(v.shape[:2] + (-1,))   # (n, nq, components)
                out[name] = quad.integrate_values(area, v)
                out[name + "2"] = quad.integrate_values(
                    area, np.einsum("...c,...c->...", flat, flat))
            return out
        return self._rows("moments", self.mesh.num_triangles, block)


def check_no_slip(mesh: Triangulation, load: LoadFunction) -> None:
    """Raise ValueError unless the exact velocity of `load`, if any, is zero
    on the boundary of `mesh`, as the discrete one is: max |u_i| at 10 Gauss
    points per boundary edge <= 1e-10 max(1, max |u_i| at the centroids)."""
    if not load.has_exact:
        return
    pts = quad.edge_points(mesh, quad.EDGE_NODES, mesh.boundary_edge)
    edge = np.abs(load.velocity(pts[..., 0], pts[..., 1])).max()
    bound = 1e-10 * max(1.0, np.abs(load.velocity(*mesh.centroids().T)).max())
    if not edge <= bound:
        raise ValueError(f"the exact velocity is not zero on the boundary of "
                         f"this mesh ({edge:.3g} > {bound:.3g})")


def get_solution(name: str, mu: float = 1.0) -> LoadFunction:
    if name == "smooth1":
        return smooth1(mu)
    if name == "constant":
        return constant_load(mu=mu)
    if name == "lshape_singular":
        return lshape_singular(mu)
    if name == "zero":
        return constant_load(0.0, 0.0, mu)
    raise ValueError(f"unknown solution/load '{name}'")
