"""Load functions and manufactured solutions.

Sign convention: the weak form is a(u,v) + b(v,p) + b(u,q) = (g,v) with
b(v,q) = (div v, q), so the strong form is -mu*Lap(u) - grad(p) = g.

Both manufactured solutions are closed forms in numpy. `smooth1` is a
product of 1-D polynomials. `lshape_singular` is the curl of the stream
function S = B(x, y) * Phi with the smooth cut-off B and the pure corner
flow Phi = r^(1+a) psi(theta); S's partial derivatives come from the
Leibniz rule on the Taylor jets of B and Phi (`_jet_mul`), and those of Phi
from its complex (Goursat) form Phi = Re(A z^(1+a) + E z zbar^a), each of
whose derivatives is two powers of zbar with constant coefficients
(`_corner`). sympy is not
used: the tests compare both solutions with their symbolic derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod
from typing import Callable

import numpy as np


@dataclass
class LoadFunction:
    g: Callable                     # (x, y) arrays -> (..., 2)
    velocity: Callable | None = None  # exact u, same signature
    grad_velocity: Callable | None = None  # (x, y) -> (..., 2, 2), d u_i / d x_j
    pressure: Callable | None = None

    @property
    def has_exact(self) -> bool:
        return self.velocity is not None

    def stress(self, mu: float) -> Callable:
        """sigma = mu*grad(u) + p*Id as a callable (x, y) -> (..., 2, 2)."""
        if not self.has_exact:
            raise ValueError("no exact solution available")

        def sigma(x, y):
            gu = self.grad_velocity(x, y)
            p = self.pressure(x, y)
            out = mu * gu
            out[..., 0, 0] += p
            out[..., 1, 1] += p
            return out

        return sigma


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


def smooth1(mu: float = 1.0) -> LoadFunction:
    """Divergence-free polynomial flow on the unit square, cubic pressure.

    u = curl(f(x) f(y)) with f(s) = s^2 (1-s)^2, which vanishes with its
    derivative on the boundary, and p = x^3 - 1/4 (zero mean).
    """
    mu = float(mu)

    def stream(x, y, keys):
        x, y = _xy(x, y)
        fx, fy = _smooth1_factor_jet(x), _smooth1_factor_jet(y)
        return {(i, j): fx[i] * fy[j] for i, j in keys}

    def pressure(x, y):
        x, _ = _xy(x, y)
        return x ** 3 - 0.25

    def g(x, y):
        g1, g2 = _minus_lap_curl(stream(x, y, _JET3))
        x, _ = _xy(x, y)
        return np.stack([mu * g1 - 3.0 * x * x, mu * g2], axis=-1)

    return LoadFunction(
        g=g, velocity=lambda x, y: _curl(stream(x, y, _JET1)),
        grad_velocity=lambda x, y: _grad_curl(stream(x, y, _JET2)),
        pressure=pressure)


def constant_load(gx: float = 1.0, gy: float = 0.0) -> LoadFunction:
    def g(x, y):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape + (2,))
        out[..., 0] = gx
        out[..., 1] = gy
        return out
    return LoadFunction(g=g)


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


def _corner(x, y, r, t, names) -> dict:
    """Jet coefficients (i, j) of Phi and "p" (p_std) at the points."""
    a = LSHAPE_ALPHA
    cw = np.cos(a * 1.5 * np.pi)
    conj_big_a = -1.0 + 1j * cw / (1 + a)
    big_e = 1.0 + 1j * cw / (1 - a)
    z = x + 1j * y
    zbar = np.conj(z)
    # zbar^(1+a-m) on the branch theta in [0, 2 pi), up to the m the names
    # need: m = 1 is zbar^a, the others multiply or divide it by zbar. At
    # the corner zbar = 0 and r is clamped; dividing by 1 there keeps every
    # field finite.
    powers = {1: r ** a * np.exp(-1j * a * t)}
    if any(name != "p" for name in names):
        powers[0] = zbar * powers[1]
    top = max(2 if name == "p" else sum(name) + 1 for name in names)
    divisor = np.where(zbar == 0, 1.0, zbar)
    for m in range(2, top + 1):
        powers[m] = powers[m - 1] / divisor
    out = {}
    for name in names:
        if name == "p":
            out[name] = (-4j * big_e * a * powers[2]).real
            continue
        i, j = name
        n = i + j
        scale = (-1j) ** j / (factorial(i) * factorial(j))
        c1 = scale * (conj_big_a * _falling(1 + a, n)
                      + (i - j) * big_e * _falling(a, n - 1))
        c2 = scale * big_e * _falling(a, n)
        out[name] = (c1 * powers[n] + c2 * (z * powers[n + 1])).real
    return out


def _lshape_points(x, y):
    """x, y, r and the domain angle theta in [0, 2 pi) (the L-shape spans
    (0, 3 pi/2)) as broadcast float arrays."""
    x, y = _xy(x, y)
    r = np.maximum(np.hypot(x, y), 1e-300)
    t = np.arctan2(y, x)
    t = np.where(t < 0, t + 2.0 * np.pi, t)
    return x, y, r, t


def _lshape_unit_pressure(x, y):
    """p = -B p_std for mu = 1."""
    x, y, r, t = _lshape_points(x, y)
    return -_bubble_jet(x, y, 0)[0, 0] * _corner(x, y, r, t, ["p"])["p"]


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

    Each field takes the Leibniz product of the jets of B and Phi to the
    order it needs: 1 for u, 2 for grad u, 3 for g. In
    g = -mu Lap(curl S) + mu grad(B p_std) the terms with no derivative on
    B sum to mu B (-Lap(curl Phi) + grad(p_std)), which is identically 0
    (Phi and p_std solve Stokes), so they are left out: they are r^(a-2)
    sized terms that would cancel in floating point. What is left is
    bounded (g ~ r^a at the corner) and accurate at any radius.
    """
    mu = float(mu)

    def stream(x, y, keys):
        x, y, r, t = _lshape_points(x, y)
        order = sum(keys[0])
        return _jet_mul(_bubble_jet(x, y, order),
                        _corner(x, y, r, t, _jet_keys(order)), keys)

    def pressure(x, y):
        return mu * _lshape_unit_pressure(x, y)

    def g(x, y):
        x, y, r, t = _lshape_points(x, y)
        b = _bubble_jet(x, y, 3)
        phi = _corner(x, y, r, t, _jet_keys(2) + ["p"])
        pstd = phi.pop("p")
        b.pop((0, 0))                 # B * (pure corner residual) = 0
        g1, g2 = _minus_lap_curl(_jet_mul(b, phi, _JET3))
        return mu * np.stack([b[1, 0] * pstd + g1, b[0, 1] * pstd + g2],
                             axis=-1)

    return LoadFunction(
        g=g, velocity=lambda x, y: _curl(stream(x, y, _JET1)),
        grad_velocity=lambda x, y: _grad_curl(stream(x, y, _JET2)),
        pressure=pressure)


def get_solution(name: str, mu: float = 1.0) -> LoadFunction:
    if name == "smooth1":
        return smooth1(mu)
    if name == "constant":
        return constant_load()
    if name == "lshape_singular":
        return lshape_singular(mu)
    if name == "zero":
        return constant_load(0.0, 0.0)
    raise ValueError(f"unknown solution/load '{name}'")
