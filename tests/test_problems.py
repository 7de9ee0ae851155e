import dataclasses

import numpy as np
import pytest

from anfem import quadrature as quad
from anfem.domains import l_shape
from anfem.mesh import MeshError, Triangulation, bisect, uniform_refine
from anfem.problems import (EVAL_BLOCK, LSHAPE_ALPHA, LoadFunction,
                            PointValues, constant_load, get_solution,
                            lshape_singular, smooth1)
from oracles import (lshape_singular_expressions, mp_evaluate,
                     smooth1_expressions)


def test_smooth1_divergence_free():
    load = smooth1()
    x = np.linspace(0.1, 0.9, 7)
    y = np.linspace(0.2, 0.8, 7)
    X, Y = np.meshgrid(x, y)
    gu = load.grad_velocity(X, Y)
    assert np.abs(gu[..., 0, 0] + gu[..., 1, 1]).max() < 1e-12


def test_smooth1_no_slip():
    load = smooth1()
    s = np.linspace(0.0, 1.0, 11)
    for xb, yb in [(s, np.zeros_like(s)), (s, np.ones_like(s)),
                   (np.zeros_like(s), s), (np.ones_like(s), s)]:
        assert np.abs(load.velocity(xb, yb)).max() < 1e-14


def test_smooth1_momentum_residual():
    """g = -mu*Lap(u) - grad(p) checked by finite differences."""
    mu = 2.5
    load = smooth1(mu)
    x0, y0, h = 0.37, 0.61, 1e-5
    lap = (load.velocity(x0 + h, y0) + load.velocity(x0 - h, y0)
           + load.velocity(x0, y0 + h) + load.velocity(x0, y0 - h)
           - 4 * load.velocity(x0, y0)) / h ** 2
    gp = np.array([
        (load.pressure(x0 + h, y0) - load.pressure(x0 - h, y0)) / (2 * h),
        (load.pressure(x0, y0 + h) - load.pressure(x0, y0 - h)) / (2 * h)])
    got = load.g(np.array(x0), np.array(y0))
    assert np.allclose(got, -mu * lap - gp, atol=1e-5)


def test_lshape_alpha_eigenvalue():
    # sin(alpha * 3*pi/2) = alpha
    assert abs(np.sin(LSHAPE_ALPHA * 1.5 * np.pi) - LSHAPE_ALPHA) < 1e-13


def test_lshape_singular_boundary_and_divergence():
    load = lshape_singular()
    s = np.linspace(0.05, 0.95, 9)
    zero = np.zeros_like(s)
    assert np.abs(load.velocity(s, zero)).max() < 1e-12     # leg theta=0
    assert np.abs(load.velocity(zero, -s)).max() < 1e-12    # leg theta=3pi/2
    ones = np.ones_like(s)
    assert np.abs(load.velocity(-ones, 2 * s - 1)).max() < 1e-12
    assert np.abs(load.velocity(2 * s - 1, ones)).max() < 1e-12
    gu = load.grad_velocity(np.array([0.5, -0.3, 0.1, -0.7]),
                            np.array([0.3, 0.6, 0.1, -0.2]))
    assert np.abs(gu[..., 0, 0] + gu[..., 1, 1]).max() < 1e-12


def test_lshape_singular_corner_blowup():
    """|grad u| ~ r^(alpha-1) near the corner."""
    load = lshape_singular()
    r1, r2 = 1e-3, 1e-4
    g1 = np.linalg.norm(load.grad_velocity(-r1 / np.sqrt(2), r1 / np.sqrt(2)))
    g2 = np.linalg.norm(load.grad_velocity(-r2 / np.sqrt(2), r2 / np.sqrt(2)))
    ratio = g2 / g1
    expected = (r2 / r1) ** (LSHAPE_ALPHA - 1.0)
    assert abs(np.log(ratio) - np.log(expected)) < 0.05


def test_lshape_singular_finite_at_corner():
    """At the reentrant corner u = 0 and every field is finite: the corner
    is a vertex of every L-shape mesh."""
    load = lshape_singular()
    corner = np.zeros(1), np.zeros(1)
    with np.errstate(divide="raise", invalid="raise"):
        fields = [load.velocity(*corner), load.grad_velocity(*corner),
                  load.pressure(*corner), load.g(*corner)]
    assert all(np.isfinite(f).all() for f in fields)
    assert np.abs(fields[0]).max() < 1e-100


def test_get_solution_names():
    for name in ("smooth1", "constant", "zero", "lshape_singular"):
        assert get_solution(name).g is not None
    with pytest.raises(ValueError):
        get_solution("nope")


def test_zero_load_values():
    g = get_solution("zero").g(np.zeros(3), np.zeros(3))
    assert g.shape == (3, 2) and np.all(g == 0)


def test_constant_load_values():
    g = constant_load(2.0, -1.0).g(np.zeros((2, 2)), np.zeros((2, 2)))
    assert g.shape == (2, 2, 2)
    assert np.all(g[..., 0] == 2.0) and np.all(g[..., 1] == -1.0)


def _relative_errors(got, ref):
    """|got - ref| over the local norm, max |ref| over the components."""
    n = len(ref)
    err = np.abs(got - ref).reshape(n, -1).max(axis=1)
    return err / np.abs(ref).reshape(n, -1).max(axis=1)


# circles of radius 1e-1 ... 1e-8 around the reentrant corner
CORNER_RADII = 10.0 ** -np.arange(1, 9)


def _lshape_points():
    """Four angles on each corner circle, then 24 random points of the
    sector r <= 0.95. All keep an angle of 0.05 from the two walls through
    the corner and a distance of 0.05 from the outer walls: on a wall u = 0,
    and near one its value is a difference of O(1) terms in any
    double-precision evaluation, so only its absolute error stays small
    there (`test_lshape_singular_boundary_and_divergence`)."""
    rng = np.random.default_rng(20)
    t = np.concatenate([
        np.tile(np.linspace(0.05, 1.5 * np.pi - 0.05, 4), len(CORNER_RADII)),
        rng.uniform(0.05, 1.5 * np.pi - 0.05, 24)])
    r = np.concatenate([np.repeat(CORNER_RADII, 4),
                        0.95 * np.sqrt(rng.uniform(0.0, 1.0, 24))])
    return r * np.cos(t), r * np.sin(t)


@pytest.fixture(scope="module")
def lshape_oracle():
    """Points and the 40-digit values of the sympy derivation there."""
    x, y = _lshape_points()
    symbols, exprs = lshape_singular_expressions(1.0)
    return x, y, {name: mp_evaluate(symbols, expr, x, y, polar=True)
                  for name, expr in exprs.items()}


def test_lshape_load_accurate_near_corner(lshape_oracle):
    """g to 1e-12 relative on circles down to r = 1e-8. Summed in double
    precision, the cancelling r^(a-2) terms of -mu*Lap(u) - grad(p) leave
    errors of about 1e-2 relative at r = 1e-7 and 1 at r = 1e-8."""
    x, y, ref = lshape_oracle
    on_circles = slice(0, 4 * len(CORNER_RADII))
    got = lshape_singular().g(x[on_circles], y[on_circles])
    assert _relative_errors(got, ref["g"][on_circles]).max() < 1e-12


@pytest.mark.parametrize("field",
                         ["g", "velocity", "grad_velocity", "pressure"])
def test_lshape_singular_matches_oracle(lshape_oracle, field):
    """Every field to 1e-12 relative; the pressure's mean is zero on both
    sides, so nothing is subtracted."""
    x, y, ref = lshape_oracle
    got = getattr(lshape_singular(), field)(x, y)
    assert _relative_errors(got, ref[field]).max() < 1e-12


def test_lshape_pressure_odd_under_reflection():
    """p(-y, -x) = -p(x, y): the reflection maps the L-shape onto itself."""
    rng = np.random.default_rng(11)
    x, y = rng.uniform(-1.0, 1.0, (2, 20_000))
    inside = ~((x > 0) & (y < 0))
    x, y = x[inside], y[inside]
    p = lshape_singular().pressure
    ref = np.abs(p(x, y)).max()
    assert np.abs(p(x, y) + p(-y, -x)).max() <= 1e-13 * ref


def test_lshape_pressure_mean_zero():
    mesh = uniform_refine(l_shape(), 8)
    pts = quad.tri_points(mesh, quad.DEG4_BARY)
    vals = lshape_singular().pressure(pts[..., 0], pts[..., 1])
    total = quad.integrate_values(mesh.area, vals).sum()
    assert abs(total) <= 1e-13 * mesh.area.sum() * np.abs(vals).max()


def test_lshape_singular_linear_in_mu():
    """u does not depend on mu; g and p scale with it."""
    x, y = _lshape_points()
    one, mu = lshape_singular(1.0), lshape_singular(2.5)
    assert np.array_equal(mu.velocity(x, y), one.velocity(x, y))
    assert np.array_equal(mu.grad_velocity(x, y), one.grad_velocity(x, y))
    assert np.allclose(mu.g(x, y), 2.5 * one.g(x, y), rtol=1e-15, atol=0)
    p = 2.5 * one.pressure(x, y)
    assert np.abs(mu.pressure(x, y) - p).max() < 1e-14 * np.abs(p).max()


# every constructor of a load, called with the viscosity alone
LOAD_CONSTRUCTORS = {
    "LoadFunction": lambda mu: LoadFunction(g=constant_load().g, mu=mu),
    "smooth1": smooth1, "lshape_singular": lshape_singular,
    "constant_load": lambda mu: constant_load(mu=mu),
    "get_solution": lambda mu: get_solution("zero", mu)}


@pytest.mark.parametrize("mu", [0.0, -1.0, float("nan"), float("inf"), True])
@pytest.mark.parametrize("make", sorted(LOAD_CONSTRUCTORS))
def test_load_rejects_bad_viscosity(make, mu):
    """The load is the one owner of mu and the one place it is checked; a
    bool is rejected although True == 1."""
    with pytest.raises(ValueError, match="viscosity"):
        LOAD_CONSTRUCTORS[make](mu)


def test_load_rejects_missing_or_partial_fields():
    """g is required, and the exact u, grad u and p come all three or not
    at all: caught when the load is built, not at its first evaluation."""
    s = smooth1()
    exact = dict(velocity=s.velocity, grad_velocity=s.grad_velocity,
                 pressure=s.pressure)
    for kwargs in (dict(g=None), dict(g=None, **exact),
                   dict(g=s.g, velocity=s.velocity),
                   dict(g=s.g, velocity=s.velocity, pressure=s.pressure),
                   dict(g=s.g, **exact | {"pressure": 1.0})):
        with pytest.raises(ValueError, match="callable g"):
            LoadFunction(**kwargs)
    assert LoadFunction(g=s.g, **exact).has_exact
    assert not LoadFunction(g=s.g).has_exact


def test_replaced_load_keeps_its_viscosity():
    load = smooth1(2.5)
    assert load.mu == 2.5 and get_solution("constant", 2.5).mu == 2.5
    assert dataclasses.replace(load, g=constant_load().g).mu == 2.5


@pytest.mark.parametrize("make,mu", [(smooth1, 2.0), (lshape_singular, 3.0)])
def test_load_rejects_a_viscosity_its_fields_were_not_built_for(make, mu):
    """A replaced `mu` would leave g and p those of the old viscosity, so
    the load raises; built for `mu`, the same load is accepted."""
    with pytest.raises(ValueError, match="viscosity"):
        dataclasses.replace(make(1.0), mu=mu)
    assert dataclasses.replace(make(mu), mu=mu).mu == mu


@pytest.mark.parametrize("mu", [0.5, 1.0, 3.0])
def test_smooth1_matches_oracle(mu):
    rng = np.random.default_rng(3)
    x, y = rng.uniform(0.0, 1.0, (2, 20))
    symbols, exprs = smooth1_expressions(mu)
    load = smooth1(mu)
    for field in ("g", "velocity", "grad_velocity", "pressure"):
        ref = mp_evaluate(symbols, exprs[field], x, y)
        got = getattr(load, field)(x, y)
        assert _relative_errors(got, ref).max() < 1e-12, field


FIELDS = ("g", "velocity", "grad_velocity", "pressure")


@pytest.mark.parametrize("name", ["smooth1", "lshape_singular"])
def test_joint_pass_equals_separate_callables(name):
    """The joint pass gives every field bit for bit as its own callable
    does, at random points, at the reentrant corner r = 0 and at r = 1e-8."""
    load = get_solution(name)
    rng = np.random.default_rng(8)
    t = np.linspace(0.05, 1.5 * np.pi - 0.05, 5)
    x = np.concatenate([rng.uniform(-1.0, 1.0, 40), [0.0], 1e-8 * np.cos(t)])
    y = np.concatenate([rng.uniform(-1.0, 1.0, 40), [0.0], 1e-8 * np.sin(t)])
    alone = {field: getattr(load, field)(x, y) for field in FIELDS}
    for names in (FIELDS, ("g", "grad_velocity", "pressure"),
                  ("velocity", "pressure")):
        joint = load.evaluate(x, y, names)
        assert sorted(joint) == sorted(names)
        for field in names:
            assert np.all(np.isfinite(joint[field]))
            assert np.array_equal(joint[field], alone[field]), field


def test_replaced_callable_is_evaluated():
    """A callable replaced after construction, by `dataclasses.replace` or
    by `setattr`, is the one a record evaluates; the others still come from
    the solution's own pass."""
    load = lshape_singular()
    mesh = l_shape(1)
    ref = PointValues(mesh, load)
    doubled = dataclasses.replace(load, g=lambda x, y: 2.0 * load.g(x, y))
    values = PointValues(mesh, doubled)
    assert np.array_equal(values.moments["g"], 2.0 * ref.moments["g"])
    assert np.array_equal(values.moments["g2"], 4.0 * ref.moments["g2"])
    assert np.array_equal(values.at_midpoints["g"],
                          2.0 * ref.at_midpoints["g"])
    for field in ("grad_velocity", "grad_velocity2", "pressure",
                  "pressure2"):
        assert np.array_equal(values.moments[field], ref.moments[field])
    patched = lshape_singular()
    patched.pressure = lambda x, y: np.zeros(np.shape(x))
    values = PointValues(mesh, patched)
    assert not values.moments["pressure"].any()
    assert not values.moments["pressure2"].any()
    assert np.array_equal(values.moments["g"], ref.moments["g"])


def test_record_carries_only_unmoved_rows():
    """A record descends to any mesh its own mesh is an ancestor of by
    bisect, and carries only rows whose points did not move: a mesh with
    bisect's genealogy but moved vertices still gets the values of a fresh
    evaluation. A mesh that does not descend from the record's is
    rejected."""
    load = lshape_singular()
    coarse = l_shape(1)
    values = PointValues(coarse, load)
    values.at_midpoints, values.moments
    fine = bisect(coarse, [0, 5])
    new_moved = fine.vertices.copy()
    new_moved[coarse.num_vertices:] += [0.01, 0.013]
    for mesh in (fine, bisect(fine, [0]),
                 Triangulation(new_moved, fine.triangles, fine.lineage),
                 Triangulation(fine.vertices + 0.25, fine.triangles,
                               fine.lineage)):
        carried, fresh = values.descend(mesh), PointValues(mesh, load)
        assert carried.load is load
        for part in ("at_midpoints", "moments"):
            for name, ref in getattr(fresh, part).items():
                assert np.array_equal(getattr(carried, part)[name], ref)
    with pytest.raises(MeshError):
        values.descend(l_shape(1))


def test_point_values_evaluate_in_blocks():
    """Above `EVAL_BLOCK` rows a record calls the load block by block: each
    part equals one pass over all its points bit for bit (the integrals of
    each field and of its square by `quad.integrate`'s rule), and g is
    called on at most `EVAL_BLOCK` edges at a time, each edge exactly
    once."""
    mesh = uniform_refine(l_shape(), 10)
    assert mesh.num_triangles > EVAL_BLOCK
    load = lshape_singular()
    values = PointValues(mesh, load)
    mids = mesh.edge_midpoints()
    ref = load.evaluate(mids[:, 0], mids[:, 1], ("g",))
    assert np.array_equal(values.at_midpoints["g"], ref["g"])
    pts = quad.tri_points(mesh, quad.DEG4_BARY)
    names = ("g", "grad_velocity", "pressure")
    ref = load.evaluate(pts[..., 0], pts[..., 1], names)
    assert sorted(values.moments) == sorted(
        names + tuple(name + "2" for name in names))
    for name in names:
        flat = ref[name].reshape(ref[name].shape[:2] + (-1,))
        squares = np.einsum("...c,...c->...", flat, flat)
        assert np.array_equal(values.moments[name],
                              quad.integrate_values(mesh.area, ref[name]))
        assert np.array_equal(values.moments[name + "2"],
                              quad.integrate_values(mesh.area, squares)), name

    calls = []

    def g(x, y):
        calls.append(np.stack([x, y], axis=-1))
        return load.g(x, y)

    PointValues(mesh, dataclasses.replace(load, g=g)).at_midpoints
    assert len(calls) > 1
    assert max(len(c) for c in calls) <= EVAL_BLOCK
    # the called points, sorted, are the midpoints, sorted: every edge once
    seen = np.concatenate(calls)
    assert np.array_equal(seen[np.lexsort(seen.T)], mids[np.lexsort(mids.T)])
