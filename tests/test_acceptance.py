"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (uncaptured) for its property and then
asserts it, so a plain ``pytest -v`` run shows the scoreboard inline.
"""

import time

import numpy as np
import pytest

from anfem.adaptive import LoopParams, anfem_loop, rate_fit, uniform_trace
from anfem.counterexample import (boundary_sum, build_family, build_test_pair,
                                  closed_form, grad_norm_sq, scaling_study)
from anfem.domains import l_shape, unit_square
from anfem.estimator import consistency_error, estimate
from anfem.mesh import ancestor_map, bisect, nesting_sets
from anfem.problems import get_solution, lshape_singular
from anfem.spaces import (assemble_saddle, broken_grad_norm_sq,
                          galerkin_residual, max_element_divergence,
                          pressure_error_sq, solve, solve_saddle,
                          velocity_error_sq)
from anfem.transfer import (conservative_interpolation,
                            prolongation_defect_constant)
from oracles import edge_means_of_field


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# grid parameters of the sqrt(N) fit: the exponent has settled there (0.496;
# 0.410 over N = 5 ... 41)
STUDY_N = (81, 161, 321, 641, 1281)


@pytest.fixture(scope="module")
def smooth():
    return get_solution("smooth1")


def test_acceptance_01_counterexample_exactness(capsys):
    """Closed-form boundary pairing, gradient bound, sqrt(N) exponent."""
    t0 = time.perf_counter()
    worst = 0.0
    for n in STUDY_N:
        fam = build_family(n)
        nodal = build_test_pair(fam)
        worst = max(worst, abs(boundary_sum(fam, nodal) - closed_form(n)))
        assert grad_norm_sq(fam, nodal) <= 4.0 * n + 1e-12
    exponent = scaling_study(STUDY_N)["exponent"]
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and 0.4 <= exponent <= 0.6 and elapsed < 5.0
    _report(capsys, 1, ok,
            f"boundary-sum defect {worst:.2e}, exponent {exponent:.3f}, "
            f"{elapsed:.1f}s")


def test_acceptance_02_estimator_reduction(capsys):
    """Frozen-estimator reduction with rho = 1 - 2^(-1/2) at every step."""
    t0 = time.perf_counter()
    # 16 solves, so 15 refinements whose reduction is checked
    trace = anfem_loop(l_shape(), get_solution("constant"),
                       LoopParams(theta=0.3, max_iterations=16))
    lhs = trace.column("reduction_lhs")
    rhs = trace.column("reduction_rhs")
    checked = np.isfinite(lhs)
    slack = (lhs[checked] - rhs[checked]).max()
    elapsed = time.perf_counter() - t0
    ok = checked.sum() == 15 and slack <= 1e-9 and elapsed < 60.0
    _report(capsys, 2, ok,
            f"{checked.sum()} steps, worst slack {slack:.2e}, {elapsed:.1f}s")


def test_acceptance_03_conservative_property(capsys):
    """Edge means preserved to 1e-12 on 100 random fields x 3 meshes."""
    rng = np.random.default_rng(0)
    meshes = [unit_square(2), unit_square(4), l_shape(2)]
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=(2, 6))

        def field(x, y, a=a):
            basis = np.stack([np.ones_like(x), x, y, x * y,
                              np.sin(2 * x), np.cos(2 * y)], axis=-1)
            return np.stack([basis @ a[0], basis @ a[1]], axis=-1)

        for mesh in meshes:
            v = conservative_interpolation(field, mesh)
            want = edge_means_of_field(field, mesh)[mesh.interior_edges]
            worst = max(worst, float(np.abs(v.reshape(-1, 2) - want).max()))
    ok = worst <= 1e-12
    _report(capsys, 3, ok, f"worst edge-mean defect {worst:.2e} (300 checks)")


def test_acceptance_04_divergence_and_galerkin(capsys, smooth):
    """Discrete divergence and Galerkin residual at solver precision."""
    worst_div, worst_res = 0.0, 0.0
    for mesh in (unit_square(3), unit_square(5), l_shape(1), l_shape(3)):
        system = assemble_saddle(mesh, smooth)
        sol = solve_saddle(system)
        gn = np.sqrt(broken_grad_norm_sq(mesh, sol.u))
        worst_div = max(worst_div,
                        max_element_divergence(sol) / (1.0 + gn))
        worst_res = max(worst_res, galerkin_residual(system, sol))
    # the adaptive loop asserts the same invariants after every solve
    anfem_loop(unit_square(2), smooth,
               LoopParams(theta=0.5, max_iterations=8))
    ok = worst_div <= 1e-10 and worst_res <= 1e-10
    _report(capsys, 4, ok,
            f"max scaled divergence {worst_div:.2e}, "
            f"max Galerkin residual {worst_res:.2e}")


def test_acceptance_05_reliability_efficiency(capsys, smooth):
    """error^2/eta^2 and eta^2/(error^2+osc^2) stable across 5 levels."""
    t0 = time.perf_counter()
    rel, eff = [], []
    for rounds in (5, 7, 9, 11, 13):      # 64 ... 16384 elements
        mesh = unit_square(rounds)
        sol = solve(mesh, smooth)
        rep = estimate(sol)
        err2 = velocity_error_sq(sol) + pressure_error_sq(sol)
        eta2 = float(rep.eta_sq.sum())
        rel.append(err2 / eta2)
        eff.append(eta2 / (err2 + float(rep.osc_sq.sum())))
    rel_spread = max(rel) / min(rel)
    eff_spread = max(eff) / min(eff)
    elapsed = time.perf_counter() - t0
    ok = rel_spread <= 3.0 and eff_spread <= 3.0 and elapsed < 60.0
    _report(capsys, 5, ok,
            f"reliability spread {rel_spread:.2f}, efficiency spread "
            f"{eff_spread:.2f} over 64..16384 elements, {elapsed:.1f}s")


def test_acceptance_06_first_order_convergence(capsys, smooth):
    """Velocity error and consistency error decay like h (slope -1 vs 1/h)."""
    hs, errs, cons = [], [], []
    for rounds in (4, 6, 8, 10):
        mesh = unit_square(rounds)
        sol = solve(mesh, smooth)
        hs.append(mesh.edge_length.max())
        errs.append(np.sqrt(velocity_error_sq(sol)))
        cons.append(consistency_error(sol))
    inv_h = np.log(1.0 / np.array(hs))
    s_err = float(np.polyfit(inv_h, np.log(errs), 1)[0])
    s_con = float(np.polyfit(inv_h, np.log(cons), 1)[0])
    ok = -1.15 <= s_err <= -0.85 and -1.15 <= s_con <= -0.85
    _report(capsys, 6, ok,
            f"velocity-error slope {s_err:.3f}, consistency slope "
            f"{s_con:.3f} vs 1/h")


def test_acceptance_07_contraction(capsys, smooth):
    """Geometric-mean step ratio of the contraction quantity below 0.95."""
    trace = anfem_loop(unit_square(2), smooth,
                       LoopParams(theta=0.3, max_iterations=14))
    alphas = trace.column("alpha")
    alphas = alphas[np.isfinite(alphas)]
    geomean = float(np.exp(np.mean(np.log(alphas))))
    ok = len(alphas) >= 10 and geomean < 0.95
    _report(capsys, 7, ok,
            f"geomean alpha {geomean:.3f} over {len(alphas)} steps")


def test_acceptance_08_optimal_rate_lshape(capsys):
    """Adaptive refinement recovers the optimal rate on the corner
    singularity; uniform refinement stays at the reduced rate."""
    t0 = time.perf_counter()
    load = lshape_singular()
    adaptive = anfem_loop(l_shape(), load,
                          LoopParams(theta=0.3, max_iterations=30,
                                     check_reduction=False))
    uniform = uniform_trace(l_shape(), load, levels=7)
    r_ad = rate_fit(adaptive)
    r_un = rate_fit(uniform)
    elapsed = time.perf_counter() - t0
    ok = (-0.6 <= r_ad <= -0.4 and r_un - r_ad >= 0.1 and elapsed < 120.0)
    _report(capsys, 8, ok,
            f"adaptive rate {r_ad:.3f}, uniform rate {r_un:.3f}, "
            f"gap {r_un - r_ad:.3f}, {elapsed:.1f}s")


def test_acceptance_09_prolongation_robustness(capsys, smooth):
    """Averaged prolongation constant stays bounded under deep local
    refinement; the naive operator's pairing constant grows like sqrt(N)."""
    coarse = unit_square(4)
    cent = coarse.centroids()
    marked0 = np.flatnonzero(cent[:, 0] < 0.5)
    v = solve(coarse, smooth).u
    fine = coarse
    consts = []
    for _ in range(4):
        anc = ancestor_map(coarse, fine)
        fine = bisect(fine, np.flatnonzero(np.isin(anc, marked0)))
        ns = nesting_sets(coarse, fine)
        consts.append(prolongation_defect_constant(coarse, fine, v, ns,
                                                   operator="mixed"))
    drift = max(consts) / min(consts)
    exponent = scaling_study(STUDY_N)["exponent"]
    ok = drift <= 2.0 and exponent >= 0.4
    _report(capsys, 9, ok,
            f"averaged-operator drift {drift:.2f} over 4 levels, "
            f"naive-operator exponent {exponent:.3f}")


def test_acceptance_10_quasi_orthogonality(capsys, smooth):
    """Per-step quasi-orthogonality quotients are finite and their running
    supremum (the empirical constant) stabilizes by mid-run."""
    trace = anfem_loop(unit_square(2), smooth,
                       LoopParams(theta=0.3, max_iterations=20))
    details = []
    ok = True
    for name in ("qo_velocity", "qo_pressure"):
        q = trace.column(name)[1:]          # no cross-level data at step 0
        if not np.all(np.isfinite(q)):
            ok = False
            details.append(f"{name} non-finite")
            continue
        sup = np.maximum.accumulate(q)
        ratio = sup.max() / np.median(sup)
        ok &= ratio <= 2.0
        details.append(f"{name} C={sup[-1]:.3g} stability {ratio:.2f}")
    _report(capsys, 10, ok, ", ".join(details))
