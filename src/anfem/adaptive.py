"""Bulk marking, the adaptive solve-estimate-mark-refine loop, and monitors
for estimator reduction, contraction, quasi-orthogonality, discrete
reliability and empirical convergence rates.
"""

from __future__ import annotations

import numbers
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import quadrature as quad
from .estimator import (EstimatorReport, estimate, estimate_frozen,
                        modified_eta)
from .mesh import (NestingSets, Triangulation, bisect, nesting_sets,
                   refinement_ratio, uniform_refine)
from .problems import LoadFunction
from .spaces import (DiscreteSolution, assemble_saddle, broken_grad_norm_sq,
                     cr_gradients, galerkin_residual, max_element_divergence,
                     num_velocity_dofs, pressure_error_sq, solve_saddle,
                     velocity_error_sq)

ESTIMATOR_REDUCTION_RHO = 1.0 - 2.0 ** -0.5
# relative rounding allowance of the estimator-reduction check
REDUCTION_SLACK = 1e-9


class MarkingError(ValueError):
    pass


def _check_theta(theta: float) -> None:
    if not 0.0 < theta < 1.0:
        raise MarkingError(f"theta must be in (0, 1), got {theta}")


def dorfler_mark(report: EstimatorReport, theta: float) -> np.ndarray:
    """Minimal element set with eta^2(M) >= theta * eta^2(T).

    Sorted by descending eta_K^2, ties by ascending element id.
    """
    _check_theta(theta)
    eta_sq = report.eta_sq
    total = eta_sq.sum()
    if total <= 0.0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((np.arange(len(eta_sq)), -eta_sq))
    csum = np.cumsum(eta_sq[order])
    m = int(np.searchsorted(csum, theta * total - 1e-14 * total) + 1)
    marked = order[:m]
    # minimality: dropping the last element must fall below the threshold
    if m > 1 and csum[m - 2] >= theta * total:
        raise AssertionError(f"Dorfler set of {m} elements is not minimal")
    return np.sort(marked)


@dataclass
class IterationRecord:
    iteration: int
    nelems: int
    ndofs: int
    eta2: float
    eta_tilde2: float
    osc2: float
    vol2: float
    nmarked: int
    gamma: float              # refinement ratio vs the previous mesh
    solver_iterations: int    # the solve's diagnostics (DiscreteSolution)
    # a lower bound that moves with round-off and is not comparable across
    # commits (see DiscreteSolution.lu_fill)
    lu_fill: int
    solver_residual: float
    err_u2: float = np.nan
    err_p2: float = np.nan
    lam: float = np.nan       # contraction quantity Lambda
    alpha: float = np.nan     # Lambda ratio vs previous step
    qo_velocity: float = np.nan
    qo_pressure: float = np.nan
    drel: float = np.nan      # discrete reliability constant vs previous step
    reduction_lhs: float = np.nan   # eta^2 of frozen solution on refined mesh
    reduction_rhs: float = np.nan   # allowed bound from the coarse mesh


@dataclass
class AdaptiveTrace:
    records: list[IterationRecord] = field(default_factory=list)
    truncated: bool = False
    converged: bool = False
    final_solution: DiscreteSolution | None = None

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    def to_csv(self, path):
        """`anfem-trace-v4`: one column per `IterationRecord` field."""
        with open(path, "w") as f:
            f.write("anfem-trace-v4\n")
            f.write(",".join(c.name for c in fields(IterationRecord)) + "\n")
            for r in self.records:
                f.write(",".join(f"{v:.17g}" if isinstance(v, float)
                                 else str(v) for v in astuple(r)) + "\n")


@dataclass(frozen=True)
class LoopParams:
    theta: float = 0.3
    eps: float = 0.0
    mu: float = 1.0
    beta1: float = 1.0
    gamma1: float = 1.0
    gamma2: float = 1.0
    element_cap: int = 200_000
    max_iterations: int = 100
    check_reduction: bool = True

    def __post_init__(self):
        # the one place the loop's parameters are checked; frozen, so a
        # checked value cannot be replaced by an unchecked one
        _check_theta(self.theta)
        if not self.eps >= 0.0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")
        for name in ("mu", "beta1", "gamma1", "gamma2"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got "
                                 f"{getattr(self, name)}")
        for name in ("element_cap", "max_iterations"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(
                    f"{name} must be an integer >= 1, got {value!r}")


def _solve_level(mesh: Triangulation, load: LoadFunction, p: LoopParams,
                 it: int, gamma: float):
    """Solve on `mesh`, check the solver invariants and estimate; returns the
    solution, the estimator, the level's record (nothing marked yet) and the
    exact grad u and p at the degree-4 points (None without an exact
    solution), evaluated once for the errors and the monitors."""
    system = assemble_saddle(mesh, load, p.mu)
    sol = solve_saddle(system)
    _check_solve_invariants(system, sol)
    report = estimate(sol, load)
    rec = IterationRecord(
        iteration=it, nelems=mesh.num_triangles,
        ndofs=num_velocity_dofs(mesh) + mesh.num_triangles,
        eta2=report.total_eta_sq, eta_tilde2=modified_eta(report, p.beta1),
        osc2=report.total_osc_sq, vol2=report.total_vol_sq,
        nmarked=0, gamma=gamma, solver_iterations=sol.iterations,
        lu_fill=sol.lu_fill, solver_residual=sol.residual)
    exact = None
    if load.has_exact:
        exact = (quad.values_at(mesh, load.grad_velocity),
                 quad.values_at(mesh, load.pressure))
        rec.err_u2 = velocity_error_sq(sol, load, exact[0])
        rec.err_p2 = pressure_error_sq(sol, load, exact[1])
    return sol, report, rec, exact


def anfem_loop(mesh0: Triangulation, load: LoadFunction,
               params: LoopParams | None = None) -> AdaptiveTrace:
    """Solve -> estimate -> mark -> refine until eta < eps, the element cap
    or the last iteration; the run ends with a solve, never a refinement."""
    p = params or LoopParams()
    trace = AdaptiveTrace()
    mesh = mesh0
    # previous solution and estimator, and the nesting of the current mesh
    # in the previous one
    prev: tuple[DiscreteSolution, EstimatorReport, NestingSets] | None = None
    prev_lam = np.nan
    gamma = 1.0

    for it in range(p.max_iterations):
        sol, report, rec, exact = _solve_level(mesh, load, p, it, gamma)
        if load.has_exact:
            rec.lam = rec.err_u2 + p.gamma1 * rec.err_p2 \
                + p.gamma2 * rec.eta_tilde2
            if np.isfinite(prev_lam) and prev_lam > 0:
                rec.alpha = rec.lam / prev_lam
            prev_lam = rec.lam

        if prev is not None:
            _cross_level_monitors(prev, sol, exact, rec)
        trace.records.append(rec)
        trace.final_solution = sol

        eta = np.sqrt(report.total_eta_sq)
        trace.converged = bool(eta < p.eps or eta == 0.0)
        trace.truncated = (not trace.converged
                           and mesh.num_triangles >= p.element_cap)
        if trace.converged or trace.truncated or it + 1 == p.max_iterations:
            break

        marked = dorfler_mark(report, p.theta)
        rec.nmarked = len(marked)
        refined = bisect(mesh, marked)
        ns = nesting_sets(mesh, refined)
        gamma = refinement_ratio(mesh, refined)

        if p.check_reduction:
            frozen = estimate_frozen(sol, refined, load)
            # the estimator and its volume term, reduced by the same factor
            for name, coarse, fine in (
                    ("estimator", report.eta_sq, frozen.eta_sq),
                    ("volume-term", report.vol_sq, frozen.vol_sq)):
                lhs = float(fine.sum())
                rhs = float(coarse.sum()) - ESTIMATOR_REDUCTION_RHO * float(
                    coarse[ns.refined].sum())
                if name == "estimator":
                    rec.reduction_lhs, rec.reduction_rhs = lhs, rhs
                if lhs > rhs + REDUCTION_SLACK * max(1.0, rhs):
                    raise AssertionError(
                        f"{name} reduction violated at step {it}: "
                        f"{lhs:.16g} > {rhs:.16g}")

        prev = (sol, report, ns)
        mesh = refined

    return trace


def _check_solve_invariants(system, sol):
    gn = np.sqrt(broken_grad_norm_sq(sol.mesh, sol.u))
    maxdiv = max_element_divergence(sol)
    if maxdiv > 1e-10 * (1.0 + gn):
        raise AssertionError(f"discrete divergence too large: {maxdiv:.3e}")
    res = galerkin_residual(system, sol)
    scale = max(1.0, float(np.abs(system.F).max()))
    if res > 1e-10 * scale:
        raise AssertionError(f"Galerkin identity violated: {res:.3e}")


def _cross_level_monitors(prev, sol, exact, rec):
    """Constants between consecutive levels: discrete reliability, and,
    from the exact values `_solve_level` returned, the empirical
    quasi-orthogonality constants (skipped without an exact solution)."""
    sol_prev, report_prev, ns = prev
    mesh, mu = sol.mesh, sol.mu
    G_cur = cr_gradients(mesh, sol.u)
    G_prev = cr_gradients(sol_prev.mesh, sol_prev.u)[ns.ancestors]
    W = G_cur - G_prev                       # grad(u_k - u_{k-1}) on T_k
    wnorm = float(np.sqrt((mesh.area * np.einsum(
        "tij,tij->t", W, W)).sum()))
    dp = sol.p - sol_prev.p[ns.ancestors]    # p_k - p_{k-1} on T_k
    dpnorm = float(np.sqrt((mesh.area * dp ** 2).sum()))
    # (A3): ||u_k - u_{k-1}|| + ||p_k - p_{k-1}|| <= C eta_{k-1}(R_k)
    den = np.sqrt(float(report_prev.eta_sq[ns.neighborhood].sum()))
    rec.drel = (wnorm + dpnorm) / den if den > 0 else np.nan
    if exact is None:
        return
    gu, pe = exact
    vol_refined = float(report_prev.vol_sq[ns.refined].sum())
    # a_k(u - u_k, u_k - u_{k-1}), grad w element-wise constant
    a_exact = float(np.einsum("tij,tij->", quad.integrate_values(mesh, gu),
                              W))
    a_disc = float((mesh.area * np.einsum("tij,tij->t", G_cur, W)).sum())
    qo_num = abs(mu * (a_exact - a_disc))
    err_u = np.sqrt(rec.err_u2)
    den = err_u * np.sqrt(vol_refined)
    rec.qo_velocity = qo_num / den if den > 0 else np.nan
    # (p - p_k, p_k - p_{k-1})
    p_exact = float((quad.integrate_values(mesh, pe) * dp).sum())
    p_disc = float((mesh.area * sol.p * dp).sum())
    qp_num = abs(p_exact - p_disc)
    err_p = np.sqrt(rec.err_p2)
    den_p = (np.sqrt(vol_refined) + wnorm) * err_p
    rec.qo_pressure = qp_num / den_p if den_p > 0 else np.nan


# ---------------------------------------------------------------------------
# uniform-refinement baseline


def uniform_trace(mesh0: Triangulation, load: LoadFunction, levels: int,
                  rounds_per_level: int = 2) -> AdaptiveTrace:
    """Solve on `levels` meshes, each `rounds_per_level` uniform bisection
    rounds finer than the one before, with the adaptive loop's checks."""
    trace = AdaptiveTrace(converged=True)
    mesh = mesh0
    p = LoopParams()          # the default mu and beta1
    gamma = 1.0               # no previous mesh, as in anfem_loop
    for it in range(levels):
        if it > 0:
            trace.records[-1].nmarked = mesh.num_triangles
            mesh = uniform_refine(mesh, rounds_per_level)
            gamma = 2.0 ** (rounds_per_level / 2.0)
        trace.final_solution, _, rec, _ = _solve_level(
            mesh, load, p, it, gamma)
        trace.records.append(rec)
    return trace


# ---------------------------------------------------------------------------
# analysis of traces


def rate_fit(trace: AdaptiveTrace) -> float:
    """Slope of log(eta + osc) vs log(#T_k - #T_0) over the trailing half."""
    recs = trace.records
    if len(recs) < 5:
        raise ValueError("need at least 5 trace points for a rate fit")
    xs, ys = [], []
    for r in recs:
        extra = r.nelems - recs[0].nelems
        if extra <= 0:
            continue
        xs.append(np.log(extra))
        ys.append(np.log(np.sqrt(r.eta2) + np.sqrt(r.osc2)))
    half = len(xs) // 2
    xs, ys = np.array(xs[half:]), np.array(ys[half:])
    if len(xs) < 2:
        raise ValueError("not enough growing trace points")
    return float(np.polyfit(xs, ys, 1)[0])


def contraction_monitor(trace: AdaptiveTrace):
    """Per-step ratios alpha_k = Lambda_k / Lambda_{k-1}, their count, maximum
    and geometric mean."""
    alphas = trace.column("alpha")
    alphas = alphas[np.isfinite(alphas)]
    if len(alphas) == 0:
        return {"alphas": alphas, "count": 0, "max": np.nan,
                "geomean": np.nan}
    return {"alphas": alphas, "count": int(len(alphas)),
            "max": float(alphas.max()),
            "geomean": float(np.exp(np.mean(np.log(alphas))))}
