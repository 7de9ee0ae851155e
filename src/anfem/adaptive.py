"""Bulk marking, the adaptive solve-estimate-mark-refine loop, and monitors
for estimator reduction, contraction (under the paper's weights, the
constants BETA1, GAMMA1 and GAMMA2), quasi-orthogonality, discrete
reliability and empirical convergence rates.  Like the estimator, the
monitors are those of the problem rescaled to mu = 1, (g / mu, u, p / mu).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .estimator import EstimatorReport, estimate, estimate_frozen
from .mesh import (NestingSets, Triangulation, bisect, check_count,
                   nesting_sets, uniform_refine)
from .problems import LoadFunction, PointValues, check_no_slip
from .spaces import (DiscreteSolution, assemble_saddle, num_velocity_dofs,
                     pressure_error_sq, solve_saddle, velocity_error_sq)

ESTIMATOR_REDUCTION_RHO = 1.0 - 2.0 ** -0.5
# the paper's weights, devices of its convergence proof, in the modified
# estimator eta~^2 (eta_tilde2) and the contraction quantity Lambda (lam)
BETA1 = 1.0     # eta~^2 = sum_K (BETA1 mu^-2 h_K^2 ||g||_K^2 + eta_K^2)
GAMMA1 = 1.0    # Lambda = ||grad_h(u - u_k)||^2 + GAMMA1 mu^-2 ||p - p_k||^2
GAMMA2 = 1.0    #          + GAMMA2 eta~^2
# relative rounding allowance of the estimator-reduction check
REDUCTION_SLACK = 1e-9


def _check_theta(theta: float) -> None:
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0, 1), got {theta}")


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
    # the factor's stored entries, fixed by the sparsity pattern and the
    # ordering (see DiscreteSolution.lu_fill)
    lu_fill: int
    # round-off sized, and not comparable across commits either (see
    # DiscreteSolution.residual)
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
    converged: bool = False   # the outcome: eta < eps, or eta = 0, at the end
    final_solution: DiscreteSolution | None = None

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    def to_csv(self, path):
        """`anfem-trace-v4`: one column per `IterationRecord` field."""
        names = [c.name for c in fields(IterationRecord)]
        with open(path, "w") as f:
            f.write("anfem-trace-v4\n" + ",".join(names) + "\n")
            for row in ([getattr(r, n) for n in names] for r in self.records):
                f.write(",".join(f"{v:.17g}" if isinstance(v, float)
                                 else str(v) for v in row) + "\n")


@dataclass(frozen=True)
class LoopParams:
    theta: float = 0.3
    eps: float = 0.0
    element_cap: int = 200_000
    max_iterations: int = 100
    check_reduction: bool = True

    def __post_init__(self):
        # the one place the loop's parameters are checked, each by name;
        # frozen, so a checked value cannot be replaced by an unchecked one
        _check_theta(self.theta)
        # a bool passes `>= 0` as 0 or 1, numpy's too
        if isinstance(self.eps, (bool, np.bool_)) or not self.eps >= 0.0:
            raise ValueError("eps must be a nonnegative number, "
                             f"got {self.eps!r}")
        check_count("element_cap", self.element_cap, 1)
        check_count("max_iterations", self.max_iterations, 1)
        if not isinstance(self.check_reduction, bool):
            raise ValueError("check_reduction must be a bool, "
                             f"got {self.check_reduction!r}")


def _solve_level(values: PointValues, it: int, gamma: float):
    """Solve the load of the record `values` on its mesh (`solve_saddle`
    runs the gates) and estimate; returns the solution, the estimator and
    the level's record (nothing marked yet). The record's degree-4 part is
    first needed after the solve, so it is built then."""
    mesh = values.mesh
    sol = solve_saddle(assemble_saddle(mesh, values.load, values=values))
    report = estimate(sol)
    rec = IterationRecord(
        iteration=it, nelems=mesh.num_triangles,
        ndofs=num_velocity_dofs(mesh) + mesh.num_triangles,
        eta2=float(report.eta_sq.sum()),
        eta_tilde2=float((BETA1 * report.vol_sq + report.eta_sq).sum()),
        osc2=float(report.osc_sq.sum()), vol2=float(report.vol_sq.sum()),
        nmarked=0, gamma=gamma, solver_iterations=sol.iterations,
        lu_fill=sol.lu_fill, solver_residual=sol.residual)
    if values.load.has_exact:
        rec.err_u2 = velocity_error_sq(sol)
        rec.err_p2 = pressure_error_sq(sol)
    return sol, report, rec


def anfem_loop(mesh0: Triangulation, load: LoadFunction,
               params: LoopParams | None = None) -> AdaptiveTrace:
    """Solve -> estimate -> mark -> refine until eta < eps, the element cap
    or the last iteration; the run ends with a solve, never a refinement.

    Each mesh has one `PointValues` record of the load, descended from the
    previous mesh's record: only the elements and edges `bisect` created
    are evaluated."""
    check_no_slip(mesh0, load)
    p = params or LoopParams()
    trace = AdaptiveTrace()
    values = PointValues(mesh0, load)
    # previous solution and estimator, and the nesting of the current mesh
    # in the previous one
    prev: tuple[DiscreteSolution, EstimatorReport, NestingSets] | None = None

    for it in range(p.max_iterations):
        sol, report, rec = _solve_level(
            values, it, 1.0 if prev is None else prev[2].gamma)
        if load.has_exact:
            rec.lam = rec.err_u2 + GAMMA1 * rec.err_p2 / load.mu ** 2 \
                + GAMMA2 * rec.eta_tilde2
            if trace.records and 0.0 < trace.records[-1].lam < np.inf:
                rec.alpha = rec.lam / trace.records[-1].lam

        if prev is not None:
            _cross_level_monitors(prev, sol, rec)
        trace.records.append(rec)
        trace.final_solution = sol

        eta = np.sqrt(rec.eta2)
        trace.converged = bool(eta < p.eps or eta == 0.0)
        if (trace.converged or rec.nelems >= p.element_cap
                or it + 1 == p.max_iterations):
            break

        marked = dorfler_mark(report, p.theta)
        rec.nmarked = len(marked)
        refined = bisect(sol.mesh, marked)
        ns = nesting_sets(sol.mesh, refined)
        values = values.descend(refined)

        if p.check_reduction:
            # its volume terms on `refined` are the next step's
            frozen = estimate_frozen(sol, values)
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

    return trace


def _cross_level_monitors(prev, sol, rec):
    """Constants between consecutive levels: discrete reliability, and,
    from the exact values in the solution's record, the empirical
    quasi-orthogonality constants (skipped without an exact solution)."""
    sol_prev, report_prev, ns = prev
    mesh, grads, mu = sol.mesh, sol.grads, sol.values.load.mu
    W = grads - sol_prev.grads[ns.ancestors]  # grad(u_k - u_{k-1}) on T_k
    wnorm = float(np.sqrt((mesh.area * np.einsum(
        "tij,tij->t", W, W)).sum()))
    dp = (sol.p - sol_prev.p[ns.ancestors]) / mu  # (p_k - p_{k-1}) / mu
    dpnorm = float(np.sqrt((mesh.area * dp ** 2).sum()))
    # (A3): ||u_k - u_{k-1}|| + ||p_k - p_{k-1}|| / mu <= C eta_{k-1}(R_k)
    den = np.sqrt(float(report_prev.eta_sq[ns.neighborhood].sum()))
    rec.drel = (wnorm + dpnorm) / den if den > 0 else np.nan
    if not sol.values.load.has_exact:
        return
    exact = sol.values.moments
    vol_refined = float(report_prev.vol_sq[ns.refined].sum())
    # a_k(u - u_k, u_k - u_{k-1}), grad w element-wise constant
    a_exact = float(np.einsum("tij,tij->", exact["grad_velocity"], W))
    a_disc = float((mesh.area * np.einsum("tij,tij->t", grads, W)).sum())
    qo_num = abs(a_exact - a_disc)
    err_u = np.sqrt(rec.err_u2)
    den = err_u * np.sqrt(vol_refined)
    rec.qo_velocity = qo_num / den if den > 0 else np.nan
    # (p - p_k, p_k - p_{k-1}) / mu^2
    p_exact = float((exact["pressure"] * dp).sum())
    p_disc = float((mesh.area * sol.p * dp).sum())
    qp_num = abs(p_exact - p_disc) / mu
    err_p = np.sqrt(rec.err_p2) / mu
    den_p = (np.sqrt(vol_refined) + wnorm) * err_p
    rec.qo_pressure = qp_num / den_p if den_p > 0 else np.nan


# ---------------------------------------------------------------------------
# uniform-refinement baseline


def uniform_trace(mesh0: Triangulation, load: LoadFunction,
                  levels: int) -> AdaptiveTrace:
    """Solve on `levels` meshes, each two uniform bisection rounds (four
    times the elements) finer than the one before, by the loop's per-level
    step. No tolerance, so the trace is never `converged`."""
    check_count("levels", levels, 1)
    check_no_slip(mesh0, load)
    trace = AdaptiveTrace()
    mesh = mesh0
    gamma = 1.0               # no previous mesh, as in anfem_loop
    for it in range(levels):
        if it > 0:
            trace.records[-1].nmarked = mesh.num_triangles
            mesh = uniform_refine(mesh, 2)
            gamma = 2.0
        # every element is split, so there is nothing to carry
        trace.final_solution, _, rec = _solve_level(
            PointValues(mesh, load), it, gamma)
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

