"""Command-line entry point: adaptive runs, verification suites, and the
criss-cross scaling study.  All commands are deterministic for a fixed seed.

Exit codes: 0 success/convergence, 1 verification failure, 2 usage error,
3 adaptive run truncated at the element cap.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from dataclasses import asdict, fields, replace

import numpy as np
import scipy

from . import adaptive, counterexample, transfer
from .domains import get_domain
from .mesh import MeshError, read_mesh, uniform_refine
from .problems import get_solution

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_TRUNCATED = 3
# thread-pool sizes of the BLAS/OpenMP libraries, recorded in summary.json
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _add_shared_flags(p):
    p.add_argument("--theta", type=float, default=0.3)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--beta1", type=float, default=1.0)
    p.add_argument("--element-cap", type=int, default=200_000)
    p.add_argument("--out", default=".", help="output directory")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="anfem",
        description="Adaptive nonconforming FEM for the 2D Stokes problem")
    sub = ap.add_subparsers(dest="command", required=True)

    p_adapt = sub.add_parser("adapt", help="run the adaptive loop")
    _add_shared_flags(p_adapt)
    p_adapt.add_argument("--domain", default="square",
                         choices=["square", "lshape", "diamond"])
    p_adapt.add_argument("--mesh", default=None,
                         help="mesh file overriding --domain")
    p_adapt.add_argument("--eps", type=float, default=1e-3)
    p_adapt.add_argument("--gamma1", type=float, default=1.0)
    p_adapt.add_argument("--gamma2", type=float, default=1.0)
    p_adapt.add_argument("--solution", default="smooth1",
                         choices=["smooth1", "constant", "zero"])
    p_adapt.add_argument("--max-iterations", type=int, default=60)

    p_verify = sub.add_parser("verify", help="run the property suites")
    _add_shared_flags(p_verify)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--suite", default="all",
                          choices=["all", "operators", "estimator",
                                   "quasi-orthogonality", "counterexample"])

    p_ce = sub.add_parser("counterexample",
                          help="criss-cross scaling study")
    p_ce.add_argument("--n", type=int, nargs="+", default=[5, 11, 21, 41],
                      help="odd grid parameters (need at least 4)")
    p_ce.add_argument("--out", default=".")
    return ap


def cmd_adapt(args, mesh0, params) -> int:
    load = get_solution(args.solution, args.mu)
    trace = adaptive.anfem_loop(mesh0, load, params)

    os.makedirs(args.out, exist_ok=True)
    trace.to_csv(os.path.join(args.out, "trace.csv"))
    final = trace.records[-1]
    summary = {"schema": "anfem-summary-v2",
               "converged": trace.converged, "truncated": trace.truncated,
               "iterations": len(trace.records),
               "final_nelems": final.nelems, "final_ndofs": final.ndofs,
               "final_eta": float(np.sqrt(final.eta2)),
               "solver_iterations": int(
                   trace.column("solver_iterations").sum()),
               "params": asdict(params),
               "versions": {"python": platform.python_version(),
                            "numpy": np.__version__,
                            "scipy": scipy.__version__},
               "threads": {v: os.environ.get(v) for v in THREAD_VARS}}
    try:
        summary["rate"] = adaptive.rate_fit(trace)
    except ValueError:
        summary["rate"] = None
    with open(os.path.join(args.out, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2)
    print(f"iterations={summary['iterations']} "
          f"nelems={final.nelems} eta={summary['final_eta']:.6g} "
          f"rate={summary['rate']}")
    return EXIT_TRUNCATED if trace.truncated else EXIT_OK


# ---------------------------------------------------------------------------
# verification suites


def _suite_operators(args, params):
    rng = np.random.default_rng(args.seed)
    mesh = uniform_refine(get_domain("square"), 1)
    checks = []
    for trial in range(20):
        a = rng.normal(size=(2, 6))

        def field(x, y, a=a):
            basis = np.stack([np.ones_like(x), x, y, x * y,
                              np.sin(x), np.cos(y)], axis=-1)
            return np.stack([basis @ a[0], basis @ a[1]], axis=-1)

        v = transfer.conservative_interpolation(field, mesh)
        means = transfer.edge_means_of_field(field, mesh)
        got = v.reshape(-1, 2)
        want = means[mesh.interior_edges]
        checks.append(float(np.abs(got - want).max()))
    worst = max(checks)
    ok = worst <= 1e-12
    return ok, f"conservative interpolation worst edge-mean defect {worst:.2e}"


def _suite_estimator(args, params):
    load = get_solution("constant", params.mu)
    try:
        # 16 solves: the loop checks reduction at each of its 15 refinements
        adaptive.anfem_loop(get_domain("lshape"), load,
                            replace(params, max_iterations=16))
    except AssertionError as exc:
        return False, f"estimator reduction failed: {exc}"
    return True, "estimator reduction held on 15 refinement steps"


def _suite_qo(args, params):
    load = get_solution("smooth1", params.mu)
    trace = adaptive.anfem_loop(get_domain("square"), load,
                                replace(params, max_iterations=12))
    qv = trace.column("qo_velocity")
    qp = trace.column("qo_pressure")
    vals = np.concatenate([qv[np.isfinite(qv)], qp[np.isfinite(qp)]])
    if len(vals) == 0:
        return False, "no quasi-orthogonality constants recorded"
    ok = bool(np.all(np.isfinite(vals)))
    return ok, (f"quasi-orthogonality constants in "
                f"[{vals.min():.3g}, {vals.max():.3g}]")


def _suite_counterexample(args, params):
    fam = counterexample.build_family(11)
    nodal = counterexample.build_test_pair(fam)
    got = counterexample.boundary_sum(fam, nodal)
    want = counterexample.closed_form(11)
    ok = abs(got - want) <= 1e-10
    return ok, f"boundary sum {got:.12g} vs closed form {want:.12g}"


def cmd_verify(args, params) -> int:
    suites = {"operators": _suite_operators,
              "estimator": _suite_estimator,
              "quasi-orthogonality": _suite_qo,
              "counterexample": _suite_counterexample}
    names = list(suites) if args.suite == "all" else [args.suite]
    report = []
    failed = False
    for name in names:
        ok, msg = suites[name](args, params)
        report.append({"suite": name, "pass": bool(ok), "detail": msg})
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {msg}")
        failed |= not ok
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "verify.json"), "w") as f:
        json.dump({"schema": "anfem-verify-v1", "suites": report}, f,
                  indent=2)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_counterexample(args) -> int:
    try:        # scaling_study and build_family validate the grid parameters
        study = counterexample.scaling_study(args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "counterexample.csv")
    with open(path, "w") as f:
        f.write("anfem-counterexample-v1\n")
        f.write("N,boundary_sum,grad_norm_sq,C,closed_form\n")
        for r in study["rows"]:
            f.write(f"{r['N']},{r['boundary_sum']:.17g},"
                    f"{r['grad_norm_sq']:.17g},{r['C']:.17g},"
                    f"{r['closed_form']:.17g}\n")
    print(f"exponent={study['exponent']:.6g} rows={len(study['rows'])} "
          f"csv={path}")
    return EXIT_OK


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "counterexample":
        return cmd_counterexample(args)
    # LoopParams checks every loop parameter the subcommand was given
    given = {f.name: getattr(args, f.name)
             for f in fields(adaptive.LoopParams) if hasattr(args, f.name)}
    try:
        params = adaptive.LoopParams(**given)
    except ValueError as exc:
        ap.error(str(exc))
    if args.command == "verify":
        return cmd_verify(args, params)
    try:
        mesh0 = read_mesh(args.mesh) if args.mesh else get_domain(args.domain)
    except (MeshError, OSError) as exc:
        ap.error(f"--mesh: {exc}")
    return cmd_adapt(args, mesh0, params)


if __name__ == "__main__":
    sys.exit(main())
