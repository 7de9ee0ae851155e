"""Command-line entry point with two subcommands: `adapt`, the adaptive
loop, and `counterexample`, the criss-cross scaling study.  Both are
deterministic.  The paper's properties are checked by the acceptance suite,
`tests/test_acceptance.py`.

Exit codes: 0 success (for `adapt`, the run reached --eps), 2 usage error,
3 the adaptive run stopped at --element-cap or --max-iterations first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from dataclasses import asdict

import numpy as np
import scipy

from . import adaptive, counterexample
from .domains import get_domain
from .mesh import MeshError, read_mesh
from .problems import check_no_slip, get_solution

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3
# thread-pool sizes of the BLAS/OpenMP libraries, recorded in summary.json
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="anfem",
        description="Adaptive nonconforming FEM for the 2D Stokes problem")
    sub = ap.add_subparsers(dest="command", required=True)

    p_adapt = sub.add_parser("adapt", help="run the adaptive loop")
    p_adapt.add_argument("--theta", type=float, default=0.3)
    p_adapt.add_argument("--mu", type=float, default=1.0, help="viscosity")
    p_adapt.add_argument("--element-cap", type=int, default=200_000)
    p_adapt.add_argument("--out", default=".", help="output directory")
    p_adapt.add_argument("--domain", default="square",
                         choices=["square", "lshape", "diamond"])
    p_adapt.add_argument("--mesh", default=None,
                         help="mesh file overriding --domain")
    p_adapt.add_argument("--eps", type=float, default=1e-2, help=(
        "target for eta, the estimator of the problem rescaled to mu = 1: "
        "for a load that rescales, the same accuracy at every --mu"))
    p_adapt.add_argument(
        "--solution", default="smooth1",
        choices=["smooth1", "constant", "zero"],
        help="no lshape_singular: adapt always checks estimator reduction, "
             "which fails on it at step 1; scripts/run_lshape.py runs it "
             "with the check off")
    p_adapt.add_argument("--max-iterations", type=int, default=60)

    p_ce = sub.add_parser("counterexample",
                          help="criss-cross scaling study")
    p_ce.add_argument("--n", type=int, nargs="+",
                      default=[81, 161, 321, 641, 1281],
                      help="odd grid parameters (at least four odd N ≥ 3, "
                           "none repeated)")
    p_ce.add_argument("--out", default=".")
    return ap


def cmd_adapt(args, mesh0, load, params) -> int:
    trace = adaptive.anfem_loop(mesh0, load, params)
    trace.to_csv(os.path.join(args.out, "trace.csv"))
    final = trace.records[-1]
    summary = {"schema": "anfem-summary-v5", "converged": trace.converged,
               "iterations": len(trace.records),
               "final_nelems": final.nelems, "final_ndofs": final.ndofs,
               "final_eta": float(np.sqrt(final.eta2)),
               "solver_iterations": int(
                   trace.column("solver_iterations").sum()),
               "mu": load.mu, "params": asdict(params),
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
    return EXIT_OK if trace.converged else EXIT_NOT_CONVERGED


def cmd_counterexample(args) -> int:
    try:        # scaling_study and build_family validate the grid parameters
        study = counterexample.scaling_study(args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    if args.command == "adapt":
        try:
            mesh0 = (read_mesh(args.mesh) if args.mesh
                     else get_domain(args.domain))
            if not len(mesh0.interior_edges):
                raise MeshError("no interior edge, so no velocity unknown")
        except (MeshError, OSError) as exc:
            ap.error(f"--mesh: {exc}")
        try:
            params = adaptive.LoopParams(
                theta=args.theta, eps=args.eps, element_cap=args.element_cap,
                max_iterations=args.max_iterations)
            load = get_solution(args.solution, args.mu)
            check_no_slip(mesh0, load)
        except ValueError as exc:
            ap.error(str(exc))
    # made before the run, so that a path that cannot be a directory is a
    # usage error and not a traceback after the work is done
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        ap.error(f"--out: {exc}")
    if args.command == "counterexample":
        return cmd_counterexample(args)
    return cmd_adapt(args, mesh0, load, params)


if __name__ == "__main__":
    sys.exit(main())
