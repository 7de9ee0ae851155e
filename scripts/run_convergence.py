#!/usr/bin/env python3
"""Uniform-refinement convergence study for the manufactured smooth flow:
velocity error, pressure error, estimator and consistency error per level."""

import argparse

import numpy as np

from anfem import (consistency_error, estimate, get_solution, solve,
                   unit_square)
from anfem.mesh import uniform_refine
from anfem.spaces import pressure_error_sq, velocity_error_sq


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--levels", type=int, default=5)
    ap.add_argument("--mu", type=float, default=1.0)
    args = ap.parse_args()

    load = get_solution("smooth1", args.mu)
    mesh = unit_square(3)
    print(f"{'nelems':>8} {'h':>10} {'err_u':>12} {'err_p':>12} "
          f"{'eta':>12} {'consis':>12}")
    prev = None
    for _ in range(args.levels):
        # the solution carries one evaluation of g, grad u and p, which the
        # estimator, the errors and the consistency error share
        sol = solve(mesh, load)
        report = estimate(sol)
        err_u = np.sqrt(velocity_error_sq(sol))
        err_p = np.sqrt(pressure_error_sq(sol))
        eta = np.sqrt(report.eta_sq.sum())
        consis = consistency_error(sol)
        h = mesh.h.max()
        row = (err_u, err_p, eta, consis)
        print(f"{mesh.num_triangles:>8} {h:>10.4g} " +
              " ".join(f"{v:>12.5g}" for v in row), end="")
        if prev is not None:
            print("   ratios " + " ".join(
                f"{p / v:.2f}" for p, v in zip(prev, row)))
        else:
            print()
        prev = row
        mesh = uniform_refine(mesh, 1)


if __name__ == "__main__":
    main()
