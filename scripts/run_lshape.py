#!/usr/bin/env python3
"""Adaptive run on the L-shaped domain with the manufactured corner
singularity, plus a uniform baseline, writing both traces and fitted rates
and printing the process's peak resident memory."""

import argparse
import os
import resource

import numpy as np

from anfem import LoopParams, anfem_loop, l_shape, rate_fit, uniform_trace
from anfem.problems import lshape_singular


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--theta", type=float, default=0.3)
    ap.add_argument("--iterations", type=int, default=30)
    ap.add_argument("--out", default="out/lshape")
    args = ap.parse_args()

    load = lshape_singular()
    mesh0 = l_shape()

    trace = anfem_loop(mesh0, load, LoopParams(
        theta=args.theta, max_iterations=args.iterations,
        check_reduction=False))
    uni = uniform_trace(mesh0, load, levels=7)

    os.makedirs(args.out, exist_ok=True)
    trace.to_csv(os.path.join(args.out, "adaptive_trace.csv"))
    uni.to_csv(os.path.join(args.out, "uniform_trace.csv"))

    ra = rate_fit(trace)
    ru = rate_fit(uni)
    print(f"adaptive: {len(trace.records)} iterations, "
          f"{trace.records[-1].nelems} elements, rate {ra:.3f}")
    print(f"uniform:  {len(uni.records)} levels, "
          f"{uni.records[-1].nelems} elements, rate {ru:.3f}")
    corner = np.array([0.0, 0.0])
    mesh = trace.final_solution.mesh
    d = np.linalg.norm(mesh.centroids() - corner, axis=1)
    print(f"closest element centroid to the reentrant corner: {d.min():.2e}")
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"peak RSS: {peak / 1024:.1f} MiB ({peak} KiB)")


if __name__ == "__main__":
    main()
