"""The four benchmark workloads, driven through anfem's public API and CLI.

Each workload has `setup(seed)` (import, domain build and load construction,
which users pay on every start), `run(ctx, seed)` (the timed work, repeated
within a run) and `verify(ctx, out)`, which returns the velocity + pressure
dofs solved and the list of failed output checks (empty when all pass).

numpy and anfem are imported inside the functions on purpose: the first
`setup` call of a process then includes the import in the set-up time.
Workloads call anfem through module attributes (`anfem.bisect`, ...) so that
the tracer's patches are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile

# scripts/run_lshape.py runs 30 adaptive steps (about 19 s, 3 824 elements);
# 26 steps (about 5 s, 1 672 elements) keep the run nesting-bound and fit
# the benchmark's time budget
ADAPTIVE_STEPS = 26
# rate_fit of lshape_adaptive (26 steps) at the commit that added this
# benchmark; lshape_uniform must stay at least UNIFORM_RATE_GAP above it
# (acceptance 8)
RECORDED_ADAPTIVE_RATE = -0.5089821819026963
UNIFORM_RATE_GAP = 0.1
INVARIANT_TOL = 1e-10     # the loop's own divergence / Galerkin bound


def _lshape_setup(seed):
    import anfem
    return {"mesh0": anfem.l_shape(),
            "load": anfem.problems.lshape_singular()}


def _trace_dofs(trace):
    return sum(r.ndofs for r in trace.records)


class LShapeAdaptive:
    """The paper's headline run as scripts/run_lshape.py ships it, with
    ADAPTIVE_STEPS steps; check_reduction=False as shipped."""
    setup = staticmethod(_lshape_setup)

    @staticmethod
    def run(ctx, seed):
        import anfem
        return anfem.anfem_loop(ctx["mesh0"], ctx["load"], anfem.LoopParams(
            theta=0.3, max_iterations=ADAPTIVE_STEPS,
            check_reduction=False))

    @staticmethod
    def verify(ctx, trace):
        import anfem
        rate = anfem.rate_fit(trace)
        return _trace_dofs(trace), [] if -0.6 <= rate <= -0.4 else [
            f"adaptive rate {rate:.4f} outside [-0.6, -0.4]"]


class LShapeUniform:
    """Uniform baseline of scripts/run_lshape.py on the same problem."""
    setup = staticmethod(_lshape_setup)

    @staticmethod
    def run(ctx, seed):
        import anfem
        return anfem.uniform_trace(ctx["mesh0"], ctx["load"], levels=7)

    @staticmethod
    def verify(ctx, trace):
        import anfem
        import numpy as np
        errors = []
        rate = anfem.rate_fit(trace)
        if rate < RECORDED_ADAPTIVE_RATE + UNIFORM_RATE_GAP:
            errors.append(f"uniform rate {rate:.4f} not {UNIFORM_RATE_GAP} "
                          f"above adaptive {RECORDED_ADAPTIVE_RATE:.4f}")
        # uniform_trace runs no invariant checks of its own: check the
        # final level with the loop's bounds
        sol = trace.final_solution
        system = anfem.assemble_saddle(sol.mesh, ctx["load"])
        gn = np.sqrt(anfem.spaces.broken_grad_norm_sq(sol.mesh, sol.u))
        div = anfem.spaces.max_element_divergence(sol)
        if div > INVARIANT_TOL * (1.0 + gn):
            errors.append(f"discrete divergence {div:.3e}")
        res = anfem.spaces.galerkin_residual(system, sol)
        if res > INVARIANT_TOL * max(1.0, float(np.abs(system.F).max())):
            errors.append(f"Galerkin residual {res:.3e}")
        return _trace_dofs(trace), errors


class SquareAdaptCli:
    """`anfem adapt` to a stated accuracy, estimator-reduction check on."""
    EPS = 0.08
    WORK = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")

    @staticmethod
    def setup(seed):
        import anfem
        import anfem.cli
        return {"mesh0": anfem.get_domain("square"),
                "load": anfem.get_solution("smooth1")}

    @classmethod
    def run(cls, ctx, seed):
        import anfem.cli
        os.makedirs(cls.WORK, exist_ok=True)
        out = tempfile.mkdtemp(dir=cls.WORK)
        argv = ["adapt", "--domain", "square", "--solution", "smooth1",
                "--theta", "0.3", "--eps", str(cls.EPS),
                "--max-iterations", "60", "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            code = anfem.cli.main(argv)
        return {"code": code, "out": out}

    @classmethod
    def verify(cls, ctx, out):
        try:
            if out["code"] != 0:
                return 0, [f"exit code {out['code']}"]
            with open(os.path.join(out["out"], "summary.json")) as f:
                summary = json.load(f)
            with open(os.path.join(out["out"], "trace.csv")) as f:
                rows = f.read().splitlines()[1:]      # after the schema line
            col = rows[0].split(",").index("ndofs")
            dofs = sum(int(r.split(",")[col]) for r in rows[1:])
            if not summary["final_eta"] < cls.EPS:
                return dofs, [f"final_eta {summary['final_eta']} >= "
                              f"{cls.EPS}"]
            return dofs, []
        finally:
            shutil.rmtree(out["out"], ignore_errors=True)


class TransferNested:
    """Transfer operators on a locally refined nested pair, then the
    criss-cross sqrt(N) study. The seed picks the refinement region and a
    random coarse CR vector."""
    REGION_FRACTION = 8      # 1/8 of the coarse elements, refined 4 times

    @staticmethod
    def setup(seed):
        import anfem
        return {"coarse": anfem.unit_square(8),
                "load": anfem.get_solution("smooth1")}

    @classmethod
    def run(cls, ctx, seed):
        import anfem
        import numpy as np
        coarse, load = ctx["coarse"], ctx["load"]
        rng = np.random.default_rng(seed)
        u = anfem.solve(coarse, load).u
        v = rng.standard_normal(len(u))
        centre = rng.uniform(0.25, 0.75, size=2)
        dist = np.linalg.norm(coarse.centroids() - centre, axis=1)
        region = np.argsort(dist, kind="stable")[
            :coarse.num_triangles // cls.REGION_FRACTION]
        fine = coarse
        for _ in range(4):
            anc = anfem.ancestor_map(coarse, fine)
            fine = anfem.bisect(fine, np.flatnonzero(np.isin(anc, region)))
        ns = anfem.nesting_sets(coarse, fine)
        naive = anfem.naive_prolongation(v, coarse, fine, ns.ancestors)
        mixed = anfem.mixed_prolongation(v, coarse, fine, ns)
        defects = [anfem.prolongation_defect_constant(
            coarse, fine, u, ns, operator=op) for op in ("mixed", "naive")]
        interp_fine = anfem.conservative_interpolation(load.velocity, fine)
        return {
            "v": v, "dofs": len(u) + coarse.num_triangles,
            "mixed": mixed, "defects": defects,
            "restricted_naive": anfem.restriction(
                naive, fine, coarse, ns.ancestors),
            "restricted_interp": anfem.restriction(
                interp_fine, fine, coarse, ns.ancestors),
            "interp_coarse": anfem.conservative_interpolation(
                load.velocity, coarse),
            "study": anfem.scaling_study([5, 11, 21, 41, 81]),
        }

    @staticmethod
    def verify(ctx, out):
        import numpy as np
        errors = []
        v = out["v"]
        # the fine edges tile the coarse edges, so restricting the naive
        # prolongation (means of the linear coarse traces) gives v back
        defect = np.abs(out["restricted_naive"] - v).max()
        if defect > 1e-10 * (1.0 + np.abs(v).max()):
            errors.append(f"restriction of naive prolongation off by "
                          f"{defect:.3e}")
        # conservative interpolation keeps the edge integrals across levels
        defect = np.abs(out["restricted_interp"] - out["interp_coarse"]).max()
        if defect > 1e-10:
            errors.append(f"conservative interpolation not conserved across "
                          f"levels: {defect:.3e}")
        if not all(np.isfinite(c) and c > 0 for c in out["defects"]):
            errors.append(f"defect constants {out['defects']}")
        if not np.all(np.isfinite(out["mixed"])):
            errors.append("mixed prolongation not finite")
        for row in out["study"]["rows"]:
            if abs(row["boundary_sum"] - row["closed_form"]) > 1e-10:
                errors.append(f"boundary_sum at N={row['N']} is "
                              f"{row['boundary_sum']!r}, closed form "
                              f"{row['closed_form']!r}")
        if out["study"]["exponent"] < 0.4:
            errors.append(f"pairing exponent {out['study']['exponent']:.3f}")
        return out["dofs"], errors


WORKLOADS = {
    "lshape_adaptive": LShapeAdaptive,
    "lshape_uniform": LShapeUniform,
    "square_adapt_cli": SquareAdaptCli,
    "transfer_nested": TransferNested,
}
