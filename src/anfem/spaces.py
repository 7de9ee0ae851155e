"""Crouzeix-Raviart / P0 spaces, saddle-point assembly and solve.

Velocity dofs: two components per interior edge (edge-mean values); boundary
edge means are zero and carry no dof.  `element_dofs` and `edge_values` are
the only code that knows this layout.  Pressure: one value per element.
Assembly scatters each element's entries onto the interior dofs, dropping
those of boundary edges, and takes g at the edge midpoints from the mesh's
`PointValues` record (built here when the caller passes none); `solve` first
checks that an exact velocity is zero on the boundary (`check_no_slip`).
The system and its solution carry that record, so the error norms and the
estimator take the exact grad u and p and g at the degree-4 points from the
record the solve used, and the viscosity mu from its load
(`LoadFunction.mu`).

The solve is augmented-Lagrangian Uzawa iteration (Fortin & Glowinski 1983):
with the diagonal P0 mass matrix M_p and r = 1e6 * mu it factors the SPD
K = A + r B^T M_p^-1 B once (`spd_factor`, one-column SuperLU panels), and
each step is one solve u = K^-1 (F - B^T p) followed by p += r M_p^-1 B u.
It stops when the maximum element divergence no longer halves (about 4
steps) or raises `SolverError` after 60 steps; one closing refinement step
on the saddle residual follows, so a solve costs iterations + 1 triangular
solves.  It then shifts p to zero mean (the constants are ker B^T, CR/P0
being inf-sup stable) and gates the full saddle residual at 1e-10 relative
to max(||F||, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from . import quadrature as quad
from .mesh import Triangulation
from .problems import LoadFunction, PointValues, check_no_slip


class SolverError(RuntimeError):
    pass


def element_dofs(mesh: Triangulation) -> np.ndarray:
    """(nt, 3, 2) velocity dof of component c on each element's local edge,
    -1 on boundary edges: the k-th interior edge carries 2k and 2k + 1."""
    dofs = np.full((mesh.num_edges, 2), -1, dtype=np.int32)
    dofs[mesh.interior_edges] = np.arange(
        num_velocity_dofs(mesh)).reshape(-1, 2)
    return dofs.take(mesh.tri_edges, axis=0)


def scatter(mesh: Triangulation, local: np.ndarray) -> np.ndarray:
    """Sum per-element values `local`, (nt, 3, 2) like `element_dofs`, onto
    the velocity dofs; those of boundary edges are dropped."""
    edof = element_dofs(mesh)
    on = edof >= 0
    return np.bincount(edof[on], local[on], num_velocity_dofs(mesh))


def edge_values(mesh: Triangulation, u: np.ndarray) -> np.ndarray:
    """(ne, 2) edge means of the CR function u, zero on boundary edges."""
    vals = np.zeros((mesh.num_edges, 2))
    vals[mesh.interior_edges] = u.reshape(-1, 2)
    return vals


def num_velocity_dofs(mesh: Triangulation) -> int:
    return 2 * len(mesh.interior_edges)


@dataclass
class SaddleSystem:
    values: PointValues           # the mesh's record of the load's values
    A: sparse.csr_matrix          # velocity block, SPD on the CR space
    B: sparse.csr_matrix          # divergence coupling, (nt, nu)
    F: np.ndarray                 # load vector, (nu,)

    @property
    def mesh(self) -> Triangulation:
        return self.values.mesh


@dataclass
class DiscreteSolution:
    values: PointValues           # the record of the solved load's values
    u: np.ndarray                 # (2 * n_interior_edges,)
    p: np.ndarray                 # (nt,)
    iterations: int               # Uzawa steps of the solve
    # the entries SuperLU stores for its SPD factor (`nnz`, supernode
    # padding included): fixed by the sparsity pattern and the ordering,
    # not by round-off
    lu_fill: int
    # the gated saddle residual / max(||F||, 1): round-off sized (about
    # 1e-15), so it moves with the order of the floating-point operations
    # and is not comparable across commits
    residual: float

    @property
    def mesh(self) -> Triangulation:
        return self.values.mesh

    @cached_property
    def grads(self) -> np.ndarray:
        """`cr_gradients` of u, computed on first use: the one copy the
        checks, the estimators, the error norm and the loop's monitors
        read. It is not recomputed, so u must not change after the first
        read."""
        return cr_gradients(self.mesh, self.u)


def assemble_saddle(mesh: Triangulation, load: LoadFunction, *,
                    values: PointValues | None = None) -> SaddleSystem:
    """A, B and F of `load` (with its viscosity `load.mu`) scattered
    straight onto the interior dofs: entries of the per-edge dofs of
    boundary edges (whose means are zero) are dropped. `values` is the
    mesh's record of `load`'s values, if the caller keeps one; the system
    and its solution carry it."""
    values = values or PointValues(mesh, load)
    if values.mesh is not mesh or values.load is not load:
        raise ValueError("values is the record of another mesh or load")
    nt, nu = mesh.num_triangles, num_velocity_dofs(mesh)
    edof = element_dofs(mesh)
    on = edof >= 0
    gpsi = -2.0 * mesh.bary_grads               # (nt, 3, 2) grad of CR basis

    # scalar stiffness S_ij = mu |K| gpsi_i . gpsi_j, same for both
    # components; the (nt, 3, 3, 2) index and value arrays of A's entries
    # are broadcast views, so only the kept entries are copied
    S = load.mu * mesh.area[:, None, None] * (
        gpsi[:, :, None, 0] * gpsi[:, None, :, 0]
        + gpsi[:, :, None, 1] * gpsi[:, None, :, 1])
    shape4 = (nt, 3, 3, 2)
    rows = np.broadcast_to(edof[:, :, None], shape4)
    cols = np.broadcast_to(edof[:, None], shape4)
    both = on[:, :, None] & on[:, None]
    A = sparse.csr_matrix(
        (np.broadcast_to(S[..., None], shape4)[both],
         (rows[both], cols[both])), shape=(nu, nu))

    # divergence coupling b(v, q) = sum_K q_K |K| div v|_K
    B = sparse.csr_matrix(
        ((mesh.area[:, None, None] * gpsi)[on], (np.nonzero(on)[0], edof[on])),
        shape=(nt, nu))

    # load vector by the edge-midpoint rule, psi_i(m_j) = delta_ij, with g
    # evaluated once per edge
    gvals = values.at_midpoints["g"].take(mesh.tri_edges, axis=0)  # (nt,3,2)
    F = scatter(mesh, (mesh.area / 3.0)[:, None, None] * gvals)

    return SaddleSystem(values=values, A=A, B=B, F=F)


def spd_factor(M: sparse.spmatrix):
    """LU factor of the sparse SPD matrix M with a symmetric fill-reducing
    ordering and no pivoting (an SPD matrix needs none).  One-column panels
    (`panel_size=1`) factor the CR stiffness faster than the default width
    and leave the ordering and the fill as they are."""
    return spla.splu(sparse.csc_matrix(M), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0, panel_size=1,
                     options={"SymmetricMode": True})


# augmented-Lagrangian weight r / mu (each step contracts more as r grows,
# but r = 1e8 already loses digits), and the Uzawa step cap
AL_WEIGHT = 1e6
MAX_UZAWA_STEPS = 60


def solve_saddle(system: SaddleSystem) -> DiscreteSolution:
    """(u, p) with A u + B^T p = F, B u = 0 and zero-mean p, by the
    augmented-Lagrangian Uzawa iteration of the module docstring."""
    mesh = system.mesh
    A, B, F = system.A, system.B, system.F
    if A.shape[0] == 0:
        raise SolverError("mesh has no interior edges; system is singular")
    BT = B.T.tocsr()
    # r M_p^-1 B: maps u to r times its element divergence
    rdiv = B.copy()
    rdiv.data *= np.repeat(AL_WEIGHT * system.values.load.mu / mesh.area,
                           np.diff(B.indptr))
    try:
        # one CSC copy of K: the CSR sum is freed before the factorization
        lu = spd_factor((A + BT @ rdiv).tocsc())
    except RuntimeError as exc:
        raise SolverError(f"saddle-point factorization failed: {exc}") from exc
    p = np.zeros(mesh.num_triangles)
    div_prev = np.inf
    for steps in range(1, MAX_UZAWA_STEPS + 1):
        u = lu.solve(F - BT @ p)
        p = p + rdiv @ u
        div = float(np.abs(B @ u / mesh.area).max())
        if not np.isfinite(div):
            raise SolverError(f"Uzawa iterate not finite at step {steps}")
        # ">=" so that an exactly divergence-free iterate (zero load) stops
        if div >= 0.5 * div_prev:
            break
        div_prev = div
    else:
        raise SolverError(f"Uzawa iteration still converging after "
                          f"{MAX_UZAWA_STEPS} steps (max |div u| {div:.3e})")
    # one closing refinement step on the saddle residual; without it the
    # residual misses its gate (about 1e-9 on corner-graded meshes).  Inside
    # the loop it would change nothing until the divergence reaches
    # round-off, so the steps above are one solve each.
    du = lu.solve(F - A @ u - BT @ p)
    u = u + du
    p = p + rdiv @ du
    p = p - (mesh.area @ p) / mesh.area.sum()   # exact zero mean
    resid = np.hypot(np.linalg.norm(F - A @ u - BT @ p),
                     np.linalg.norm(B @ u))
    resid /= max(np.linalg.norm(F), 1.0)
    if not np.isfinite(resid) or resid > 1e-10:
        raise SolverError(f"linear solve residual too large: {resid:.3e}")
    return DiscreteSolution(values=system.values, u=u, p=p, iterations=steps,
                            lu_fill=lu.nnz, residual=resid)


def solve(mesh: Triangulation, load: LoadFunction) -> DiscreteSolution:
    check_no_slip(mesh, load)
    return solve_saddle(assemble_saddle(mesh, load))


# ---------------------------------------------------------------------------
# elementwise evaluation of CR functions


def cr_element_coeffs(mesh: Triangulation, u: np.ndarray) -> np.ndarray:
    """(nt, 3, 2) edge-mean values per element (zeros on boundary edges)."""
    return edge_values(mesh, u).take(mesh.tri_edges, axis=0)


def cr_gradients(mesh: Triangulation, u: np.ndarray) -> np.ndarray:
    """Per-element gradient tensor G[t, i, j] = d u_i / d x_j, (nt, 2, 2)."""
    return quad.combine3(cr_element_coeffs(mesh, u).transpose(0, 2, 1),
                         -2.0 * mesh.bary_grads[:, None])


def cr_vertex_values(mesh: Triangulation, u: np.ndarray) -> np.ndarray:
    """One-sided values at element corners, (nt, 3, 2): psi_i = 1 - 2
    lambda_i at the barycentric corners."""
    c0, c1, c2 = cr_element_coeffs(mesh, u).transpose(1, 0, 2)
    return np.stack([c1 - c0 + c2, c0 - c1 + c2, c0 + c1 - c2], axis=1)


# ---------------------------------------------------------------------------
# broken norms


def broken_grad_norm_sq(mesh: Triangulation, u: np.ndarray) -> float:
    G = cr_gradients(mesh, u)
    return float((mesh.area * np.einsum("tij,tij->t", G, G)).sum())


# ---------------------------------------------------------------------------
# errors against a manufactured solution


def velocity_error_sq(sol: DiscreteSolution) -> float:
    """Broken H1 seminorm error squared, degree-4 quadrature."""
    diff = sol.values.at_points["grad_velocity"] - sol.grads[:, None, :, :]
    per_pt = np.einsum("tqij,tqij->tq", diff, diff)
    return float((sol.mesh.area * (per_pt @ quad.DEG4_WEIGHTS)).sum())


def pressure_error_sq(sol: DiscreteSolution) -> float:
    """L2 pressure error squared, degree-4 quadrature."""
    diff = (sol.values.at_points["pressure"] - sol.p[:, None]) ** 2
    return float((sol.mesh.area * (diff @ quad.DEG4_WEIGHTS)).sum())


def max_element_divergence(sol: DiscreteSolution) -> float:
    G = sol.grads
    return float(np.abs(G[:, 0, 0] + G[:, 1, 1]).max())


def galerkin_residual(system: SaddleSystem, sol: DiscreteSolution) -> float:
    """max |Res_k(phi_i)| over all same-level CR basis functions."""
    r = system.F - system.A @ sol.u - system.B.T @ sol.p
    return float(np.abs(r).max()) if len(r) else 0.0
