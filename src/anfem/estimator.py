"""Residual-based a posteriori estimator, oscillation and consistency error.

Per element: eta_K = h_K ||g||_K + (sum_{E in dK} h_K ||[grad u tau_E]||_E^2)^{1/2}.
Boundary edges contribute the full tangential trace (jump against zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadrature as quad
from .mesh import Triangulation, descent_maps
from .problems import LoadFunction
from .spaces import (DiscreteSolution, assemble_saddle, cr_gradients,
                     edge_values, interior_dofs, num_velocity_dofs,
                     spd_factor)


@dataclass
class EstimatorReport:
    mesh: Triangulation
    eta: np.ndarray           # (nt,) eta_K of the module docstring
    osc_sq: np.ndarray        # (nt,) h_K^2 ||g - g_K||_K^2
    vol_sq: np.ndarray        # (nt,) h_K^2 ||g||_K^2

    @property
    def eta_sq(self) -> np.ndarray:
        return self.eta ** 2

    @property
    def total_eta_sq(self) -> float:
        return float(self.eta_sq.sum())

    @property
    def total_osc_sq(self) -> float:
        return float(self.osc_sq.sum())

    @property
    def total_vol_sq(self) -> float:
        return float(self.vol_sq.sum())


def tangential_jumps(mesh: Triangulation, grads: np.ndarray) -> np.ndarray:
    """Per edge: |[grad u tau_E]|^2 of element-wise constant gradients, (ne,)."""
    tau = mesh.edge_tangent
    k0 = mesh.edge_tris[:, 0]
    k1 = mesh.edge_tris[:, 1]
    gt0 = np.einsum("eij,ej->ei", grads[k0], tau)
    gt1 = np.where(mesh.boundary_edge[:, None], 0.0,
                   np.einsum("eij,ej->ei", grads[np.maximum(k1, 0)], tau))
    d = gt0 - gt1
    return np.einsum("ei,ei->e", d, d)


def _element_jump_sq(mesh: Triangulation, grads: np.ndarray) -> np.ndarray:
    """sum_{E subset dK} h_K ||[grad u tau_E]||^2_{L2(E)} per element."""
    jump_e = tangential_jumps(mesh, grads) * mesh.edge_length
    per_elem = jump_e[mesh.tri_edges].sum(axis=1)
    return mesh.h * per_elem


def _volume_terms(mesh: Triangulation, load: LoadFunction):
    g = quad.values_at(mesh, load.g)          # (nt, nq, 2)
    g_l2sq = quad.integrate_values(mesh, np.einsum("...c,...c->...", g, g))
    g_mean = quad.integrate_values(mesh, g) / mesh.area[:, None]
    osc_sq = g_l2sq - mesh.area * np.einsum("tc,tc->t", g_mean, g_mean)
    osc_sq = np.maximum(osc_sq, 0.0)
    return g_l2sq, osc_sq


def estimator_from_grads(mesh: Triangulation, grads: np.ndarray,
                         load: LoadFunction) -> EstimatorReport:
    g_l2sq, osc_raw = _volume_terms(mesh, load)
    volume = mesh.h * np.sqrt(np.maximum(g_l2sq, 0.0))
    eta = volume + np.sqrt(_element_jump_sq(mesh, grads))
    return EstimatorReport(mesh=mesh, eta=eta, osc_sq=mesh.h ** 2 * osc_raw,
                           vol_sq=mesh.h ** 2 * g_l2sq)


def estimate(sol: DiscreteSolution, load: LoadFunction) -> EstimatorReport:
    grads = cr_gradients(sol.mesh, sol.u)
    return estimator_from_grads(sol.mesh, grads, load)


def estimate_frozen(sol_coarse: DiscreteSolution, fine: Triangulation,
                    load: LoadFunction) -> EstimatorReport:
    """Estimator of the frozen coarse solution evaluated on a fine mesh that
    descends from its mesh by bisect."""
    ancestors = descent_maps(sol_coarse.mesh, fine)[0]
    coarse_grads = cr_gradients(sol_coarse.mesh, sol_coarse.u)
    return estimator_from_grads(fine, coarse_grads[ancestors], load)


def modified_eta(report: EstimatorReport, beta1: float = 1.0) -> float:
    """Squared modified estimator sum_K (beta1 h_K^2 ||g||^2 + eta_K^2)."""
    if beta1 <= 0:
        raise ValueError("beta1 must be positive")
    return float((beta1 * report.vol_sq + report.eta_sq).sum())


# ---------------------------------------------------------------------------
# computable consistency error


def consistency_error(sigma, mesh: Triangulation, load: LoadFunction) -> float:
    """Dual norm sup_v [(g,v) - (sigma, grad v)] / ||grad v|| over the CR space.

    Computed by solving (grad w, grad v) = (g, v) - (sigma, grad v) and
    returning ||grad w||.  `sigma` is a callable (x, y) -> (..., 2, 2).
    """
    if num_velocity_dofs(mesh) == 0:
        return 0.0
    system = assemble_saddle(mesh, load, 1.0)
    sigma_int = quad.integrate(
        mesh, lambda x, y: np.asarray(sigma(x, y)))     # (nt, 2, 2)
    # rhs: (g, psi_i e_c) - (sigma, grad(psi_i e_c)), local edge by local edge
    sl = np.einsum("tcd,tid->itc", sigma_int, -2.0 * mesh.bary_grads)
    rhs = edge_values(mesh, system.F)
    np.add.at(rhs, mesh.tri_edges.T, -sl)
    rhs = rhs.ravel()[interior_dofs(mesh)]
    w = spd_factor(system.A).solve(rhs)
    return float(np.sqrt(max(w @ (system.A @ w), 0.0)))
