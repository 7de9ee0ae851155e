"""Residual-based a posteriori estimator, oscillation and consistency error.

Per element: eta_K = h_K ||g||_K + (sum_{E in dK} h_K ||[grad u tau_E]||_E^2)^{1/2}.
Boundary edges contribute the full tangential trace (jump against zero).
Each is a function of one discrete solution: the volume terms ||g||_K and
the oscillation, and the exact stress of the consistency error, come from
the `PointValues` record the solution carries (g, grad u and p at the
degree-4 points). The frozen estimator takes the refined mesh's record,
which the next step's estimator on that mesh shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadrature as quad
from .mesh import Triangulation, descent_maps
from .problems import PointValues
from .spaces import DiscreteSolution, assemble_saddle, scatter, spd_factor


@dataclass
class EstimatorReport:
    eta: np.ndarray           # (nt,) eta_K of the module docstring
    osc_sq: np.ndarray        # (nt,) h_K^2 ||g - g_K||_K^2
    vol_sq: np.ndarray        # (nt,) h_K^2 ||g||_K^2

    @property
    def eta_sq(self) -> np.ndarray:
        return self.eta ** 2


def tangential_jumps(mesh: Triangulation, grads: np.ndarray) -> np.ndarray:
    """Per edge: |[grad u tau_E]|^2 of element-wise constant gradients, (ne,)."""
    # (ne, 2, 2): grad u tau_E on each side, the missing one (-1) zeroed
    gt = (grads.take(mesh.edge_tris, axis=0)
          * mesh.edge_tangent[:, None, None]).sum(axis=-1)
    d = gt[:, 0] - np.where(mesh.boundary_edge[:, None], 0.0, gt[:, 1])
    return (d * d).sum(axis=1)


def _element_jump_sq(mesh: Triangulation, grads: np.ndarray) -> np.ndarray:
    """sum_{E subset dK} h_K ||[grad u tau_E]||^2_{L2(E)} per element."""
    jump_e = tangential_jumps(mesh, grads) * mesh.edge_length
    per_elem = jump_e[mesh.tri_edges].sum(axis=1)
    return mesh.h * per_elem


def _report(grads: np.ndarray, values: PointValues) -> EstimatorReport:
    """The estimator of element-wise gradients `grads` on the mesh of the
    record `values`."""
    mesh = values.mesh
    g_l2sq, osc_raw = values.volume_terms
    volume = mesh.h * np.sqrt(np.maximum(g_l2sq, 0.0))
    eta = volume + np.sqrt(_element_jump_sq(mesh, grads))
    return EstimatorReport(eta=eta, osc_sq=mesh.h ** 2 * osc_raw,
                           vol_sq=mesh.h ** 2 * g_l2sq)


def estimate(sol: DiscreteSolution) -> EstimatorReport:
    return _report(sol.grads, sol.values)


def estimate_frozen(sol_coarse: DiscreteSolution,
                    values: PointValues) -> EstimatorReport:
    """Estimator of the frozen coarse solution evaluated on a fine mesh that
    descends from its mesh by bisect; `values` is the fine mesh's record of
    the solved load."""
    if values.load is not sol_coarse.values.load:
        raise ValueError("values is the record of another load")
    ancestors = descent_maps(sol_coarse.mesh, values.mesh)[0]
    return _report(sol_coarse.grads[ancestors], values)


# ---------------------------------------------------------------------------
# computable consistency error


def consistency_error(sol: DiscreteSolution) -> float:
    """Dual norm sup_v [(g,v) - (sigma, grad v)] / ||grad v|| over the CR space
    of the exact stress sigma = mu grad u + p I.

    Computed by solving mu (grad w, grad v) = (g, v) - (sigma, grad v) with
    the system's A and returning mu ||grad w|| = sqrt(mu w.Aw), with mu, g,
    grad u and p from the solution's record.
    """
    values, mesh = sol.values, sol.mesh
    if not values.load.has_exact:
        raise ValueError("no exact solution available")
    mu = values.load.mu
    system = assemble_saddle(mesh, values.load, values=values)
    exact = values.at_points
    sigma = mu * exact["grad_velocity"]                 # (nt, nq, 2, 2)
    sigma[..., 0, 0] += exact["pressure"]
    sigma[..., 1, 1] += exact["pressure"]
    sigma_int = quad.integrate_values(mesh, sigma)      # (nt, 2, 2)
    # rhs: (g, psi_i e_c) - (sigma, grad(psi_i e_c)) = F - the sigma term
    # summed onto the dofs like F
    rhs = system.F - scatter(mesh, np.einsum(
        "tcd,tid->tic", sigma_int, -2.0 * mesh.bary_grads))
    w = spd_factor(system.A).solve(rhs)
    return float(np.sqrt(mu * max(w @ (system.A @ w), 0.0)))
