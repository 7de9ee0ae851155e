"""Residual-based a posteriori estimator and oscillation.

Per element: eta_K = h_K ||g||_K + (sum_{E in dK} h_K ||[grad u tau_E]||_E^2)^{1/2}.
Boundary edges contribute the full tangential trace (jump against zero).
Each is a function of one discrete solution: the volume terms ||g||_K and
the oscillation come from the `PointValues` record the solution carries
(g at the degree-4 points). The frozen estimator takes the refined mesh's
record, which the next step's estimator on that mesh shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Triangulation, descent_maps
from .problems import PointValues
from .spaces import DiscreteSolution


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

