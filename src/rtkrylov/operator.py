"""Global operator A = Id - transfer * scattering as a matrix-free map.

Also builds the right-hand side (thermal emission routed through transfer
plus the boundary term) and dense materializations for spectrum inspection
and direct-solve oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rtkrylov.errors import DENSE_CAP_DEFAULT, ResourceLimitError
from rtkrylov.scattering import ScatteringOperator, apply_scattering, psi_matrix

__all__ = [
    "DENSE_CAP_DEFAULT",
    "ResourceLimitError",
    "RTProblem",
    "apply_A",
    "build_rhs",
    "materialize_A",
]


@dataclass
class RTProblem:
    """Grid, operators, and thermal source of one radiative transfer setup."""

    grid: object                 # 1D Grid or CartesianGrid2D
    transfer: object             # transfer operator (1D per-ray or 2D composed)
    scattering: ScatteringOperator
    thermal: np.ndarray  # space-major source epsilon_t / chi
    descriptor: dict = field(default_factory=dict)

    def __post_init__(self):
        self.thermal = np.asarray(self.thermal, dtype=float)
        if self.thermal.size != self.grid.n_total:
            raise ValueError("thermal source length does not match the grid")

    @property
    def n_total(self) -> int:
        return self.grid.n_total


def apply_A(problem: RTProblem, v: np.ndarray) -> np.ndarray:
    """v - transfer(scattering(v)), space-major; one apply of each operator."""
    v = np.asarray(v, dtype=float)
    if v.size != problem.n_total:
        raise ValueError(f"expected length {problem.n_total}, got {v.size}")
    out = problem.transfer.apply_space_major(apply_scattering(problem.scattering, v))
    return np.subtract(v, out, out=out)  # the transfer's result is a fresh array


def build_rhs(problem: RTProblem, override_ones: bool = False) -> np.ndarray:
    """Right-hand side: transfer applied to the thermal source plus inflow.

    With override_ones the benchmark right-hand side of all ones is returned
    instead (named mode, never a silent default).
    """
    if override_ones:
        return np.ones(problem.n_total)
    rhs = problem.transfer.boundary_space_major()
    if problem.thermal.any():  # every preset's source is zero: skip its sweep
        rhs = problem.transfer.apply_space_major(problem.thermal) + rhs
    return rhs


def materialize_A(problem: RTProblem, dense_cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
    """Dense Id - transfer * scattering in space-major ordering.

    The product runs over the space-diagonal scattering blocks, which keeps
    the flop count at O(N^2 n_rays) and avoids a second full-size temporary.
    """
    n = problem.n_total
    if n > dense_cap:
        raise ResourceLimitError(f"dense operator of size {n} exceeds cap {dense_cap}")
    g = problem.grid
    lam = problem.transfer.materialize(dense_cap)
    psi_w = psi_matrix(problem.scattering.kernel, g) * g.combined_weights[None, :]
    out = np.empty((n, n))
    n_r = g.n_rays
    for i in range(g.n_space):
        cols = slice(i * n_r, (i + 1) * n_r)
        out[:, cols] = lam[:, cols] @ (problem.scattering.gamma_table[i][:, None] * psi_w)
    out *= -1.0
    out[np.diag_indices(n)] += 1.0
    return out

