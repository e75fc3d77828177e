"""Space-ray product grid, field orderings, and optical-depth increments.

A ray is a (direction cosine, frequency) pair; the grid couples an
equidistant spatial mesh with Gauss-Legendre half-interval angular nodes and
trapezoidal frequency nodes. Collocation vectors come in two layouts:
space-major (space outermost) and ray-major (one contiguous block per ray),
linked by a permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from rtkrylov.quadrature import gauss_legendre, trapezoid


class Ordering(Enum):
    SPACE_MAJOR = "space_major"
    RAY_MAJOR = "ray_major"


@dataclass(frozen=True)
class Ray:
    """One (direction, frequency) transfer channel with its quadrature weights."""

    mu: float
    nu: float
    angular_weight: float
    frequency_weight: float
    index: int  # 1-based position in the ray ordering


@dataclass
class FieldVector:
    """Collocation values plus the layout they are stored in."""

    values: np.ndarray
    ordering: Ordering


def _ones_profile(nu):
    return np.ones_like(np.asarray(nu, dtype=float))


class Grid:
    """Immutable product grid over space nodes and rays.

    Rays are ordered direction-major, frequency-minor, with directions sorted
    increasingly; the first half of the rays has mu < 0, the second mu > 0.
    """

    # measure of the direction domain [-1, 1]; enters kernel normalizations
    sphere_measure = 2.0

    def __init__(self, t_nodes, mu_nodes, angular_weights, nu_nodes,
                 frequency_weights, profile: Optional[Callable] = None):
        self.t_nodes = np.asarray(t_nodes, dtype=float)
        self.mu_nodes = np.asarray(mu_nodes, dtype=float)
        self.angular_weights = np.asarray(angular_weights, dtype=float)
        self.nu_nodes = np.asarray(nu_nodes, dtype=float)
        self.frequency_weights = np.asarray(frequency_weights, dtype=float)
        self.profile = profile if profile is not None else _ones_profile

        if np.any(np.diff(self.t_nodes) <= 0):
            raise ValueError("t_nodes must be strictly increasing")
        if np.any(self.mu_nodes == 0.0):
            raise ValueError("mu = 0 is not an admissible direction")
        if np.any(np.diff(self.mu_nodes) <= 0):
            raise ValueError("mu_nodes must be strictly increasing")

        self.n_space = self.t_nodes.size
        self.n_angles = self.mu_nodes.size
        self.n_freq = self.nu_nodes.size
        self.n_rays = self.n_angles * self.n_freq
        self.n_total = self.n_space * self.n_rays

        # direction-major, frequency-minor flattening
        self.ray_mu = np.repeat(self.mu_nodes, self.n_freq)
        self.ray_nu = np.tile(self.nu_nodes, self.n_angles)
        self.ray_angular_weight = np.repeat(self.angular_weights, self.n_freq)
        self.ray_frequency_weight = np.tile(self.frequency_weights, self.n_angles)
        self.combined_weights = self.ray_angular_weight * self.ray_frequency_weight

        self.rays = [
            Ray(
                mu=float(self.ray_mu[k]),
                nu=float(self.ray_nu[k]),
                angular_weight=float(self.ray_angular_weight[k]),
                frequency_weight=float(self.ray_frequency_weight[k]),
                index=k + 1,
            )
            for k in range(self.n_rays)
        ]

    def delta_tau_table(self) -> np.ndarray:
        """Per-ray optical-depth increments, shape (n_rays, n_space - 1)."""
        dt = np.diff(self.t_nodes)
        phi = np.asarray(self.profile(self.ray_nu), dtype=float)
        return phi[:, None] * dt[None, :] / np.abs(self.ray_mu)[:, None]

    def sample_coefficient(self, fn) -> np.ndarray:
        """Evaluate fn(t, mu, nu) on the node-by-ray product, shape (n_space, n_rays)."""
        vals = fn(self.t_nodes[:, None], self.ray_mu[None, :], self.ray_nu[None, :])
        return np.ascontiguousarray(
            np.broadcast_to(np.asarray(vals, dtype=float), (self.n_space, self.n_rays))
        )


def build_grid(n_space: int, n_angles: int, n_freq: int, t_surf: float, t_deep: float,
               f_lo: float = -10.0, f_hi: float = 10.0,
               profile: Optional[Callable] = None) -> Grid:
    """Build the equidistant space grid and the ray set.

    Angular nodes are two independent Gauss-Legendre rules with n_angles/2
    points on [-1, 0) and (0, 1] each, so mu = 0 is never a node. With
    n_freq = 1 the single frequency sits at the interval midpoint with unit
    weight, bypassing frequency integration (phi defaults to 1).
    """
    if n_space < 2:
        raise ValueError(f"need at least 2 space nodes, got {n_space}")
    if n_angles < 2 or n_angles % 2 != 0:
        raise ValueError(f"n_angles must be even and >= 2, got {n_angles}")
    if not t_surf < t_deep:
        raise ValueError(f"empty spatial interval [{t_surf}, {t_deep}]")
    if not f_lo < f_hi:
        raise ValueError(f"empty frequency interval [{f_lo}, {f_hi}]")
    if n_freq < 1:
        raise ValueError(f"n_freq must be positive, got {n_freq}")

    t_nodes = np.linspace(t_surf, t_deep, n_space)
    down = gauss_legendre(n_angles // 2, -1.0, 0.0)
    up = gauss_legendre(n_angles // 2, 0.0, 1.0)
    mu_nodes = np.concatenate([down.nodes, up.nodes])
    angular_weights = np.concatenate([down.weights, up.weights])

    if n_freq == 1:
        nu_nodes = np.array([0.5 * (f_lo + f_hi)])
        frequency_weights = np.array([1.0])
    else:
        freq_rule = trapezoid(n_freq, f_lo, f_hi)
        nu_nodes = freq_rule.nodes
        frequency_weights = freq_rule.weights

    return Grid(t_nodes, mu_nodes, angular_weights, nu_nodes, frequency_weights, profile)


def permute(grid: Grid, v: FieldVector, target: Ordering) -> FieldVector:
    """Reindex a field vector between space-major and ray-major layouts."""
    values = np.asarray(v.values)
    if values.size != grid.n_total:
        raise ValueError(f"expected length {grid.n_total}, got {values.size}")
    if v.ordering is target:
        return FieldVector(values, target)
    if target is Ordering.RAY_MAJOR:
        out = values.reshape(grid.n_space, grid.n_rays).T.ravel()
    else:
        out = values.reshape(grid.n_rays, grid.n_space).T.ravel()
    return FieldVector(out, target)
