"""The benchmark's own assembly of the global operator A = Id - transfer * scattering.

Everything here is written from the model definition, not from the library:
angular nodes come from numpy.polynomial.legendre, the Legendre kernel from
its Vandermonde matrix, the transfer from the implicit-Euler recursion
marched along each ray (or characteristic line). The library's apply_A is
never called, so a residual computed here is an independent check of a
solution the library returned.

Model definition (unit optical-depth slab, t in [0, 1]):
  * rays are (mu, nu) pairs, direction-major and frequency-minor; mu takes
    Gauss-Legendre nodes on [-1, 0) and (0, 1], nu trapezoid nodes on
    [-10, 10] (mono: one frequency, weight 1, profile 1);
  * dtau = phi(nu) * (t_{i+1} - t_i) / |mu|; rays with mu > 0 enter at depth
    with inflow 1, rays with mu < 0 enter at the surface with inflow 0;
  * scattering at node i, ray k: gamma(t_i, k) * sum_k' Psi(k, k') w_k' x(i, k')
    with gamma * phi(nu) = 0.994 * 0.5 * 0.5 * (1 - t) for the line presets
    and gamma = 0.994 * 0.5 * 0.5 * (1 - t) for mono.
The 2D square (aniso2d) uses the library's traced lines and interpolation
matrices for its geometry, and the benchmark's own line recursion, azimuth
set, kernel and scattering coefficient (1 - y) / (4 pi).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import legendre

LEGENDRE_L7 = np.array((1.0, 1.98398, 1.50823, 0.70075, 0.23489, 0.05133, 0.00760, 0.00048))
STRENGTH = 0.994 * 0.5 * 0.5


def lorentzian(nu):
    return 1.0 / (math.pi * (np.asarray(nu, dtype=float) ** 2 + 1.0))


def _march(dtau, src, start):
    """Implicit-Euler recursion u_{p+1} = (u_p + dtau_p src_{p+1}) / (1 + dtau_p).

    Rows are rays (or lines) already in marching order; u_0 = start.
    """
    out = np.empty_like(src)
    out[:, 0] = start
    a = 1.0 / (1.0 + dtau)
    c = dtau * a
    for p in range(src.shape[1] - 1):
        out[:, p + 1] = a[:, p] * out[:, p] + c[:, p] * src[:, p + 1]
    return out


class Model:
    """Common part: kernel times weights K = Psi W, coefficient gamma, norms."""

    n_space: int
    n_rays: int
    kernel: np.ndarray   # (n_rays, n_rays), Psi(k, k') * w_k'
    gamma: np.ndarray    # (n_space, n_rays)

    @property
    def n_total(self) -> int:
        return self.n_space * self.n_rays

    def scatter(self, x):
        mat = np.asarray(x, dtype=float).reshape(self.n_space, self.n_rays)
        return self.gamma * (mat @ self.kernel.T)

    def apply_a(self, x):
        return np.asarray(x, dtype=float) - self.transfer(self.scatter(x)).ravel()

    def scattering_norm(self) -> float:
        """Infinity norm of the scattering operator (bounds |lambda - 1|)."""
        return float(np.max(self.gamma * np.abs(self.kernel).sum(axis=1)[None, :]))

    def nonnegativity_faults(self) -> list:
        """Preconditions of the maximum principle; returns a list of faults."""
        faults = []
        if self.kernel.min() < 0.0:
            faults.append(f"kernel has a negative entry {self.kernel.min():.3g}")
        if self.gamma.min() < 0.0:
            faults.append(f"scattering coefficient has a negative entry {self.gamma.min():.3g}")
        if not self.scattering_norm() < 1.0:
            faults.append(f"albedo {self.scattering_norm():.4f} is not below one")
        return faults


class Slab(Model):
    """1D presets mono, crd and coherent."""

    def __init__(self, preset: str, n_space: int, n_angles: int, n_freq: int = 1,
                 inflow: float = 1.0):
        x, w = legendre.leggauss(n_angles // 2)
        mu = np.concatenate([0.5 * x - 0.5, 0.5 * x + 0.5])
        w_mu = np.concatenate([0.5 * w, 0.5 * w])
        if preset == "mono":
            nu, w_nu, phi = np.zeros(1), np.ones(1), np.ones(1)
        else:
            nu = np.linspace(-10.0, 10.0, n_freq)
            w_nu = np.full(n_freq, 20.0 / (n_freq - 1))
            w_nu[[0, -1]] *= 0.5
            phi = lorentzian(nu)
        self.t = np.linspace(0.0, 1.0, n_space)
        self.ray_mu = np.repeat(mu, nu.size)
        self.ray_nu = np.tile(nu, mu.size)
        ray_phi = np.tile(phi, mu.size)
        ray_w_nu = np.tile(w_nu, mu.size)
        self.weights = np.repeat(w_mu, nu.size) * ray_w_nu
        self.n_space, self.n_rays = n_space, self.ray_mu.size

        albedo = STRENGTH * (1.0 - self.t)
        if preset == "mono":
            vander = legendre.legvander(self.ray_mu, LEGENDRE_L7.size - 1)
            psi = vander @ (LEGENDRE_L7[:, None] * vander.T)
            self.gamma = np.repeat(albedo[:, None], self.n_rays, axis=1)
        else:
            if preset == "crd":
                psi = np.outer(ray_phi, ray_phi)
            else:
                same = self.ray_nu[:, None] == self.ray_nu[None, :]
                psi = np.where(same, (ray_phi / ray_w_nu)[:, None], 0.0)
            self.gamma = albedo[:, None] / ray_phi[None, :]
        self.kernel = psi * self.weights[None, :]

        # marching order: mu < 0 rays run surface -> depth, mu > 0 rays are reversed
        self.up = self.ray_mu > 0
        dtau = ray_phi[:, None] * np.diff(self.t)[None, :] / np.abs(self.ray_mu)[:, None]
        self.dtau_march = np.where(self.up[:, None], dtau[:, ::-1], dtau)
        self.inflow = np.where(self.up, inflow, 0.0)

    def _to_march(self, ray_major):
        return np.where(self.up[:, None], ray_major[:, ::-1], ray_major)

    def transfer(self, space_major, start=0.0):
        """Homogeneous transfer (start 0) of a space-major field, space-major result."""
        src = self._to_march(np.asarray(space_major).reshape(self.n_space, self.n_rays).T)
        return self._to_march(_march(self.dtau_march, src, start)).T

    def rhs(self):
        return self.transfer(np.zeros(self.n_total), start=self.inflow).ravel()

    def trace_a(self) -> float:
        """trace(A) = N - sum over non-inflow nodes of dtau/(1+dtau) gamma Psi_kk w_k."""
        diag_lam = self.dtau_march / (1.0 + self.dtau_march)        # marching nodes 1..n-1
        gamma_march = self._to_march(self.gamma.T)[:, 1:]
        return self.n_total - float(np.sum(np.diag(self.kernel)[:, None] * diag_lam * gamma_march))

    def grid_faults(self, grid) -> list:
        """Compare the library's discretization with the model definition."""
        faults = []
        for name, mine, theirs in (("t", self.t, grid.t_nodes), ("mu", self.ray_mu, grid.ray_mu),
                                   ("nu", self.ray_nu, grid.ray_nu),
                                   ("weights", self.weights, grid.combined_weights)):
            if mine.shape != np.shape(theirs) or np.max(np.abs(mine - theirs)) > 1e-13:
                faults.append(f"grid {name} differs from the model definition")
        return faults

    def csv_columns(self):
        """Expected coordinate columns (t, mu, nu) of a space-major solution CSV."""
        return [np.repeat(self.t, self.n_rays), np.tile(self.ray_mu, self.n_space),
                np.tile(self.ray_nu, self.n_space)]


class Square(Model):
    """2D preset aniso2d on the unit square (library geometry, own recursion)."""

    def __init__(self, problem):
        grid, transfer = problem.grid, problem.transfer
        n_angles = grid.n_rays
        azimuth = 2.0 * math.pi * (np.arange(n_angles) + 0.5) / n_angles
        self.ray_mu = np.cos(azimuth)
        self.weights = np.full(n_angles, 2.0 * math.pi / n_angles)
        self.n_space, self.n_rays = grid.n_space, n_angles
        self.xy = np.column_stack([np.repeat(np.linspace(0.0, 1.0, grid.n_x), grid.n_y),
                                   np.tile(np.linspace(0.0, 1.0, grid.n_y), grid.n_x)])
        vander = legendre.legvander(self.ray_mu, LEGENDRE_L7.size - 1)
        self.kernel = (vander @ (LEGENDRE_L7[:, None] * vander.T)) * self.weights[None, :]
        self.gamma = np.repeat(((1.0 - self.xy[:, 1]) / (4.0 * math.pi))[:, None], n_angles, axis=1)

        # every line of every direction, padded to the longest, in marching order
        self.to_lines = [blk.cart_to_ray.matrix for blk in transfer.blocks]
        self.from_lines = [blk.ray_to_cart.matrix for blk in transfer.blocks]
        lines = [ln for fam in transfer.families for ln in fam.lines]
        self.offsets = np.cumsum([0] + [fam.n_nodes for fam in transfer.families])
        longest = max(ln.n_nodes for ln in lines)
        self.index = np.zeros((len(lines), longest), dtype=np.int64)
        self.valid = np.zeros((len(lines), longest), dtype=bool)
        self.dtau = np.zeros((len(lines), longest - 1))
        start = 0
        for row, ln in enumerate(lines):
            m = ln.n_nodes
            self.index[row, :m] = np.arange(start, start + m)
            self.valid[row, :m] = True
            self.dtau[row, :m - 1] = np.linalg.norm(np.diff(ln.nodes, axis=0), axis=1)  # chi = 1
            start += m

    def transfer(self, space_major):
        mat = np.asarray(space_major).reshape(self.n_space, self.n_rays)
        on_lines = np.concatenate([c @ mat[:, k] for k, c in enumerate(self.to_lines)])
        swept = _march(self.dtau, np.where(self.valid, on_lines[self.index], 0.0), 0.0)
        flat = np.empty_like(on_lines)
        flat[self.index[self.valid]] = swept[self.valid]
        return np.column_stack([r @ flat[self.offsets[k]:self.offsets[k + 1]]
                                for k, r in enumerate(self.from_lines)])

    def nonnegativity_faults(self) -> list:
        faults = super().nonnegativity_faults()
        if any(m.data.min() < 0.0 for m in self.to_lines + self.from_lines):
            faults.append("an interpolation matrix has a negative entry")
        return faults

    def csv_columns(self):
        return [np.repeat(self.xy[:, 0], self.n_rays), np.repeat(self.xy[:, 1], self.n_rays),
                np.tile(self.ray_mu, self.n_space), np.zeros(self.n_total)]
