"""Gauss-Legendre and trapezoidal quadrature rules, plus Legendre polynomials.

The angular grids use Gauss-Legendre nodes computed by Newton iteration on
P_n with Chebyshev-point initial guesses; frequency grids use the composite
trapezoidal rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights for integration over ``interval``."""

    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]


def legendre_basis(l_max: int, x: np.ndarray) -> np.ndarray:
    """Stack P_0(x) .. P_{l_max}(x) into an array of shape (l_max+1, len(x)).

    Uses the three-term Bonnet recurrence
    (l+1) P_{l+1}(x) = (2l+1) x P_l(x) - l P_{l-1}(x).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((l_max + 1, x.size))
    out[0] = 1.0
    if l_max >= 1:
        out[1] = x
    for k in range(1, l_max):
        out[k + 1] = ((2 * k + 1) * x * out[k] - k * out[k - 1]) / (k + 1)
    return out


def _legendre_and_derivative(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) for interior x and n >= 1."""
    p_prev, p = legendre_basis(n, x)[-2:]
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_legendre(n: int, lo: float = -1.0, hi: float = 1.0) -> QuadratureRule:
    """n-point Gauss-Legendre rule mapped affinely from [-1, 1] to [lo, hi].

    Exact for polynomials of degree <= 2n-1. Nodes are the roots of P_n,
    found by Newton iteration started from Chebyshev points.
    """
    if n < 1:
        raise ValueError(f"Gauss-Legendre needs n >= 1, got {n}")
    if not lo < hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if n == 1:
        x = np.array([0.0])
        w = np.array([2.0])
    else:
        i = np.arange(n)
        x = np.cos(np.pi * (4 * i + 3) / (4 * n + 2))
        for _ in range(_NEWTON_MAX_ITER):
            p, dp = _legendre_and_derivative(n, x)
            dx = p / dp
            x -= dx
            if np.max(np.abs(dx)) < _NEWTON_TOL:
                break
        _, dp = _legendre_and_derivative(n, x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        order = np.argsort(x)
        x = x[order]
        w = w[order]
    half = 0.5 * (hi - lo)
    nodes = 0.5 * (lo + hi) + half * x
    weights = half * w
    return QuadratureRule(nodes=nodes, weights=weights, interval=(lo, hi))


def trapezoid(n: int, lo: float, hi: float) -> QuadratureRule:
    """Composite trapezoidal rule with n equidistant nodes including endpoints."""
    if n < 2:
        raise ValueError(f"trapezoid needs n >= 2, got {n}")
    if not lo < hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    nodes = np.linspace(lo, hi, n)
    h = (hi - lo) / (n - 1)
    weights = np.full(n, h)
    weights[0] = weights[-1] = 0.5 * h
    return QuadratureRule(nodes=nodes, weights=weights, interval=(lo, hi))
