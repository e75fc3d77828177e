"""From-scratch GMRES (optionally restarted) and BiCGStab on abstract linear maps.

Both solvers take a callable v -> A v, start from the zero initial guess, and
report the full residual history. Recurrence residuals are cross-checked
against the true residual on convergence to guard against drift. A scalar
that is not finite (the map returned inf or nan) stops either solver as a
breakdown with the last finite iterate.

The Gram-Schmidt subtraction, the iterate combination and the BiCGStab
vector updates run in place through BLAS daxpy, on arrays the solver
allocated itself. The solver never writes into b or into an array apply
returned: it copies an apply result before changing it or reading it after
the next apply (GMRES each one, BiCGStab A p), so apply may return its input,
a view, another float dtype or one buffer it overwrites on every call.
daxpy may fuse the multiply-add, which the out-of-place form rounds twice;
whether it does depends on the CPU. Iteration counts match the out-of-place
form and solutions agree with it within 64 eps of the largest entry
(at most 2.7 eps measured on the presets, 4 eps on random dense systems).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg.blas import daxpy

_BREAKDOWN_EPS = 1e-30
_ARNOLDI_BREAKDOWN = 1e-14
_TRUE_RESIDUAL_SLACK = 10.0


@dataclass
class SolveConfig:
    method: str = "gmres"            # "gmres" or "bicgstab"
    rel_tol: float = 1e-12
    max_iter: int = 1000
    restart: Optional[int] = None    # GMRES only; None = no restart

    def __post_init__(self):
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.restart is not None and self.restart < 1:
            raise ValueError("restart must be >= 1 when given")


@dataclass
class SolveReport:
    solution: np.ndarray
    iterations: int
    residual_history: list
    converged: bool
    method: str
    breakdown: bool = False
    true_residual: Optional[float] = None


def _trivial_report(method: str, n: int) -> SolveReport:
    return SolveReport(
        solution=np.zeros(n), iterations=0, residual_history=[0.0],
        converged=True, method=method, true_residual=0.0,
    )


def _usable(value: float) -> bool:
    """A divisor magnitude in [1e-30, inf): nan fails too, unlike |value| < 1e-30."""
    return _BREAKDOWN_EPS <= abs(value) < math.inf


def gmres(apply: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
          cfg: SolveConfig) -> SolveReport:
    """GMRES with modified Gram-Schmidt Arnoldi and Givens least squares.

    Without cfg.restart the Krylov basis grows until convergence or
    cfg.max_iter. An Arnoldi norm below 1e-14 * ||b|| closes the Krylov
    space; the least-squares solution is then exact (converged by breakdown).
    A zero rotated Hessenberg diagonal means the map is singular on the
    Krylov space: the last iterate is returned as a non-converged breakdown.
    So is a diagonal that is not finite, which every inf or nan of the
    Arnoldi step reaches.
    """
    b = np.asarray(b, dtype=float)
    n = b.size
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return _trivial_report("gmres", n)

    history: list = []
    x = np.zeros(n)
    r = b.copy()
    total_iters = 0
    cycle = cfg.restart if cfg.restart is not None else cfg.max_iter

    while total_iters < cfg.max_iter:
        beta = float(np.linalg.norm(r))
        if beta / b_norm <= cfg.rel_tol:  # restart landed on the solution
            history.append(beta / b_norm)
            return SolveReport(
                solution=x, iterations=max(total_iters, 1), residual_history=history,
                converged=True, method="gmres", true_residual=beta / b_norm,
            )
        basis = [r / beta]
        h_cols: list = []          # rotated Hessenberg columns (upper triangular)
        cos: list = []
        sin: list = []
        g = [beta]                 # rotated right-hand side
        breakdown = False

        steps = min(cycle, cfg.max_iter - total_iters)
        j = 0
        while j < steps:
            w = np.array(apply(basis[j]), dtype=float)  # copy: MGS mutates w
            col = np.empty(j + 2)
            for i in range(j + 1):
                col[i] = float(np.dot(basis[i], w))
                daxpy(basis[i], w, a=-col[i])
            col[j + 1] = float(np.linalg.norm(w))
            breakdown = col[j + 1] < _ARNOLDI_BREAKDOWN * b_norm
            if not breakdown:
                w /= col[j + 1]
                basis.append(w)

            # apply stored rotations, then build the new one
            for i in range(j):
                tmp = cos[i] * col[i] + sin[i] * col[i + 1]
                col[i + 1] = -sin[i] * col[i] + cos[i] * col[i + 1]
                col[i] = tmp
            denom = np.hypot(col[j], col[j + 1])
            total_iters += 1
            if not 0.0 < denom < math.inf:  # singular, or an inf or nan reached it
                if j:
                    x += _combine(basis, _solve_upper(h_cols, g[:j]))
                true_rel = float(np.linalg.norm(b - apply(x))) / b_norm
                if math.isfinite(true_rel):
                    history.append(true_rel)
                elif not history:  # no step done: x is the zero guess, its residual b
                    history.append(1.0)
                return SolveReport(
                    solution=x, iterations=total_iters, residual_history=history,
                    converged=False, method="gmres", breakdown=True,
                    true_residual=true_rel,
                )
            cj = col[j] / denom
            sj = col[j + 1] / denom
            cos.append(cj)
            sin.append(sj)
            col[j] = denom
            h_cols.append(col[: j + 1].copy())
            g.append(-sj * g[j])
            g[j] = cj * g[j]

            j += 1
            rel = abs(g[j]) / b_norm
            history.append(rel)

            if rel <= cfg.rel_tol or breakdown:
                y = _solve_upper(h_cols, g[:j])
                candidate = x + _combine(basis, y)
                true_rel = float(np.linalg.norm(b - apply(candidate))) / b_norm
                if true_rel <= _TRUE_RESIDUAL_SLACK * cfg.rel_tol:
                    if breakdown:
                        history[-1] = true_rel
                    return SolveReport(
                        solution=candidate, iterations=total_iters,
                        residual_history=history, converged=True, method="gmres",
                        breakdown=breakdown, true_residual=true_rel,
                    )
                if breakdown:
                    # stalled with drifted residual: report honestly
                    return SolveReport(
                        solution=candidate, iterations=total_iters,
                        residual_history=history, converged=False, method="gmres",
                        breakdown=True, true_residual=true_rel,
                    )

        # cycle exhausted: form the iterate and restart
        y = _solve_upper(h_cols, g[:j])
        x += _combine(basis, y)
        r = b - apply(x)

    true_rel = float(np.linalg.norm(r)) / b_norm
    return SolveReport(
        solution=x, iterations=total_iters, residual_history=history,
        converged=False, method="gmres", true_residual=true_rel,
    )


def _solve_upper(h_cols, g):
    """Back-substitution on the rotated Hessenberg columns."""
    m = len(g)
    y = np.zeros(m)
    for i in range(m - 1, -1, -1):
        s = g[i]
        for k in range(i + 1, m):
            s -= h_cols[k][i] * y[k]
        y[i] = s / h_cols[i][i]
    return y


def _combine(basis, y):
    """sum_i y[i] basis[i] in a new array."""
    out = y[0] * basis[0]
    for i in range(1, y.size):
        daxpy(basis[i], out, a=y[i])
    return out


def bicgstab(apply: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
             cfg: SolveConfig) -> SolveReport:
    """BiCGStab with shadow residual fixed to the initial residual.

    The residual history records one entry per full step (two applications
    of the map). A rho, r_shadow.v, t.t or omega magnitude below 1e-30 stops
    the recurrence with the breakdown flag set, and so does any of them or a
    recurrence residual that is not finite; x then holds the last finite
    iterate.
    """
    b = np.asarray(b, dtype=float)
    n = b.size
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return _trivial_report("bicgstab", n)

    x = np.zeros(n)
    r = b.copy()  # within a step it holds s = r - alpha v, then the next r
    r_shadow = b.copy()
    p = np.empty(n)
    v = np.empty(n)  # A p, copied: it is read again after the map's next apply
    rho_prev = alpha = omega = 1.0
    history: list = []
    breakdown = False
    converged = False

    it = 0
    while it < cfg.max_iter:
        rho = float(np.dot(r_shadow, r))
        if not _usable(rho):
            breakdown = True
            break
        if it == 0:
            np.copyto(p, r)
        else:  # p = r + beta (p - omega v)
            beta = (rho / rho_prev) * (alpha / omega)
            daxpy(v, p, a=-omega)
            p *= beta
            p += r
        np.copyto(v, apply(p))
        denom = float(np.dot(r_shadow, v))
        if not _usable(denom):
            breakdown = True
            break
        alpha = rho / denom
        daxpy(v, r, a=-alpha)  # r holds s = r - alpha v
        it += 1
        s_rel = float(np.linalg.norm(r)) / b_norm
        if not math.isfinite(s_rel):
            breakdown = True
            break
        if s_rel <= cfg.rel_tol:
            daxpy(p, x, a=alpha)
            history.append(s_rel)
            converged = True
            break
        t = apply(r)
        tt = float(np.dot(t, t))
        if not _usable(tt):
            breakdown = True
            break
        omega = float(np.dot(t, r)) / tt
        if not _usable(omega):
            breakdown = True
            break
        daxpy(p, x, a=alpha)  # x + alpha p + omega s
        daxpy(r, x, a=omega)
        daxpy(t, r, a=-omega)  # r = s - omega t
        rho_prev = rho
        rel = float(np.linalg.norm(r)) / b_norm
        if not math.isfinite(rel):
            breakdown = True
            break
        history.append(rel)
        if rel <= cfg.rel_tol:
            converged = True
            break

    true_rel = float(np.linalg.norm(b - apply(x))) / b_norm
    if converged:
        converged = true_rel <= _TRUE_RESIDUAL_SLACK * cfg.rel_tol
    if not history:  # no step done: x is the zero guess, its residual b
        history.append(1.0)
    return SolveReport(
        solution=x, iterations=it, residual_history=history,
        converged=converged, method="bicgstab", breakdown=breakdown,
        true_residual=true_rel,
    )


def solve_system(apply: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
                 cfg: SolveConfig) -> SolveReport:
    """Dispatch on cfg.method."""
    if cfg.method == "gmres":
        return gmres(apply, b, cfg)
    if cfg.method == "bicgstab":
        return bicgstab(apply, b, cfg)
    raise ValueError(f"unknown method {cfg.method!r}")
