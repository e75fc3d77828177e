"""The transfer sweep: all rays or characteristic lines marched at once.

Every ray and line is stored entry-first: node 0 is where radiation enters,
and dtau[j] is the increment entering node j (zero at the entry). Along one
ray the implicit-Euler recursion

    out_entry = rhs_entry,  (1 + dtau_i) out_i - out_{i-1} = dtau_i src_i

is divided through by 1 + dtau_i. With r_i = 1 / (1 + dtau_i) and
w_i = dtau_i / (1 + dtau_i) it reads

    out_i = r_i out_{i-1} + w_i src_i,

one multiply-add per node and no division. Two layouts march it:

- band: rays (or lines of any length) laid end to end give one
  lower-bidiagonal matrix with a unit diagonal, whose coupling is cut at
  every entry node, and a single LAPACK ``dtbtrs`` call (diag="U") marches
  all of them. OpenBLAS issues one AXPY call per node, so the rays are
  marched one after another.
- lanes, for many rays of one length: position-major (n, m) tables, row p
  holding node p of every ray, and one numpy step per position over all m
  rays, x[p] += r[p] * x[p - 1], with the weighted source already in x[p].
  Each step costs two ufunc calls whatever m is, so the lanes win only with
  enough rays; transfer.LANE_MIN_RAYS holds the crossover.

The scaled form rounds differently from the division form: on mono 4000x24
(dtau down to 2.5e-4) the two differ by at most 8.6e-14 of the largest
intensity and both stay within 1e-13 of an extended-precision recursion.
BLAS may fuse the band's multiply-add, while the lane step rounds the
product and the sum separately, so the two layouts can differ in the last
bits (2.9e-16 of the largest value on crd 200x24x50); the tests compare with
stated tolerances.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dtbtrs

from rtkrylov.errors import NumericalError


def backend() -> str:
    return "lapack"


def _one_plus(dtau: np.ndarray, out: np.ndarray) -> None:
    """1 + dtau into out; raises NumericalError where it is zero, naming the
    node by its flat index in dtau."""
    np.add(1.0, dtau, out=out)
    if not np.all(out):
        raise NumericalError("singular transfer sweep: 1 + dtau is zero at node "
                             f"{int(np.flatnonzero(out.ravel() == 0.0)[0])}")


def band(dtau: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Lower banded (2, n) storage of the scaled marching matrix of concatenated rays.

    Ray l holds nodes offsets[l]:offsets[l + 1], entry first; dtau[j] is the
    increment entering node j (zero at entry nodes). Row 1 holds -r of the
    next node, zero at ray ends. The unit diagonal is implied, so row 0 holds
    the source weights w instead, which the sweep never reads. Fortran order
    lets LAPACK read the band without a copy. Raises NumericalError where
    1 + dtau is zero.
    """
    ab = np.empty((2, dtau.size), order="F")
    _one_plus(dtau, out=ab[0])
    np.divide(-1.0, ab[0, 1:], out=ab[1, :-1])
    ab[1, offsets[1:] - 1] = 0.0
    np.divide(dtau, ab[0], out=ab[0])
    return ab


def weights(ab: np.ndarray) -> np.ndarray:
    """The source weights w = dtau / (1 + dtau) stored in a band (a view)."""
    return ab[0]


def sweep(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the marching system in place and return rhs.

    rhs holds the weighted sources w * src for the homogeneous transfer,
    or the inflow at each entry node (zero elsewhere) for the boundary term;
    it is overwritten with the intensities. It is one contiguous vector or an
    (n, m) Fortran-ordered block of m right-hand sides, swept column by
    column; LAPACK would otherwise solve in a copy.
    """
    if rhs.dtype != np.float64 or rhs.ndim > 2 or not rhs.flags.f_contiguous:
        raise ValueError("sweep needs a contiguous float64 vector or Fortran-ordered block")
    if rhs.size:
        _, info = dtbtrs(ab, rhs.reshape(rhs.shape[0], -1, order="F"), uplo="L", diag="U",
                         overwrite_b=1)
        if info != 0:
            raise NumericalError(f"transfer sweep failed (LAPACK dtbtrs info={info})")
    return rhs


def lanes(dtau: np.ndarray) -> np.ndarray:
    """Position-major (2, n, m) tables w and r of m rays of n nodes each.

    dtau is the entry-first (m, n) array of increments (zero at column 0), so
    table[:, p] holds node p of every ray. w and r are rounded as the band
    rounds them. Raises NumericalError where 1 + dtau is zero.
    """
    tables = np.empty((2,) + dtau.shape[::-1])
    _one_plus(dtau, out=tables[1].T)
    np.divide(dtau.T, tables[1], out=tables[0])
    np.divide(1.0, tables[1], out=tables[1])
    return tables


def lane_sweep(r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """March position-major lanes in place and return x.

    r is the (n, m) table of lanes(); x is (n, m), or (n, m, k) with k
    right-hand sides per lane. Row 0 of x is the entry value (the inflow, or
    zero for the homogeneous transfer) and every row holds its source term
    w * src; then x[p] += r[p] * x[p - 1] for p = 1, ..., n - 1, the product
    and the sum each rounded.
    """
    if x.shape[:2] != r.shape:
        raise ValueError(f"lanes of shape {x.shape[:2]} do not match the table {r.shape}")
    r = r.reshape(r.shape + (1,) * (x.ndim - 2))
    step = np.empty(x.shape[1:])
    for r_p, prev, cur in zip(r[1:], x[:-1], x[1:]):
        np.multiply(r_p, prev, out=step)
        cur += step
    return x
