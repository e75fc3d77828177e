"""The transfer sweep: all rays or characteristic lines in one banded solve.

Every ray and line is stored entry-first: node 0 is where radiation enters,
and dtau[j] is the increment entering node j (zero at the entry). Along one
ray the implicit-Euler recursion

    out_entry = rhs_entry,  (1 + dtau_i) out_i - out_{i-1} = rhs_i

is then a lower-bidiagonal system. Rays laid end to end give one bidiagonal
matrix whose coupling is cut at every entry node, so a single LAPACK
``dtbtrs`` call marches all of them. Substitution performs the recursion's
operations in the same order (add the marched value, divide by 1 + dtau),
so the result matches the loop bit for bit; the tests check this.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dtbtrs

from rtkrylov.errors import NumericalError


def backend() -> str:
    return "lapack"


def band(dtau: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Lower banded (2, n) storage of the marching matrix of concatenated rays.

    Ray l holds nodes offsets[l]:offsets[l + 1], entry first; dtau[j] is the
    increment entering node j (zero at entry nodes). Fortran order lets
    LAPACK read the band without a copy.
    """
    ab = np.empty((2, dtau.size), order="F")
    np.add(1.0, dtau, out=ab[0])
    ab[1] = -1.0
    ab[1, offsets[1:] - 1] = 0.0
    return ab


def sweep(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the marching system in place and return rhs.

    rhs holds the weighted sources dtau * src for the homogeneous transfer,
    or the inflow at each entry node (zero elsewhere) for the boundary term;
    it is overwritten with the intensities. It is one contiguous vector or an
    (n, m) Fortran-ordered block of m right-hand sides, swept column by
    column; LAPACK would otherwise solve in a copy.
    """
    if rhs.dtype != np.float64 or rhs.ndim > 2 or not rhs.flags.f_contiguous:
        raise ValueError("sweep needs a contiguous float64 vector or Fortran-ordered block")
    if rhs.size:
        _, info = dtbtrs(ab, rhs.reshape(rhs.shape[0], -1, order="F"), uplo="L",
                         overwrite_b=1)
        if info != 0:
            raise NumericalError(f"singular transfer sweep (LAPACK dtbtrs info={info})")
    return rhs
