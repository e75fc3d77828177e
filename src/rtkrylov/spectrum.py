"""Eigenvalue inspection and clustering diagnostics.

Eigenvalues come from LAPACK's nonsymmetric solver (balancing, Hessenberg
reduction, shifted QR). The scattering factors as Gamma Psi W = U V^T with
k = n_space * r' columns, r' the numerical rank of the kernel (see
scattering.reduced_factor: min(8, n_angles) for mono, n_freq for coherent,
1 for CRD, min(8, ceil(n_angles / 2)) for the 2D preset, whose kernel sees
each mirrored azimuth pair once). So A = Id - Lambda U V^T has the
eigenvalue one n - k times and 1 - eig(V^T Lambda U) for the rest: XY and YX
share their nonzero eigenvalues. When k < n the solver runs on that k x k
core, otherwise on the materialized operator. The core is formed in closed
form from the transfer's per-ray diagonal blocks (one multi-column sweep,
see ray_blocks) in O(n * n_space) memory, so the n x n transfer is never
formed. Two cluster counts are reported: the symmetric modulus interval
[0.999, 1.001], and the literal one-sided [0.999, 1] interval guarded by a
few ulps so that eigenvalues that are exactly one in exact arithmetic are
not lost to rounding. Complex pairs with tiny imaginary parts have modulus
marginally above one, so the one-sided count systematically undercounts;
the symmetric count is the one comparable with the reference tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from rtkrylov.errors import DENSE_CAP_DEFAULT, NumericalError, ResourceLimitError
from rtkrylov.operator import RTProblem, materialize_A
from rtkrylov.scattering import reduced_factor

DEFAULT_EPS_VALUES = (0.01, 0.05, 0.1, 0.15)
_ONE_SIDED_GUARD = 1e-12
_TREND_FLUCTUATION = 2  # outlier counts may rise this much along a refinement sequence


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    cluster_fraction: float        # symmetric: |lambda| in [0.999, 1.001]
    cluster_fraction_one_sided: float  # one-sided: |lambda| in [0.999, 1] (+ ulp guard)
    min_modulus: float
    outlier_counts: dict           # eps -> #{|lambda - 1| > eps}
    reduced_dim: int               # size of the matrix handed to the eigensolver

    @property
    def n(self) -> int:
        return self.eigenvalues.size


def check_spectrum_size(n_total: int, n_space: int, n_rays: int, rank: int,
                        dense_cap: int = DENSE_CAP_DEFAULT, scratch: int = 0) -> bool:
    """Whether a spectrum of this shape runs on the core; raise past dense_cap.

    The core has size k = n_space * rank. When k < n_total every array the
    core path forms holds at most dense_cap^2 entries: the k x k core, the
    n_rays * n_space^2 ray blocks, the n_rays * rank^2 kernel products and
    scratch, the transfer's largest ray-block temporary. Otherwise the dense
    n_total x n_total operator is formed and n_total <= dense_cap. A cap
    below one is rejected with ValueError.
    """
    if dense_cap < 1:
        raise ValueError(f"dense_cap must be at least 1, got {dense_cap}")
    k = n_space * rank
    if k >= n_total:
        if n_total > dense_cap:
            raise ResourceLimitError(f"spectrum of size {n_total} exceeds cap {dense_cap}")
        return False
    largest = max(k * k, n_rays * n_space**2, n_rays * rank**2, scratch)
    if largest > dense_cap**2:
        raise ResourceLimitError(
            f"spectrum core of size {k} forms an array of {largest} entries "
            f"({n_rays} rays, {n_space} space nodes, kernel rank {rank}), "
            f"over cap {dense_cap} squared")
    return True


def compute_spectrum(problem: RTProblem, dense_cap: int = DENSE_CAP_DEFAULT,
                     eps_values: Sequence[float] = DEFAULT_EPS_VALUES) -> SpectrumReport:
    """Full spectrum of the global operator plus diagnostics.

    dense_cap bounds what is formed (see check_spectrum_size). Raises
    ResourceLimitError past it and NumericalError when the eigensolver does
    not converge.
    """
    g = problem.grid
    wpt, pt, d = reduced_factor(problem.scattering)
    on_core = check_spectrum_size(problem.n_total, g.n_space, g.n_rays, d.size, dense_cap,
                                  problem.transfer.ray_blocks_scratch)
    core = _scattering_core(problem, wpt, pt, d) if on_core else None
    try:
        if core is None:
            eigenvalues = np.linalg.eigvals(materialize_A(problem, dense_cap=dense_cap))
        else:
            eigenvalues = np.concatenate([1.0 - np.linalg.eigvals(core),
                                          np.ones(problem.n_total - core.shape[0])])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc

    modulus = np.abs(eigenvalues)
    distance = np.abs(eigenvalues - 1.0)
    n = eigenvalues.size
    return SpectrumReport(
        eigenvalues=eigenvalues,
        cluster_fraction=float(np.mean((modulus >= 0.999) & (modulus <= 1.001))),
        cluster_fraction_one_sided=float(
            np.mean((modulus >= 0.999) & (modulus <= 1.0 + _ONE_SIDED_GUARD))
        ),
        min_modulus=float(modulus.min()),
        outlier_counts={float(e): int(np.sum(distance > e)) for e in eps_values},
        reduced_dim=n if core is None else core.shape[0],
    )


def _scattering_core(problem: RTProblem, wpt: np.ndarray, pt: np.ndarray,
                     d: np.ndarray) -> np.ndarray:
    """The k x k core V^T Lambda U, k = n_space * r, of the factor (wpt, pt, d).

    With B[q] the transfer block of ray q, C[q, i, j] = B[q, i, j] gamma[j, q]
    and E[q, m, m'] = (W P)[q, m] P[q, m'] d[m'], the core entry of rows
    (i, m) and columns (j, m') is sum_q C[q, i, j] E[q, m, m'].
    """
    g = problem.grid
    r = d.size
    k = g.n_space * r
    c = problem.transfer.ray_blocks()
    c *= problem.scattering.gamma_table.T[:, None, :]
    e = wpt.T[:, :, None] * (pt.T * d)[:, None, :]
    core = c.reshape(g.n_rays, g.n_space**2).T @ e.reshape(g.n_rays, r * r)
    return core.reshape(g.n_space, g.n_space, r, r).transpose(0, 2, 1, 3).reshape(k, k)


@dataclass
class TrendSummary:
    eps_values: tuple
    outlier_counts: dict           # eps -> list of counts along the sequence
    cluster_fractions: list
    strong_cluster_consistent: bool


def clustering_trend(reports: Sequence[SpectrumReport]) -> TrendSummary:
    """Outlier-count trend along a refinement sequence.

    The sequence is called consistent with a strong cluster when no count
    rises more than _TREND_FLUCTUATION above any earlier value at the same eps.
    """
    if len(reports) < 2:
        raise ValueError("need at least two reports to assess a trend")
    eps_values = tuple(sorted(reports[0].outlier_counts))
    for rep in reports[1:]:
        if tuple(sorted(rep.outlier_counts)) != eps_values:
            raise ValueError("reports carry different eps grids")
    counts = {e: [rep.outlier_counts[e] for rep in reports] for e in eps_values}
    consistent = True
    for series in counts.values():
        running_min = series[0]
        for c in series[1:]:
            if c > running_min + _TREND_FLUCTUATION:
                consistent = False
            running_min = min(running_min, c)
    return TrendSummary(
        eps_values=eps_values,
        outlier_counts=counts,
        cluster_fractions=[rep.cluster_fraction for rep in reports],
        strong_cluster_consistent=consistent,
    )
