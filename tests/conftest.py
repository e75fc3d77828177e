"""Shared pytest wiring: collects acceptance pass/fail lines and prints them
in a dedicated terminal section at the end of the run (they are emitted even
when output capture is active), and holds the check of a spectrum report
against the dense eigensolve."""

import numpy as np
import pytest

from rtkrylov.operator import materialize_A

ACCEPTANCE_LINES = []


def assert_matches_dense_spectrum(problem, report):
    """report (from compute_spectrum) agrees with eigvals of the materialized A."""
    dense = materialize_A(problem)
    lam = np.linalg.eigvals(dense)
    assert report.n == lam.size
    modulus = np.abs(lam)
    assert report.cluster_fraction == np.mean((modulus >= 0.999) & (modulus <= 1.001))
    assert report.min_modulus == pytest.approx(modulus.min(), abs=1e-12)
    assert report.outlier_counts == {e: int(np.sum(np.abs(lam - 1.0) > e))
                                     for e in report.outlier_counts}
    np.testing.assert_allclose(np.sum(report.eigenvalues), np.trace(dense), atol=1e-10)
    far = lambda v: np.sort_complex(v[np.abs(v - 1.0) > 1e-3])
    np.testing.assert_allclose(far(report.eigenvalues), far(lam), atol=1e-10)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
