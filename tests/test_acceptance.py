"""End-to-end acceptance suite.

Each criterion runs at its stated tolerance and emits one visible
[ACCEPT] pass/fail line (bypassing output capture). The spectra come from
the scattering-rank core (see rtkrylov.spectrum), so the whole suite takes
seconds on one core.
"""

import sys
import warnings

import numpy as np
import pytest

from rtkrylov import presets
from rtkrylov.grid import FieldVector, Ordering, build_grid, permute
from rtkrylov.krylov import SolveConfig, bicgstab, gmres
from rtkrylov.multidim import CartesianGrid2D, anisotropic_2d, build_interpolators, trace_rays
from rtkrylov.operator import apply_A, build_rhs, materialize_A
from rtkrylov.scattering import (
    CRDKernel,
    LegendreKernel,
    kernel_normalization,
    psi_matrix,
)
from rtkrylov.spectrum import clustering_trend, compute_spectrum
from rtkrylov.transfer import build_transfer, materialize_transfer

warnings.filterwarnings("ignore", message="scattering strength")

# reference cluster percentages (eigenvalue modulus within 1e-3 of one)
TABLE_1 = {
    (10, 12): 68.3, (10, 24): 84.2,
    (20, 12): 69.6, (20, 24): 84.8,
    (40, 12): 73.5, (40, 24): 87.8,
    (100, 12): 79.8, (100, 24): 90.1,
}
# extended cells (larger angular grids, deepest spatial grid), capped at N <= 10000
TABLE_1_EXTENDED = {
    (10, 50): 91.8, (10, 100): 96.2,
    (20, 50): 92.3, (20, 100): 96.4,
    (40, 50): 93.1, (40, 100): 96.8,
    (100, 50): 94.1, (100, 100): 97.6,
    (200, 12): 86.6, (200, 24): 93.8,
}
TABLE_2 = {
    (10, 10): 98.3, (10, 20): 97.9,
    (20, 10): 98.4, (20, 20): 98.4,
    (50, 10): 98.6, (50, 20): 98.7,
}
TABLE_2_ANGLES = 24          # 12 Gauss-Legendre nodes per half-interval
TABLE_2_SIZE_CAP = 12_000    # criterion envelope; (50, 20) exceeds it


def _announce(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[ACCEPT] {name}: {status}  {detail}"
    print(line, file=sys.__stderr__, flush=True)
    from conftest import ACCEPTANCE_LINES

    ACCEPTANCE_LINES.append(line)


def table_2_cells():
    return {k: v for k, v in TABLE_2.items()
            if k[0] * TABLE_2_ANGLES * k[1] <= TABLE_2_SIZE_CAP}


@pytest.fixture(scope="module")
def mono_reports():
    return {
        cell: compute_spectrum(presets.monochromatic(*cell))
        for cell in TABLE_1
    }


class TestCriterion1TableOne:
    def test_cluster_fractions(self, mono_reports):
        errors = []
        for (ns, nom), expected in TABLE_1.items():
            got = mono_reports[(ns, nom)].cluster_fraction * 100
            if abs(got - expected) > 3.0:
                errors.append(f"({ns},{nom}): {got:.2f} vs {expected}")
        for ns in (10, 20, 40, 100):
            lo = mono_reports[(ns, 12)].cluster_fraction
            hi = mono_reports[(ns, 24)].cluster_fraction
            if hi < lo:
                errors.append(f"fraction not non-decreasing in N_Omega at N_s={ns}")
        detail = "; ".join(errors) if errors else \
            f"max dev {max(abs(mono_reports[c].cluster_fraction * 100 - v) for c, v in TABLE_1.items()):.2f} pts"
        _announce("criterion 1 (Table 1 cluster fractions, +-3 pts)", not errors, detail)
        assert not errors, detail

    def test_extended_cells(self):
        errors = []
        for (ns, nom), expected in TABLE_1_EXTENDED.items():
            if ns * nom > 10_000:
                continue
            rep = compute_spectrum(presets.monochromatic(ns, nom))
            got = rep.cluster_fraction * 100
            if abs(got - expected) > 3.0:
                errors.append(f"({ns},{nom}): {got:.2f} vs {expected}")
            if rep.min_modulus <= 0.82:
                errors.append(f"({ns},{nom}): min modulus {rep.min_modulus:.4f}")
        _announce("criterion 1 extended (extended Table 1 cells)", not errors,
                  "; ".join(errors) if errors else "all extended cells within +-3 pts")
        assert not errors, errors


class TestCriterion2MonoLowerBound:
    def test_min_modulus(self, mono_reports):
        minima = {cell: rep.min_modulus for cell, rep in mono_reports.items()}
        ok = all(m > 0.82 for m in minima.values())
        detail = f"min over cells {min(minima.values()):.4f}"
        _announce("criterion 2 (monochromatic min |lambda| > 0.82)", ok, detail)
        assert ok, minima


@pytest.fixture(scope="module")
def coherent_reports():
    return {
        (ns, nnu): compute_spectrum(presets.coherent(ns, TABLE_2_ANGLES, nnu))
        for ns, nnu in table_2_cells()
    }


class TestCriterion3TableTwo:
    def test_cluster_fractions(self, coherent_reports):
        errors = []
        for (ns, nnu), expected in table_2_cells().items():
            rep = coherent_reports[(ns, nnu)]
            got = rep.cluster_fraction * 100
            if abs(got - expected) > 1.0:
                errors.append(f"({ns},{nnu}): {got:.2f} vs {expected}")
            if rep.min_modulus <= 0.70:
                errors.append(f"({ns},{nnu}): min modulus {rep.min_modulus:.3f}")
        detail = "; ".join(errors) if errors else \
            f"{len(coherent_reports)} cells within +-1.0 pt, min modulus > 0.70"
        _announce("criterion 3 (Table 2 coherent fractions, +-1 pt)", not errors, detail)
        assert not errors, detail


class TestCriterion4CRD:
    def test_cluster_fractions_exceed_bound(self):
        errors = []
        worst = 100.0
        for ns, nnu in table_2_cells():
            rep = compute_spectrum(presets.crd(ns, TABLE_2_ANGLES, nnu))
            got = rep.cluster_fraction * 100
            worst = min(worst, got)
            if not got > 99.2:
                errors.append(f"({ns},{nnu}): {got:.2f}")
        detail = "; ".join(errors) if errors else f"worst cell {worst:.2f}% > 99.2%"
        _announce("criterion 4 (CRD cluster fraction > 99.2%)", not errors, detail)
        assert not errors, detail


class TestTableTwoBeyondEnvelope:
    def test_cell_50_20(self):
        # N = 24000 is above the default dense cap; the core has n_space * r
        # = 1000 unknowns (coherent) and 50 (CRD)
        cell = (50, 20)
        n = cell[0] * TABLE_2_ANGLES * cell[1]
        errors = []
        rep = compute_spectrum(presets.coherent(cell[0], TABLE_2_ANGLES, cell[1]), dense_cap=n)
        coherent = rep.cluster_fraction * 100
        if abs(coherent - TABLE_2[cell]) > 1.0:
            errors.append(f"coherent {coherent:.2f} vs {TABLE_2[cell]}")
        if rep.min_modulus <= 0.70:
            errors.append(f"coherent min modulus {rep.min_modulus:.3f}")
        rep = compute_spectrum(presets.crd(cell[0], TABLE_2_ANGLES, cell[1]), dense_cap=n)
        crd = rep.cluster_fraction * 100
        if not crd > 99.2:
            errors.append(f"CRD {crd:.2f}")
        detail = "; ".join(errors) if errors else \
            f"coherent {coherent:.2f}% vs {TABLE_2[cell]} (+-1 pt), CRD {crd:.2f}% > 99.2%"
        _announce("criteria 3 and 4 at Table 2 (50,20), N = 24000", not errors, detail)
        assert not errors, detail


class TestCriterion5KrylovRobustness:
    def test_unpreconditioned_ladder(self):
        gmres_iters = []
        errors = []
        for n in (10, 20, 30, 50):
            problem = presets.coherent(n, 10, n)
            b = build_rhs(problem, override_ones=True)
            rep = gmres(lambda v: apply_A(problem, v), b,
                        SolveConfig(rel_tol=1e-12, max_iter=60))
            if not rep.converged:
                errors.append(f"gmres failed at n={n}")
            gmres_iters.append(rep.iterations)
            rep_b = bicgstab(lambda v: apply_A(problem, v), b,
                             SolveConfig(rel_tol=1e-12, max_iter=120))
            if not rep_b.converged:
                errors.append(f"bicgstab failed at n={n}")
        if max(gmres_iters) > 15:
            errors.append(f"iteration count {max(gmres_iters)} > 15")
        if gmres_iters[-1] - gmres_iters[0] > 4:
            errors.append(f"growth {gmres_iters[0]} -> {gmres_iters[-1]} > 4")
        detail = "; ".join(errors) if errors else f"gmres iterations {gmres_iters}"
        _announce("criterion 5 (Krylov robustness on the refinement ladder)",
                  not errors, detail)
        assert not errors, detail


def _random_problem(rng):
    kind = rng.choice(["mono", "coherent", "crd", "aniso2d"])
    if kind == "mono":
        ns = int(rng.integers(5, 40))
        nom = int(rng.choice([4, 8, 12]))
        while ns * nom > 2000:
            ns = int(rng.integers(5, 40))
        return presets.monochromatic(ns, nom)
    if kind in ("coherent", "crd"):
        ns = int(rng.integers(4, 15))
        nom = int(rng.choice([4, 8]))
        nnu = int(rng.integers(3, 12))
        while ns * nom * nnu > 2000:
            ns, nnu = int(rng.integers(4, 15)), int(rng.integers(3, 12))
        builder = presets.coherent if kind == "coherent" else presets.crd
        return builder(ns, nom, nnu)
    nx = int(rng.integers(4, 12))
    ny = int(rng.integers(4, 12))
    nom = int(rng.choice([4, 8]))
    while nx * ny * nom > 2000:
        nx, ny = int(rng.integers(4, 12)), int(rng.integers(4, 12))
    return anisotropic_2d(nx, ny, nom)


class TestCriterion6OracleEquivalence:
    def test_matrix_free_against_dense_and_lu(self):
        rng = np.random.default_rng(20260810)
        errors = []
        worst_apply = 0.0
        worst_solve = 0.0
        for trial in range(20):
            problem = _random_problem(rng)
            dense = materialize_A(problem)
            for _ in range(10):
                v = rng.standard_normal(problem.n_total)
                ref = dense @ v
                err = np.linalg.norm(apply_A(problem, v) - ref)
                rel = err / max(np.linalg.norm(ref), 1e-300)
                worst_apply = max(worst_apply, rel)
                if rel > 1e-12:
                    errors.append(f"trial {trial}: apply deviation {rel:.2e}")
                    break
            b = rng.standard_normal(problem.n_total)
            rep = gmres(lambda v: apply_A(problem, v), b,
                        SolveConfig(rel_tol=1e-13, max_iter=problem.n_total))
            ref = np.linalg.solve(dense, b)  # LU oracle
            rel = np.linalg.norm(rep.solution - ref) / np.linalg.norm(ref)
            worst_solve = max(worst_solve, rel)
            if rel > 1e-8:
                errors.append(f"trial {trial}: solve deviation {rel:.2e}")
        detail = "; ".join(errors) if errors else \
            f"worst apply dev {worst_apply:.2e}, worst solve dev {worst_solve:.2e}"
        _announce("criterion 6 (matrix-free vs dense oracles, 20 configs)",
                  not errors, detail)
        assert not errors, detail


class TestCriterion7StructuralSuite:
    def test_structural_properties(self):
        errors = []

        poly = build_grid(5, 8, 6, 0.0, 1.0, profile=presets.lorentzian_profile)
        for kernel in (LegendreKernel(presets.LEGENDRE_L7),
                       CRDKernel(presets.lorentzian_profile)):
            psi = psi_matrix(kernel, poly)
            if not np.array_equal(psi, psi.T):
                errors.append(f"psi not exactly symmetric for {type(kernel).__name__}")

        mono_grid = build_grid(6, 12, 1, 0.0, 1.0)
        sv = np.linalg.svd(psi_matrix(LegendreKernel(presets.LEGENDRE_L7), mono_grid),
                           compute_uv=False)
        if not (sv[7] > 1e-10 * sv[0] and sv[8] <= 1e-12 * sv[0]):
            errors.append("Legendre kernel rank is not exactly 8")

        op = build_transfer(poly)
        dense = materialize_transfer(op)
        g = poly
        tilde = dense.reshape(g.n_space, g.n_rays, g.n_space, g.n_rays)
        for k, ray in enumerate(g.rays):
            blk = tilde[:, k, :, k]
            if ray.mu < 0:
                ok = np.all(blk[0] == 0.0) and np.all(np.triu(blk, 1) == 0.0)
            else:
                ok = np.all(blk[-1] == 0.0) and np.all(np.tril(blk, -1) == 0.0)
            if not ok:
                errors.append(f"transfer block {k} lost triangular structure")
                break

        rng = np.random.default_rng(3)
        v = FieldVector(rng.standard_normal(poly.n_total), Ordering.SPACE_MAJOR)
        back = permute(poly, permute(poly, v, Ordering.RAY_MAJOR), Ordering.SPACE_MAJOR)
        if not np.array_equal(back.values, v.values):
            errors.append("permutation round trip not bit-exact")

        grid2d = CartesianGrid2D(8, 8, 8)
        for k in range(grid2d.n_rays):
            family = trace_rays(grid2d, grid2d.directions[k])
            for interp in build_interpolators(family, grid2d):
                if np.max(np.abs(interp.row_sums() - 1.0)) > 1e-14:
                    errors.append(f"interpolator row sums off for direction {k}")
                    break

        norm = kernel_normalization(LegendreKernel(presets.LEGENDRE_L7), mono_grid)
        if abs(norm - presets.LEGENDRE_L7[0]) > 1e-10:
            errors.append(f"kernel normalization {norm} != d0")

        a_mat = rng.standard_normal((40, 40)) / 6.0 + np.eye(40)
        b_vec = rng.standard_normal(40)
        rep = gmres(lambda v: a_mat @ v, b_vec, SolveConfig(rel_tol=1e-13, max_iter=60))
        if np.any(np.diff(rep.residual_history) > 1e-15):
            errors.append("GMRES residual history not monotone")

        lam = compute_spectrum(presets.monochromatic(10, 12)).eigenvalues
        if not np.allclose(np.sort_complex(lam), np.sort_complex(np.conj(lam)), atol=1e-10):
            errors.append("spectrum not closed under conjugation")

        detail = "; ".join(errors) if errors else "8 structural properties hold"
        _announce("criterion 7 (structural property suite)", not errors, detail)
        assert not errors, detail


class TestCriterion8ClusteringTrend:
    def test_outliers_and_identity_distance(self):
        errors = []
        reports = []
        fro = []
        for ns in (50, 100, 200):
            problem = presets.monochromatic(ns, 12)
            reports.append(compute_spectrum(problem, eps_values=(0.15,)))
            a = materialize_A(problem)
            a[np.diag_indices(problem.n_total)] -= 1.0
            fro.append(np.linalg.norm(a))
        counts = [rep.outlier_counts[0.15] for rep in reports]
        running_min = counts[0]
        for c in counts[1:]:
            if c > running_min + 2:
                errors.append(f"outlier counts {counts} grow by more than 2")
                break
            running_min = min(running_min, c)
        spread = max(fro) / min(fro) - 1.0
        if spread >= 0.10:
            errors.append(f"fro(A - Id) varies by {spread:.1%}")
        trend = clustering_trend(reports)
        detail = "; ".join(errors) if errors else \
            f"outliers(0.15) {counts}, fro spread {spread:.1%}, trend consistent={trend.strong_cluster_consistent}"
        _announce("criterion 8 (clustering trend under space refinement)",
                  not errors, detail)
        assert not errors, detail
