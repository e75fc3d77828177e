"""Correctness checks on the library's outputs, and a self-test showing they can fail.

Each check returns a list of fault descriptions (empty when the output is
correct). None of them compares against a stored copy of earlier output:
solutions are checked against the benchmark's own operator (model.py),
spectra against the paper's tables and against properties every spectrum of
A must have, CLI files against the library solve of the same problem.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np
from rtkrylov import cli, krylov, operator, presets
from rtkrylov.spectrum import compute_spectrum

import model

# paper tables: cluster percentage (|lambda| within 1e-3 of one) and tolerance
TABLE_1 = {(10, 12): 68.3, (10, 24): 84.2, (20, 12): 69.6, (20, 24): 84.8,
           (40, 12): 73.5, (40, 24): 87.8, (100, 12): 79.8, (100, 24): 90.1}
TABLE_2 = {(10, 10): 98.3, (10, 20): 97.9, (20, 10): 98.4, (20, 20): 98.4,
           (50, 10): 98.6, (50, 20): 98.7}
TABLE_2_ANGLES = 24
CRD_FLOOR = 99.2
MIN_MODULUS = {"mono": 0.82, "coherent": 0.70}
GMRES_ITER_BOUND = 15        # acceptance criterion 5


def solution(m: model.Model, b, x, rel_tol: float = 1e-11) -> list:
    """Relative residual of x under the benchmark's own operator."""
    res = np.linalg.norm(b - m.apply_a(x)) / np.linalg.norm(b)
    return [] if res <= rel_tol else [f"residual {res:.3e} above {rel_tol:g}"]


def agreement(x_gmres, x_bicgstab, rel_tol: float = 1e-9) -> list:
    diff = np.linalg.norm(x_gmres - x_bicgstab) / np.linalg.norm(x_gmres)
    return [] if diff <= rel_tol else [f"GMRES and BiCGStab differ by {diff:.3e}"]


def bounds(x, lower, upper=None, tol: float = 1e-12) -> list:
    """Maximum principle: lower <= x (<= upper), within tol times the bound scale."""
    scale = tol * max(np.max(np.abs(lower)), abs(upper) if upper is not None else 0.0)
    faults = []
    if np.min(x - lower) < -scale:
        faults.append(f"solution below its lower bound by {-np.min(x - lower):.3e}")
    if upper is not None and np.max(x) > upper + scale:
        faults.append(f"solution above the inflow {upper:g} by {np.max(x) - upper:.3e}")
    return faults


def iterations(n_iter: int) -> list:
    return [] if n_iter <= GMRES_ITER_BOUND else [f"GMRES took {n_iter} > {GMRES_ITER_BOUND} iterations"]


def spectrum(m: model.Model, cell, eigenvalues, reported_fraction) -> list:
    """Conjugate closure, eigenvalue disc, trace (1D), and the paper's tables."""
    lam = np.asarray(eigenvalues)
    faults = []
    if lam.size != m.n_total:
        return [f"{lam.size} eigenvalues for N = {m.n_total}"]
    if not np.allclose(np.sort_complex(lam), np.sort_complex(np.conj(lam)), rtol=0.0, atol=1e-10):
        faults.append("eigenvalues are not closed under conjugation")
    # |lambda - 1| <= ||transfer * scattering|| <= ||scattering||: the transfer
    # is non-negative with row sums at most one
    radius = np.max(np.abs(lam - 1.0))
    if radius > m.scattering_norm() + 1e-9:
        faults.append(f"eigenvalue at distance {radius:.4f} from one, beyond {m.scattering_norm():.4f}")
    if isinstance(m, model.Slab):
        gap = abs(np.sum(lam) - m.trace_a())
        if gap > 1e-9 * lam.size:
            faults.append(f"eigenvalue sum misses the closed-form trace by {gap:.3e}")
    modulus = np.abs(lam)
    fraction = 100.0 * float(np.mean((modulus >= 0.999) & (modulus <= 1.001)))
    if abs(fraction - 100.0 * reported_fraction) > 1e-9:
        faults.append(f"reported cluster fraction {100 * reported_fraction:.3f} != {fraction:.3f}")
    preset, dims = cell
    if preset == "mono" and (dims["n_space"], dims["n_angles"]) in TABLE_1:
        expected, tol = TABLE_1[(dims["n_space"], dims["n_angles"])], 3.0
    elif (preset == "coherent" and dims["n_angles"] == TABLE_2_ANGLES
          and (dims["n_space"], dims["n_freq"]) in TABLE_2):
        expected, tol = TABLE_2[(dims["n_space"], dims["n_freq"])], 1.0
    else:
        expected = None
    if expected is not None:
        if abs(fraction - expected) > tol:
            faults.append(f"cluster fraction {fraction:.2f}% vs table {expected} +- {tol}")
        if modulus.min() <= MIN_MODULUS[preset]:
            faults.append(f"min |lambda| {modulus.min():.4f} <= {MIN_MODULUS[preset]}")
    if (preset == "crd" and dims["n_angles"] == TABLE_2_ANGLES
            and (dims["n_space"], dims["n_freq"]) in TABLE_2 and not fraction > CRD_FLOOR):
        faults.append(f"CRD cluster fraction {fraction:.2f}% not above {CRD_FLOOR}%")
    return faults


def csv_solution(path, m: model.Model, x) -> list:
    """solution.csv holds one row per unknown, its coordinates and I = x."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    columns = m.csv_columns()
    if len(lines) - 1 != m.n_total:
        return [f"solution.csv has {len(lines) - 1} rows, expected {m.n_total}"]
    try:
        values = np.array(",".join(lines[1:]).split(","), dtype=float)
        values = values.reshape(m.n_total, len(columns) + 1)
    except ValueError as exc:
        return [f"solution.csv is malformed: {exc}"]
    faults = [f"solution.csv column {j} differs from the grid"
              for j, col in enumerate(columns) if np.max(np.abs(values[:, j] - col)) > 1e-13]
    err = np.max(np.abs(values[:, -1] - x)) / np.max(np.abs(x))
    if err > 1e-10:
        faults.append(f"solution.csv I column differs from the library solve by {err:.3e}")
    return faults


def self_test(work_dir):
    """Give every check the library's output on a small problem and a perturbed copy.

    Returns (library faults, check faults): the first are faults found in the
    library's output, the second are checks that accepted a perturbed input.
    """
    library, broken = [], []

    def expect(name, ok_faults, bad_faults, *must_name):
        library.extend(f"{name}: {f}" for f in ok_faults)
        if not bad_faults:
            broken.append(f"{name}: accepts a perturbed input")
        broken.extend(f"{name}: the {word} check accepts a perturbed input"
                      for word in must_name if not any(word in f for f in bad_faults))

    dims = dict(n_space=12, n_angles=8)
    problem = presets.build("mono", **dims)
    m = model.Slab("mono", **dims)
    b = m.rhs()
    apply = lambda v: operator.apply_A(problem, v)
    xg = krylov.solve_system(apply, b, krylov.SolveConfig(method="gmres")).solution
    xb = krylov.solve_system(apply, b, krylov.SolveConfig(method="bicgstab")).solution
    expect("residual", solution(m, b, xg), solution(m, b, 1.001 * xg))
    expect("agreement", agreement(xg, xb), agreement(xg, 1.001 * xb))
    expect("maximum principle", bounds(xg, b, 1.0), bounds(1.001 * xg, b, 1.0))

    cell = ("mono", dict(n_space=10, n_angles=12))
    rep = compute_spectrum(presets.build("mono", **cell[1]))
    moved = rep.eigenvalues.copy()
    moved[np.argmax(np.abs(moved.imag))] += 1e-3
    cell_model = model.Slab("mono", **cell[1])
    expect("spectrum", spectrum(cell_model, cell, rep.eigenvalues, rep.cluster_fraction),
           spectrum(cell_model, cell, moved, rep.cluster_fraction), "conjugation", "trace")

    out = Path(tempfile.mkdtemp(prefix="selftest-", dir=work_dir))
    try:
        code = cli.main(["solve", "--preset", "mono", "--ns", "12", "--nomega", "8",
                         "--out", str(out)])
        csv = out / "solution.csv"
        good = csv_solution(csv, m, xg) if code == 0 else [f"exit code {code}"]
        text = csv.read_text(encoding="utf-8")
        csv.write_text(text[:text.rstrip("\n").rfind("\n") + 1], encoding="utf-8")
        expect("solution.csv", good, csv_solution(csv, m, xg))
    finally:
        for f in out.iterdir():
            os.remove(f)
        out.rmdir()
    return library, broken
