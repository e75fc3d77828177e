"""Experiment runner: single solves, spectra, clustering tables, convergence ladders.

Subcommands
    solve        one system, solution CSV + report JSON
    spectrum     eigenvalues CSV + clustering report JSON
    table        cluster fractions over a (ns, nomega, nnu) product grid, CSV
    convergence  residual histories along a refinement ladder, CSV

A JSON config file can supply any flag (underscored keys); explicit flags
win, and a null value keeps the default. Exit codes: 0 success, 1 invalid
configuration or usage, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from rtkrylov import presets
from rtkrylov.errors import DENSE_CAP_DEFAULT, NumericalError, ResourceLimitError
from rtkrylov.krylov import SolveConfig, solve_system
from rtkrylov.operator import apply_A, build_rhs
from rtkrylov.spectrum import check_spectrum_size, compute_spectrum

SCHEMA_VERSION = 1
_G = "%.17g"


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ConfigError (exit 1); argparse itself exits 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


# one-value flags with the type that converts them, on the command line and
# in a config file
_TYPED_FLAGS = {
    "nx": (int, "2D grid points in x"),
    "ny": (int, "2D grid points in y"),
    "tol": (float, "relative residual tolerance"),
    "restart": (int, "GMRES restart length (default: no restart)"),
    "max_iter": (int, "iteration limit"),
    "gamma_scale": (float, "factor on the scattering coefficient"),
    "dense_cap": (int, "largest matrix a spectrum forms: N x N on the dense path, "
                       "at most cap^2 entries per array on the core path"),
    "out": (str, "output directory"),
}


def _fmt(x) -> str:
    return _G % float(x)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _int_list(text) -> list:
    if isinstance(text, list):
        return [int(str(v)) for v in text]  # as on the command line: 5.7 is rejected
    return [int(tok) for tok in str(text).split(",") if tok.strip()]


def _build_parser() -> _Parser:
    parser = _Parser(prog="rtkrylov", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("solve", "spectrum", "table", "convergence"):
        p = sub.add_parser(mode)
        p.add_argument("--preset", choices=["mono", "coherent", "crd", "aniso2d"])
        p.add_argument("--ns", help="space nodes (comma list in table/convergence mode)")
        p.add_argument("--nomega", help="angular nodes (comma list in table mode)")
        p.add_argument("--nnu", help="frequency nodes (comma list in table/convergence mode)")
        for key, (kind, text) in _TYPED_FLAGS.items():
            p.add_argument("--" + key.replace("_", "-"), type=kind, dest=key, help=text)
        p.add_argument("--solver", choices=["gmres", "bicgstab"])
        p.add_argument("--rhs-one", action="store_const", const=True, dest="rhs_one",
                       help="use the constant right-hand side of ones")
        p.add_argument("--config", help="JSON config file; flags override it")
    return parser


_DEFAULTS = {
    "preset": "mono",
    "ns": "10",
    "nomega": "12",
    "nnu": "10",
    "nx": 8,
    "ny": 8,
    "solver": "gmres",
    "tol": 1e-12,
    "restart": None,
    "max_iter": 500,
    "rhs_one": False,
    "gamma_scale": 1.0,
    "dense_cap": DENSE_CAP_DEFAULT,
    "out": ".",
}


def _file_value(key: str, value):
    """Convert a config-file value as its flag converts the same text."""
    if key == "rhs_one" and not isinstance(value, bool):
        raise ConfigError(f"config key 'rhs_one' needs true, false or null, got {value!r}")
    if key not in _TYPED_FLAGS:
        return value
    kind = _TYPED_FLAGS[key][0]
    try:
        return kind(str(value))
    except ValueError:
        raise ConfigError(f"config key {key!r} needs {kind.__name__}, got {value!r}") from None


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    file_cfg = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        file_cfg = {k: _file_value(k, v) for k, v in file_cfg.items() if v is not None}
        cfg.update(file_cfg)
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg["mode"] = args.mode
    cfg["_solver_given"] = args.solver is not None or "solver" in file_cfg
    return cfg


def _problem_from(cfg: dict, n_space: int, n_omega: int, n_freq: int):
    return presets.build(
        cfg["preset"], n_space=n_space, n_angles=n_omega, n_freq=n_freq,
        n_x=cfg["nx"], n_y=cfg["ny"], gamma_scale=cfg["gamma_scale"],
    )


def _solve_config(cfg: dict) -> SolveConfig:
    return SolveConfig(method=cfg["solver"], rel_tol=cfg["tol"],
                       max_iter=cfg["max_iter"], restart=cfg["restart"])


def _scalar(cfg, key) -> int:
    values = _int_list(cfg[key])
    if len(values) != 1:
        raise ConfigError(f"--{key} must be a single value in {cfg['mode']} mode")
    return values[0]


def _echo_config(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if k not in ("out", "mode", "_solver_given")}


def _write_solution(path: Path, problem, solution) -> None:
    """One row per unknown: node coordinates, ray (mu, nu), intensity.

    Each node's coordinates and each ray's (mu, nu) are formatted once; a
    node's block of rows is then one % over a format string of all rays.
    """
    grid = problem.grid
    if hasattr(grid, "node_xy"):  # 2D
        header, nodes = "x,y,mu,nu,I", grid.node_xy
    else:
        header, nodes = "t,mu,nu,I", grid.t_nodes[:, None]
    rays = "".join(f"%s,{_fmt(mu)},{_fmt(nu)},{_G}\n"
                   for mu, nu in zip(grid.ray_mu, grid.ray_nu))
    values = np.asarray(solution, dtype=float).reshape(grid.n_space, grid.n_rays)
    args = [None] * (2 * grid.n_rays)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for node, row in zip(nodes, values):
            args[0::2] = [",".join(map(_fmt, node))] * grid.n_rays
            args[1::2] = row.tolist()  # one node at a time: no N Python floats at once
            fh.write(rays % tuple(args))


def _run_solve(cfg: dict, out_dir: Path) -> int:
    problem = _problem_from(cfg, _scalar(cfg, "ns"), _scalar(cfg, "nomega"),
                            _scalar(cfg, "nnu"))
    b = build_rhs(problem, override_ones=cfg["rhs_one"])
    report = solve_system(lambda v: apply_A(problem, v), b, _solve_config(cfg))

    _write_solution(out_dir / "solution.csv", problem, report.solution)
    _write_json(out_dir / "report.json", {
        "schema_version": SCHEMA_VERSION,
        "kind": "solve",
        "config": _echo_config(cfg),
        "method": report.method,
        "converged": bool(report.converged),
        "breakdown": bool(report.breakdown),
        "iterations": int(report.iterations),
        "true_residual": report.true_residual,
        "residual_history": [float(r) for r in report.residual_history],
    })
    if not report.converged:
        print("solve did not converge", file=sys.stderr)
        return 2
    return 0


def _run_spectrum(cfg: dict, out_dir: Path) -> int:
    problem = _problem_from(cfg, _scalar(cfg, "ns"), _scalar(cfg, "nomega"),
                            _scalar(cfg, "nnu"))
    rep = compute_spectrum(problem, dense_cap=cfg["dense_cap"])
    rows = [[_fmt(l.real), _fmt(l.imag), _fmt(abs(l))] for l in rep.eigenvalues]
    _write_csv(out_dir / "eigenvalues.csv", ["re", "im", "modulus"], rows)
    _write_json(out_dir / "spectrum.json", {
        "schema_version": SCHEMA_VERSION,
        "kind": "spectrum",
        "config": _echo_config(cfg),
        "n_total": rep.n,
        "reduced_dim": rep.reduced_dim,
        "cluster_fraction_symmetric": rep.cluster_fraction,
        "cluster_fraction_paper_interval": rep.cluster_fraction_one_sided,
        "min_modulus": rep.min_modulus,
        "outlier_counts": {str(k): v for k, v in rep.outlier_counts.items()},
    })
    return 0


def _run_table(cfg: dict, out_dir: Path) -> int:
    if cfg["preset"] == "aniso2d":
        raise ConfigError("table mode supports the 1D presets (mono, coherent, crd)")
    nnu_list = _int_list(cfg["nnu"]) if cfg["preset"] != "mono" else [1]
    rows = []
    for ns, nom, nnu in itertools.product(_int_list(cfg["ns"]), _int_list(cfg["nomega"]),
                                          nnu_list):
        try:
            check_spectrum_size(ns * nom * nnu, ns, nom * nnu,
                                presets.kernel_rank(cfg["preset"], nnu), cfg["dense_cap"])
        except ResourceLimitError as exc:
            print(f"skipping cell ns={ns} nomega={nom} nnu={nnu}: {exc}", file=sys.stderr)
            continue
        rep = compute_spectrum(_problem_from(cfg, ns, nom, nnu), dense_cap=cfg["dense_cap"])
        rows.append([str(ns), str(nom), str(nnu), str(rep.n),
                     _fmt(rep.cluster_fraction_one_sided),
                     _fmt(rep.cluster_fraction),
                     _fmt(rep.min_modulus)])
    _write_csv(out_dir / "table.csv",
               ["N_s", "N_Omega", "N_nu", "N",
                "cluster_fraction_paper_interval", "cluster_fraction_symmetric",
                "min_modulus"],
               rows)
    return 0


def _run_convergence(cfg: dict, out_dir: Path) -> int:
    ns_list = _int_list(cfg["ns"])
    nnu_list = _int_list(cfg["nnu"])
    if cfg["preset"] == "mono":
        nnu_list = [1] * len(ns_list)
    elif len(nnu_list) == 1:
        nnu_list = nnu_list * len(ns_list)
    if len(nnu_list) != len(ns_list):
        raise ConfigError("--nnu ladder must match --ns in length (or be scalar)")
    n_omega = _scalar(cfg, "nomega")
    methods = [cfg["solver"]] if cfg["_solver_given"] else ["gmres", "bicgstab"]

    rows = []
    any_failed = False
    for ns, nnu in zip(ns_list, nnu_list):
        problem = _problem_from(cfg, ns, n_omega, nnu)
        b = build_rhs(problem, override_ones=cfg["rhs_one"])
        size = f"ns{ns}_nomega{n_omega}_nnu{nnu}"
        for method in methods:
            rep = solve_system(lambda v: apply_A(problem, v), b,
                               dataclasses.replace(_solve_config(cfg), method=method))
            any_failed |= not rep.converged
            for it, res in enumerate(rep.residual_history, start=1):
                rows.append([size, method, str(it), _fmt(res),
                             str(int(rep.converged))])
    _write_csv(out_dir / "convergence.csv",
               ["size", "method", "iteration", "relative_residual", "converged"],
               rows)
    return 2 if any_failed else 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _merge_config(args)
        out_dir = Path(cfg["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.mode == "solve":
            return _run_solve(cfg, out_dir)
        if args.mode == "spectrum":
            return _run_spectrum(cfg, out_dir)
        if args.mode == "table":
            return _run_table(cfg, out_dir)
        return _run_convergence(cfg, out_dir)
    except (ConfigError, ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
