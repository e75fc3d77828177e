"""Workloads, rounds and metrics of the rtkrylov benchmark; run.py is the entry point.

A run builds the workload's problems (timed from process start as setup_s),
runs the self-test of the checks, then repeats whole rounds until the
operations have taken --seconds. A round takes, in this order, samples of
build_rhs + GMRES and of build_rhs + BiCGStab on the solve problems,
`rtkrylov solve` through cli.main on the same problems, and compute_spectrum
on the spectrum cells; one sample runs the operation once on each of its
problems, and short operations take several samples per round. Each time
metric is the mean time of each problem over the run's samples, summed over
the workload's problems. With --trace 1 every round runs
twice, untraced and then traced; the per-layer metrics come from the traced
passes.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median

import numpy as np
import scipy

from rtkrylov import _kernels, cli, krylov, operator, presets, spectrum
from rtkrylov.scattering import ScatteringStrengthWarning

import checks
import model
from tracer import Tracer

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

TABLE_CELLS = [("mono", {"n_space": 100, "n_angles": 24}),
               ("coherent", {"n_space": 10, "n_angles": 24, "n_freq": 10}),
               ("crd", {"n_space": 10, "n_angles": 24, "n_freq": 10})]
# a 2D cell in each workload, so the multidim build is measured in both
CELL_2D = ("aniso2d", {"n_x": 8, "n_y": 8, "n_angles": 8})
LINE_SIZE = {"n_space": 200, "n_angles": 24, "n_freq": 50}
MONO_DEEP = ("mono", {"n_space": 4000, "n_angles": 24})
ANISO = ("aniso2d", {"n_x": 48, "n_y": 48, "n_angles": 24})


@dataclass(frozen=True)
class Part:
    """Problems of one kind of cost, run with their own repeats."""
    solves: list        # problems solved with GMRES and BiCGStab
    cli: list           # problems solved through `rtkrylov solve`
    cells: list         # problems whose spectrum is computed
    repeats: dict       # samples per round of a short operation (default 1)

    def cases(self, kind):
        return {"spectrum": self.cells, "cli": self.cli}.get(kind, self.solves)


MONO_PART = Part(solves=[MONO_DEEP], cli=[MONO_DEEP], cells=[], repeats={})
ANISO_PART = Part(solves=[ANISO], cli=[ANISO], cells=[CELL_2D], repeats={"spectrum": 8})
# the CLI's cost is formatting and writing, the same for both line presets
LINE_PART = Part(solves=[("crd", LINE_SIZE), ("coherent", LINE_SIZE)], cli=[("crd", LINE_SIZE)],
                 cells=[], repeats={"gmres": 3, "bicgstab": 3})
CELLS_PART = Part(solves=TABLE_CELLS, cli=TABLE_CELLS, cells=TABLE_CELLS + [CELL_2D],
                  repeats={"gmres": 20, "bicgstab": 20, "cli": 5})
WORKLOADS = {
    "deep_sweeps": [MONO_PART, ANISO_PART],
    "wide_dense": [LINE_PART, CELLS_PART],
}

KINDS = ("gmres", "bicgstab", "cli", "spectrum")
TIME_METRIC = {"gmres": "gmres_s", "bicgstab": "bicgstab_s", "cli": "cli_solve_s",
               "spectrum": "spectrum_s"}


def unit(metric: str) -> str:
    for suffix, name in (("_s", "s"), ("_mb", "MB"), ("_pct", "%"), ("_per_iteration", "ratio"),
                         ("bytes_written", "bytes")):
        if metric.endswith(suffix):
            return name
    return "count"


def key(case):
    return case[0], tuple(sorted(case[1].items()))


def cli_args(case, out_dir) -> list:
    preset, dims = case
    args = ["solve", "--preset", preset, "--nomega", str(dims["n_angles"]), "--out", str(out_dir)]
    if preset == "aniso2d":
        return args + ["--nx", str(dims["n_x"]), "--ny", str(dims["n_y"]), "--rhs-one"]
    return args + ["--ns", str(dims["n_space"]), "--nnu", str(dims.get("n_freq", 1))]


def fingerprint(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class Harness:
    def __init__(self, parts: list, scale: float, work: Path):
        self.parts = parts
        self.scale = scale            # inflow (1D) or right-hand side (2D) intensity
        self.work = work
        self.problems = {}
        self.models = {}
        self.checked = {}             # (kind, case) -> fingerprint of a fully checked output
        self.latest = {}              # (kind, case) -> latest GMRES / BiCGStab solution
        self.faults = []

    def build(self):
        for case in (case for part in self.parts for case in part.solves + part.cells):
            if key(case) not in self.problems:
                self.problems[key(case)] = presets.build(case[0], **case[1])

    def execute(self, kind, case):
        """One timed operation; returns (output, seconds, bytes written, failed)."""
        problem = self.problems[key(case)]
        out_dir = Path(tempfile.mkdtemp(prefix="cli-", dir=self.work)) if kind == "cli" else None
        start = time.perf_counter()
        try:
            if kind == "spectrum":
                output = spectrum.compute_spectrum(problem)
            elif kind == "cli":
                output = (cli.main(cli_args(case, out_dir)), out_dir)
            else:
                b = operator.build_rhs(problem, override_ones=case[0] == "aniso2d") * self.scale
                output = krylov.solve_system(lambda v: operator.apply_A(problem, v), b,
                                             krylov.SolveConfig(method=kind))
        except Exception:  # an operation that raises is counted as failed, the run goes on
            traceback.print_exc()
            return None, time.perf_counter() - start, 0, True
        seconds = time.perf_counter() - start
        if kind == "cli":
            written = sum(f.stat().st_size for f in out_dir.iterdir())
            return output, seconds, written, output[0] != 0
        if kind == "spectrum":
            return output, seconds, 0, False
        return output, seconds, 0, not output.converged

    def schedule(self):
        """The operations of one round, in order: by kind, then part by part."""
        return [(kind, case) for kind in KINDS for part in self.parts
                for _ in range(part.repeats.get(kind, 1)) for case in part.cases(kind)]

    def round(self):
        """Run every operation of one round, timed.

        Returns the outputs as (kind, case, output), the samples keyed by
        (metric, problem), the bytes the CLI wrote and the number of failed
        operations.
        """
        outputs, samples, written, failed = [], {}, 0, 0
        for kind, case in self.schedule():
            output, took, nbytes, bad = self.execute(kind, case)
            outputs.append((kind, case, output))
            written += nbytes
            failed += bad
            label = f"{case[0]} {'x'.join(str(v) for v in case[1].values())}"
            samples.setdefault((TIME_METRIC[kind], label), []).append(took)
            if kind in ("gmres", "bicgstab") and output is not None:
                samples.setdefault((f"{kind}_iters", label), []).append(output.iterations)
        return outputs, samples, written, failed

    def model(self, case):
        if key(case) not in self.models:
            problem = self.problems[key(case)]
            if case[0] == "aniso2d":
                m = model.Square(problem)
            else:
                m = model.Slab(case[0], **case[1])
                self.faults += m.grid_faults(problem.grid)
            self.faults += m.nonnegativity_faults()
            self.models[key(case)] = m
        return self.models[key(case)]

    def _first_time(self, kind, case, digest) -> bool:
        """True when an output must be checked in full: the first of its
        operation, or one that differs from that first one."""
        op = (kind, key(case))
        if op not in self.checked:
            self.checked[op] = digest
            return True
        return self.checked[op] != digest

    def check(self, kind, case, output):
        """Check one output, outside the timing; a CLI output directory is removed."""
        if output is None:
            return
        if kind == "spectrum":
            if self._first_time(kind, case, fingerprint(output.eigenvalues)):
                self.faults += checks.spectrum(self.model(case), case, output.eigenvalues,
                                               output.cluster_fraction)
        elif kind == "cli":
            code, out_dir = output
            gmres = self.latest.get(("gmres", key(case)))
            csv = out_dir / "solution.csv"
            if code == 0 and gmres is not None and self._first_time(
                    kind, case, hashlib.sha256(csv.read_bytes()).hexdigest()):
                self.faults += checks.csv_solution(csv, self.model(case), gmres / self.scale)
            shutil.rmtree(out_dir)
        elif output.converged:
            m = self.model(case)
            if self._first_time(kind, case, fingerprint(output.solution)):
                if case[0] == "aniso2d":
                    b, upper = np.full(m.n_total, self.scale), None
                else:
                    b, upper = m.rhs() * self.scale, self.scale
                self.faults += checks.solution(m, b, output.solution)
                self.faults += checks.bounds(output.solution, b, upper)
            if kind == "gmres":
                self.faults += checks.iterations(output.iterations)
            self.latest[(kind, key(case))] = output.solution
            other = self.latest.get(("bicgstab" if kind == "gmres" else "gmres", key(case)))
            if other is not None:
                self.faults += checks.agreement(output.solution, other)


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "backend": _kernels.backend(),
            "cores": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def run(name: str, seed: int, seconds: float, trace: bool, t0: float) -> int:
    warnings.simplefilter("ignore", ScatteringStrengthWarning)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        return _run(name, seed, seconds, trace, t0, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(name, seed, seconds, trace, t0, work) -> int:
    rng = np.random.default_rng(seed)
    harness = Harness(WORKLOADS[name], 2.0 ** int(rng.integers(-4, 5)), work)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    harness.build()
    setup_s = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()

    library_faults, broken = checks.self_test(work)
    harness.faults += library_faults
    if broken:
        print("error: the correctness checks failed their self-test:", *broken,
              sep="\n  ", file=sys.stderr)
        return 3

    attempted = failed = 0
    measured = 0.0
    peak_rss_mb = None
    samples = {}       # (metric, problem) -> samples of the untraced passes
    overhead = []      # traced against untraced time of a round, percent
    written = []       # bytes the CLI wrote in each traced round
    n_round = 0
    while measured < seconds:
        pass_time = []
        for traced in ([False, True] if tracer else [False]):
            if traced:
                tracer.round = n_round
                tracer.install()
            try:
                outputs, pass_samples, nbytes, bad = harness.round()
            finally:
                if traced:
                    tracer.uninstall()
            if peak_rss_mb is None:  # before any check has allocated its own arrays
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            for output in outputs:
                harness.check(*output)
            attempted += len(outputs)
            failed += bad
            pass_time.append(sum(sum(v) for k, v in pass_samples.items() if k[0].endswith("_s")))
            measured += pass_time[-1]
            if traced:
                written.append(nbytes)
            else:
                for k, v in pass_samples.items():
                    samples.setdefault(k, []).extend(v)
        if tracer:
            overhead.append(100.0 * (pass_time[1] - pass_time[0]) / pass_time[0])
        n_round += 1

    if tracer:
        metrics = tracer.layer_metrics()
        metrics["cli.bytes_written"] = median(written)
        metrics["trace.overhead_pct"] = median(overhead)
        harness.faults += tracer.apply_count_faults()
        tracer.write(OUT / f"{name}-seed{seed}.spans.jsonl")
    else:
        # mean time of each problem, summed over the problems; counts by median
        metrics = {"setup_s": setup_s}
        for (metric, _), v in samples.items():
            metrics[metric] = metrics.get(metric, 0) + (mean(v) if metric.endswith("_s") else median(v))
        metrics["peak_rss_mb"] = peak_rss_mb

    result = {"correct": not harness.faults, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}
    env = environment()
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "scale": harness.scale, "env": env,
                   "rounds": n_round,
                   "samples": {" / ".join(k): v for k, v in samples.items()}, "faults": harness.faults,
                   "result": result}, fh, indent=1)
    for fault in harness.faults:
        print(f"check failed: {fault}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0
