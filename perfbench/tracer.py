"""Spans around the library's public entry points, kept in memory (--trace 1).

The wrappers are installed from the benchmark's side by replacing module and
class attributes, and removed again with uninstall(); the library itself is
not changed. Each span records its name, start, end, parent span and the
benchmark round it belongs to (-1 for set-up).
"""

from __future__ import annotations

import functools
import json
import time
from statistics import median

from rtkrylov import cli, krylov, multidim, operator, presets, spectrum, transfer

# (owner, attribute, span name, optional count taken from the result)
ENTRY_POINTS = [
    (presets, "build", "presets.build", None),
    (multidim, "trace_rays", "multidim.trace", lambda fam: fam.n_nodes),
    (multidim, "build_interpolators", "multidim.interp", None),
    (transfer.TransferOperator, "apply_space_major", "transfer.apply", None),
    (multidim.TransferOperator2D, "apply_space_major", "transfer.apply", None),
    (operator, "apply_scattering", "scattering.apply", None),
    (operator, "apply_A", "operator.apply", None),
    (cli, "apply_A", "operator.apply", None),
    (operator, "build_rhs", "operator.build_rhs", None),
    (cli, "build_rhs", "operator.build_rhs", None),
    (krylov, "solve_system", "krylov.solve", lambda rep: rep.iterations),
    (cli, "solve_system", "krylov.solve", lambda rep: rep.iterations),
    (spectrum, "compute_spectrum", "spectrum.compute", None),
    (spectrum, "materialize_A", "operator.materialize", None),
    (cli, "main", "cli.main", None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.round = -1
        self._stack = []
        self._originals = []

    def install(self):
        for owner, attr, name, count in ENTRY_POINTS:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "round": self.round}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span["count"] = count(result)
            return result
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def apply_count_faults(self) -> list:
        """Every A apply runs exactly one transfer and one scattering apply."""
        children = {}
        for span in self.spans:
            parent = span["parent"]
            if parent is not None and self.spans[parent]["name"] == "operator.apply":
                children.setdefault(parent, []).append(span["name"])
        bad = [i for i, s in enumerate(self.spans) if s["name"] == "operator.apply"
               and sorted(children.get(i, [])) != ["scattering.apply", "transfer.apply"]]
        return [f"{len(bad)} A applies without exactly one transfer and one scattering apply"] if bad else []

    def layer_metrics(self) -> dict:
        """Per-layer totals: set-up build for multidim.*, median over traced rounds otherwise."""
        rounds = sorted({s["round"] for s in self.spans if s["round"] >= 0})
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]

        def per_round(r):
            spans = [(i, s) for i, s in enumerate(self.spans) if s["round"] == r]
            total = lambda n: sum(s["end"] - s["start"] for _, s in spans if s["name"] == n)
            own = lambda n: sum(s["end"] - s["start"] - child_time[i] for i, s in spans if s["name"] == n)
            applies = lambda n: sum(1 for _, s in spans if s["name"] == n)
            in_krylov = sum(1 for _, s in spans if s["name"] == "operator.apply"
                            and self.spans[s["parent"]]["name"] == "krylov.solve")
            iters = sum(s["count"] for _, s in spans if s["name"] == "krylov.solve")
            return {
                "transfer.apply_s": total("transfer.apply"),
                "transfer.applies": applies("transfer.apply"),
                "scattering.apply_s": total("scattering.apply"),
                "scattering.applies": applies("scattering.apply"),
                "operator.apply_s": total("operator.apply"),
                "operator.applies": applies("operator.apply"),
                "krylov.self_s": own("krylov.solve"),
                "krylov.applies_per_iteration": in_krylov / iters,
                "operator.materialize_s": total("operator.materialize"),
                "spectrum.eig_s": own("spectrum.compute"),
                "cli.write_s": own("cli.main"),
            }

        per = [per_round(r) for r in rounds]
        out = {k: median(p[k] for p in per) for k in per[0]}
        setup = [s for s in self.spans if s["round"] == -1]
        out["multidim.trace_s"] = sum(s["end"] - s["start"] for s in setup if s["name"] == "multidim.trace")
        out["multidim.interp_s"] = sum(s["end"] - s["start"] for s in setup if s["name"] == "multidim.interp")
        out["multidim.line_nodes"] = sum(s["count"] for s in setup if s["name"] == "multidim.trace")
        return out
