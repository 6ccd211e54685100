"""Spans around the calls into each rdvopt module, recorded from outside.

The tracer replaces a module's public function by a timing wrapper in
every rdvopt namespace that holds it, so a call is seen where it is
looked up (``rdvopt.postprocess.solve``, ``rdvopt.transcription
.time_from_true``, ...), not only where it is defined.  Nothing under
``src/`` changes; ``uninstall`` puts the originals back.

Spans are kept in memory as (request, name, start, end, parent) and
written out once, at the end of the run.  The solver's public ``trace=``
callback gives per-iteration times, also for ``inner_node_search``,
which does not forward a callback itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field

# The public functions a request calls across a module boundary, per layer.
TRACED = {
    "scenarios": ("load_scenario", "scenario_to_dict"),
    "kepler": ("time_from_true", "true_from_time"),
    "relative_dynamics": ("stm_in_plane", "stm_out_of_plane", "stm_full",
                          "to_transformed", "from_transformed"),
    "transcription": ("build_grid", "grid_from_nodes", "transform_boundaries",
                      "assemble_socp", "expand_solution"),
    "conic_solver": ("solve",),
    "postprocess": ("plan_rendezvous", "extract_impulses", "verify_plan",
                    "reconstruct_trajectory", "inner_node_search"),
    "cli": ("solution_document", "scenario_hash"),
}
LAYERS = tuple(TRACED)
REQUEST = "request"

_SOLVE = "conic_solver.solve"


@dataclass
class SolveRecord:
    request: int
    status: str
    iterations: int
    iter_starts: list = field(default_factory=list)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.solves: list[SolveRecord] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.request, name, 0.0, 0.0, parent])
        self._stack.append(idx)
        self.spans[idx][2] = time.perf_counter()
        return idx

    def _close(self, idx: int):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def run_request(self, request: int, fn, *args):
        """Call fn(*args) as one traced request; returns its result."""
        self.request = request
        idx = self._open(REQUEST)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.request = None

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _wrap_solve(self, fn):
        @functools.wraps(fn)
        def wrapper(problem, settings=None, trace=None):
            if self.request is None:
                return fn(problem, settings, trace=trace)
            starts: list[float] = []

            def record(rec: dict):
                if "mu" in rec:  # first record of each iteration
                    starts.append(time.perf_counter())
                if trace is not None:
                    trace(rec)

            idx = self._open(_SOLVE)
            try:
                sol = fn(problem, settings, trace=record)
            finally:
                self._close(idx)
            self.solves.append(SolveRecord(self.request, sol.status, sol.iterations, starts))
            return sol

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every traced function in every rdvopt namespace holding it."""
        import rdvopt

        namespaces = [rdvopt] + [importlib.import_module(f"rdvopt.{m}") for m in LAYERS]
        for layer, names in TRACED.items():
            module = importlib.import_module(f"rdvopt.{layer}")
            for fname in names:
                original = getattr(module, fname)
                span = f"{layer}.{fname}"
                wrapped = (self._wrap_solve(original) if span == _SOLVE
                           else self._wrap(span, original))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapped)
                            self._patched.append((ns, attr, original))

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def write(self, path):
        """Write the spans and solver records as one JSON document."""
        doc = {
            "spans": {"fields": ["request", "name", "start_s", "end_s", "parent"],
                      "rows": self.spans},
            "solves": [vars(s) for s in self.solves],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# -- reductions -------------------------------------------------------------


def exclusive_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    excl = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            excl[s[4]] -= s[3] - s[2]
    return excl


def outermost(spans, names) -> list[int]:
    """Indices of spans named in `names` with no ancestor also in `names`."""
    names = set(names)
    out = []
    for i, s in enumerate(spans):
        if s[1] not in names:
            continue
        p = s[4]
        while p >= 0 and spans[p][1] not in names:
            p = spans[p][4]
        if p < 0:
            out.append(i)
    return out
