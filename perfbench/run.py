"""rdvopt benchmark: verified plans per second, with per-module timings.

    python3 perfbench/run.py --workload large-grid --seed 1 --seconds 24 --trace 0

Runs one workload (see workloads.py for why each exists) as a closed
loop from this single process with one client: each request is sent
after the previous one completed.  A run's requests are fixed by the
workload and the seed alone: the first two blocks of cases (one block
when traced).  --seconds sets how many times the whole set is repeated,
as many as last closest to it and once at least, so a faster program is
measured on the same scenarios, weighted alike.  Every request passes
the correctness gate outside the timed section.  The last line of standard output is one JSON object with keys
correct, attempted, failed and metrics; the lines before it list every
metric by name and unit, plus the machine.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each request
untraced, then traced, reports the per-layer metrics from the traced
requests and the tracing overhead against the untraced ones, and writes
the spans to perfbench/_run/.

Self-tests: python3 -m pytest perfbench/selftest.py -q

The program is imported from src/ of the checkout this file sits in,
never from an installed copy; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = HERE / "_run"

# Single-threaded BLAS: OpenBLAS's default of one thread per core made a
# 6-plan large-grid set spread 1.25-1.73 plans/s over four repeats on two
# cores, against 1.71-1.83 with one thread.
BLAS_THREADS = "1"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A percentile is reported only with this many samples beyond it.
_TAIL_BEYOND = 10
# Blocks of cases in the request set of a run, untraced and traced.
_BLOCKS = 2
_TRACED_BLOCKS = 1
_SETUP_REPEATS = 3


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one set-up in this process, print it and exit "
                         "(the benchmark runs this in child processes)")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _import_program():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import rdvopt

    if Path(rdvopt.__file__).resolve().parent != SRC / "rdvopt":
        sys.exit(f"error: rdvopt imported from {rdvopt.__file__}, not from {SRC}")


def _setup(workload_name: str, seed: int, directory: Path):
    """Import the program, write the scenarios, run one warm-up request."""
    _import_program()
    import workloads

    wl = workloads.WORKLOADS.get(workload_name)
    if wl is None:
        sys.exit(f"error: unknown workload {workload_name!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    cases = wl.write_cases(seed, 0, directory)
    workloads.run_request(cases[0], wl.kind)
    return wl


def _probe_setup(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": {v: os.environ.get(v) for v in _BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


class Loop:
    """Closed-loop client: requests one after another, each one gated
    after its timed section."""

    def __init__(self, wl, seed: int, directory: Path):
        import workloads

        self.wl, self.seed, self.directory = wl, seed, directory
        self.gate = workloads.Gate()
        self.latencies: list[float] = []
        self.failures: Counter = Counter()
        self.attempted = 0
        self.verified = 0
        self.wrong = 0

    def cases(self, block: int) -> list:
        """Write the scenarios of one block (untimed) and return its cases."""
        return self.wl.write_cases(self.seed, block, self.directory)

    def request(self, case, tracer=None) -> float:
        """Make, time and gate one request; returns its timed seconds.

        With a tracer the request runs traced; the gate never is.
        """
        import workloads

        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            if tracer is None:
                out = workloads.run_request(case, self.wl.kind)
            else:
                out = tracer.run_request(self.attempted, workloads.run_request,
                                         case, self.wl.kind)
            dt = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.latencies.append(dt)
        self.attempted += 1
        bad, wrong = self.gate.check(out)
        if bad:
            key = f"{case.path.stem}@{case.mesh_m}: {'; '.join(bad)}"
            self.failures[key] += 1
            self.wrong += wrong
        else:
            self.verified += 1
        return dt

    def request_set(self, n_blocks: int) -> list:
        """The cases of the first n_blocks blocks."""
        return [case for b in range(n_blocks) for case in self.cases(b)]

    def run(self, cases) -> float:
        """Run the cases untraced; returns their timed seconds."""
        return sum(self.request(case) for case in cases)


def _passes(seconds: float, pass_wall: float) -> int:
    """Whole passes over the request set closest to the run length, one at least."""
    return max(1, round(seconds / pass_wall))


def _tail(values: list[float], n_min: int) -> tuple[float, float, int]:
    """(value, percentile, beyond) of the tail latency.

    The percentile is the highest with at least ten samples beyond it in
    one pass, n_min samples; it stays fixed when a run holds more, so
    that runs of different length report the same percentile.  With two
    blocks of 11 cases that is p54.5, the upper median.
    """
    n = len(values)
    kept = n_min - _TAIL_BEYOND
    idx = -(-n * kept // n_min) - 1  # nearest rank, ceil(n * kept / n_min)
    return sorted(values)[idx], 100.0 * kept / n_min, n - 1 - idx


def measure(wl, seed: int, directory: Path, seconds: float,
            setups: list[float]) -> tuple[Loop, dict, list]:
    """End-to-end metrics over whole passes, tracing off."""
    import workloads

    loop = Loop(wl, seed, directory)
    # two blocks: twice the drawn scenarios, and a tail above the median
    cases = loop.request_set(_BLOCKS)
    t0 = time.perf_counter()
    timed = loop.run(cases)
    n_passes = _passes(seconds, time.perf_counter() - t0)
    for _ in range(1, n_passes):
        timed += loop.run(cases)
    tail, pct, beyond = _tail(loop.latencies, len(cases))
    failed = loop.attempted - loop.verified
    metrics = {
        "requests_per_s": (loop.verified / timed, "1/s"),
        "request_s.p50": (statistics.median(loop.latencies), "s"),
        "request_s.tail": (tail, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"failed_frac {failed / loop.attempted:.6g} ({failed} of {loop.attempted} requests, "
        f"{loop.wrong} of them with a wrong optimal plan)",
        f"request_s.tail is p{pct:.1f} of n={len(loop.latencies)} requests, "
        f"{beyond} beyond it",
        f"timed wall {timed:.3f} s over {n_passes} pass(es) of {len(cases)} requests",
        f"setup_s samples {', '.join(f'{s:.3f}' for s in setups)} s",
        f"postprocess.validate_fail {loop.gate.validate_fail} of {loop.attempted} "
        f"exported plans (rdvopt validate --tol {workloads.VALIDATE_TOL:g})",
    ]
    return loop, metrics, notes


def measure_traced(wl, seed: int, directory: Path, seconds: float,
                   out_path: Path) -> tuple[Loop, dict, list]:
    """Run each request untraced and traced; per-layer metrics from the traced."""
    import tracer as tr

    loop = Loop(wl, seed, directory)
    tracer = tr.Tracer()
    cases = loop.request_set(_TRACED_BLOCKS)

    def one_pass() -> list[tuple[float, float]]:
        # each request runs untraced, then traced, so drift in machine speed
        # falls on both sides of the overhead alike
        return [(loop.request(case), loop.request(case, tracer)) for case in cases]

    t0 = time.perf_counter()
    pairs = one_pass()
    for _ in range(1, _passes(seconds, time.perf_counter() - t0)):
        pairs += one_pass()
    untraced = sum(u for u, _ in pairs)
    traced = sum(t for _, t in pairs)
    n_traced = len(pairs)
    tracer.write(out_path)
    metrics, notes = layer_metrics(tracer, n_traced, traced)
    metrics["postprocess.validate_fail"] = (loop.gate.validate_fail / loop.attempted,
                                            "count/request")
    overhead = traced / untraced - 1.0
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    notes.append(f"tracing overhead {100 * overhead:+.2f}%: traced {traced:.3f} s vs "
                 f"untraced {untraced:.3f} s over the same {n_traced} requests")
    notes.append(f"spans written to {out_path}")
    return loop, metrics, notes


def layer_metrics(tracer, n_requests: int, traced_s: float) -> tuple[dict, list]:
    """Per-request means over the traced requests."""
    import tracer as tr

    spans = tracer.spans

    def total(*names) -> float:
        return sum(spans[i][3] - spans[i][2] for i in tr.outermost(spans, names)) / n_requests

    def calls(*names) -> float:
        return len(tr.outermost(spans, names)) / n_requests

    stm = ("relative_dynamics.stm_in_plane", "relative_dynamics.stm_out_of_plane",
           "relative_dynamics.stm_full")
    iter_s = [b - a for s in tracer.solves for a, b in zip(s.iter_starts, s.iter_starts[1:])]
    p10 = statistics.quantiles(iter_s, n=10)
    statuses = Counter(s.status for s in tracer.solves)
    request_s = traced_s / n_requests
    solve_s = total("conic_solver.solve")
    excl = tr.exclusive_times(spans)
    self_s = {layer: 0.0 for layer in tr.LAYERS}
    unaccounted = 0.0
    for s, x in zip(spans, excl):
        layer = s[1].split(".", 1)[0]
        if layer == tr.REQUEST:
            unaccounted += x
        else:
            self_s[layer] += x

    m = {
        "conic_solver.solve_s": (solve_s, "s"),
        "conic_solver.iter_s.p50": (statistics.median(iter_s), "s"),
        "conic_solver.iter_s.p90": (p10[8], "s"),
        "conic_solver.solve_share": (solve_s / request_s, "fraction"),
        "conic_solver.iters": (sum(s.iterations for s in tracer.solves) / len(tracer.solves),
                               "count/solve"),
        "conic_solver.non_optimal": ((len(tracer.solves) - statuses["optimal"])
                                     / n_requests, "count/request"),
        "transcription.grid_s": (total("transcription.build_grid",
                                       "transcription.grid_from_nodes"), "s"),
        "transcription.assemble_s": (total("transcription.assemble_socp"), "s"),
        "transcription.expand_s": (total("transcription.expand_solution"), "s"),
        "kepler.time_from_true_calls": (calls("kepler.time_from_true"), "count/request"),
        "kepler.time_from_true_s": (total("kepler.time_from_true"), "s"),
        "relative_dynamics.stm_calls": (calls(*stm), "count/request"),
        "relative_dynamics.stm_s": (total(*stm), "s"),
        "postprocess.extract_s": (total("postprocess.extract_impulses"), "s"),
        "postprocess.verify_s": (total("postprocess.verify_plan"), "s"),
        "postprocess.trajectory_s": (total("postprocess.reconstruct_trajectory"), "s"),
        "postprocess.solves_per_search": (len(tracer.solves) / n_requests, "count/request"),
        "scenarios.load_s": (total("scenarios.load_scenario"), "s"),
        "cli.document_s": (total("cli.solution_document"), "s"),
    }
    for layer in tr.LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer] / n_requests, "s")
    m["request.unaccounted_s"] = (unaccounted / n_requests, "s")
    notes = [
        f"per-request means over {n_requests} traced requests, {len(tracer.solves)} solves, "
        f"{len(iter_s)} solver iterations",
        f"conic_solver.solve_share base: solve_s {solve_s:.6g} s / traced request_s "
        f"{request_s:.6g} s",
        "conic_solver statuses: " + ", ".join(f"{k} {v}" for k, v in sorted(statuses.items())),
    ]
    return m, notes


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = _parse_args(argv)
    for var in _BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "rdvopt" / "__init__.py").is_file():
        print(f"error: no rdvopt sources under {SRC}", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUN_DIR, prefix="scenarios-") as tmp:
        wl = _setup(args.workload, args.seed, Path(tmp))
        setup_s = time.perf_counter() - t_start
        if args.setup_probe:
            print(f"{setup_s!r}")
            return 0
        env = _environment()
        if args.trace:
            out_path = RUN_DIR / f"trace-{wl.name}-seed{args.seed}.json"
            loop, metrics, notes = measure_traced(wl, args.seed, Path(tmp), args.seconds,
                                                  out_path)
        else:
            setups = [setup_s] + [_probe_setup(wl.name, args.seed)
                                  for _ in range(_SETUP_REPEATS - 1)]
            loop, metrics, notes = measure(wl, args.seed, Path(tmp), args.seconds, setups)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, {wl.block_size} requests per block")
    print("machine " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    for line in notes:
        print(f"  {line}")
    for key, count in loop.failures.items():
        print(f"  FAILED x{count}: {key}")
    failed = loop.attempted - loop.verified
    print(json.dumps({
        "correct": loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
