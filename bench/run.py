"""tvgmd benchmark: one workload, closed loop, one client, one process.

Run from the repository root::

    python3 bench/run.py --workload preset_graph --seed 1 --seconds 50 --trace 0

Workloads are defined in ``workloads.py`` and explained in ``README.md``.
``--trace 0`` runs jobs untraced for ``--seconds`` and reports the
end-to-end metrics. ``--trace 1`` runs whole cycles over the workload's
inputs, each input once untraced and once traced (the order alternates
between cycles), and reports the per-layer metrics and the tracing
overhead. The program is imported from ``src/`` next to this directory;
nothing is installed.

Informational lines start with ``#``; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Failed jobs are described on stderr. Without an importable
``src/tvgmd`` the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os
import sys
import time

# Single-threaded BLAS, set before numpy loads: default threads oversubscribe
# a small machine and make job times depend on what else runs on it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("preset_graph", "mvmd_cli")
# The machine is shared and its speed drifts: a fixed loop ran up to 2x
# slower from one 5-second window to the next, and identical jobs took
# 2.8 s to 5.6 s within one run. So every reported time is host-adjusted:
# scaled by a reference's time on a fast host over the reference's time
# measured alongside it. Each reference time is about the lowest seen on a
# 2-vCPU Intel Xeon VM, so adjusted times read as seconds on that host when
# it runs fastest.
#
# Jobs and in-process set-up are sampled: every SAMPLE_PERIOD_S a timer
# signal runs a short reference loop and times it. The adjusted time is the
# wall time, less the time spent in the loop, times REF_LOOP_S over the
# loop's mean time.
SAMPLE_PERIOD_S = 0.1
REF_LOOP_S = 5e-4
# A process imports the program once, so the import is timed in fresh
# interpreters, each between two runs of a reference interpreter importing a
# fixed set of standard-library modules. The reference tracked the program's
# import at a correlation of 0.94, where the sampling loop over-corrected it.
IMPORT_CODE = "import tvgmd.cli, tvgmd.decomposer, tvgmd.io_formats, tvgmd.synth"
REF_IMPORT_CODE = (
    "import argparse, asyncio, concurrent.futures, csv, dataclasses, decimal, "
    "email.mime.multipart, http.client, json, logging, sqlite3, ssl, tarfile, "
    "typing, unittest, xml.dom.minidom, zipfile")
REF_IMPORT_S = 0.14
# Set-up is repeated and its median reported, so one slow repetition
# (a cold file cache, a busy neighbour) does not decide setup_s.
SETUP_REPEATS = 5


def time_imports() -> list:
    """Host-adjusted seconds from starting a fresh interpreter until it has
    imported the program (numpy and scipy with it), once per set-up
    repetition."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        return time.perf_counter() - start

    reference = [run(REF_IMPORT_CODE)]
    times = []
    for _ in range(SETUP_REPEATS):
        program = run(IMPORT_CODE)
        reference.append(run(REF_IMPORT_CODE))
        times.append(program * REF_IMPORT_S / statistics.mean(reference[-2:]))
    return times


def import_program():
    """Import tvgmd from ``src/`` and the benchmark modules that use it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tvgmd

    if Path(tvgmd.__file__).resolve().parent != src / "tvgmd":
        raise ImportError(f"tvgmd was imported from {tvgmd.__file__}, not {src}")
    import tracer
    import workloads

    return workloads, tracer


class HostSampler:
    """Times a fixed reference loop of small numpy calls and Python
    bytecode, once on entry and then from a timer signal while active."""

    def __init__(self):
        import numpy

        self._numpy = numpy
        self._array = numpy.arange(28.0)
        self.samples: list = []

    def _loop(self, *_signal_args) -> None:
        start = time.perf_counter()
        total = 0.0
        for _ in range(100):
            total += float(self._numpy.maximum(self._array * 1.0001 + 0.5, 1.0).sum())
            total += sum([j * j for j in range(20)])
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "HostSampler":
        self.samples = []
        self._loop()
        self._previous = signal.signal(signal.SIGALRM, self._loop)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def adjust(self, elapsed: float) -> tuple[float, float]:
        """Wall time and host-adjusted time of the last sampled stretch,
        from ``elapsed``, measured around it."""
        wall = elapsed - sum(self.samples)
        return wall, wall * REF_LOOP_S / statistics.mean(self.samples)


@dataclass
class Tally:
    """Wall time and outcome of each job; host-adjusted times of sampled
    jobs."""

    times: list = field(default_factory=list)
    adjusted: list = field(default_factory=list)
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.times)


@contextlib.contextmanager
def workspace():
    """A scratch directory inside the checkout, removed afterwards."""
    parent = ROOT / ".bench_work"
    parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def run_job(workload, inp, workdir: Path, tally: Tally,
            sampler: HostSampler | None = None) -> None:
    """Run one job, time it, check its output untimed, book the outcome.
    With a sampler, the loop's time is taken off the job's wall time and
    the job's host-adjusted time is booked too."""
    output, errors = None, []
    start = time.perf_counter()
    try:
        with sampler or contextlib.nullcontext():
            output = workload.run(inp, workdir)
    except Exception:
        errors = [traceback.format_exc(limit=3)]
    elapsed = time.perf_counter() - start
    if not errors:
        try:
            errors = workload.check(inp, output)
        except Exception:
            errors = [traceback.format_exc(limit=3)]
    if sampler is not None:
        elapsed, adjusted = sampler.adjust(elapsed)
        tally.adjusted.append(adjusted)
    tally.times.append(elapsed)
    if errors:
        tally.failed += 1
        print(f"FAILED job on {inp.label}: {'; '.join(errors)}", file=sys.stderr)


def run_untraced(workload, inputs, seconds: float, workdir: Path) -> Tally:
    """Cycle through the inputs, each job sampled, until the next job would
    end past the deadline; at least one job runs."""
    tally = Tally()
    sampler = HostSampler()
    start = time.perf_counter()
    job = 0
    while True:
        run_job(workload, inputs[job % len(inputs)], workdir, tally, sampler)
        job += 1
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(tally.times) > seconds:
            return tally


def run_traced(workload, inputs, seconds: float, workdir: Path, tracer):
    """Whole cycles of (untraced, traced) pairs, at least one cycle, so
    per-job counts average over complete cycles and repeat exactly."""
    plain, traced = Tally(), Tally()
    start = time.perf_counter()
    cycles = 0
    while True:
        for inp in inputs:
            traced_first = cycles % 2 == 1
            for trace_on in (traced_first, not traced_first):
                if trace_on:
                    with tracer:
                        run_job(workload, inp, workdir, traced)
                else:
                    run_job(workload, inp, workdir, plain)
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed * (cycles + 1) / cycles > seconds:
            return plain, traced


def percentile_90(times: list) -> float:
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def end_to_end_metrics(tally: Tally, setup_s: float) -> dict:
    return {
        "job_adj_s": (statistics.median(tally.adjusted), "s"),
        "job_adj_s.p90": (percentile_90(tally.adjusted), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(job_tracer, setup_tracer, setups: int, plain: Tally,
                      traced: Tally) -> dict:
    jobs = traced.attempted
    counts = job_tracer.counts
    learner = job_tracer.span("graph_learner", "learn_graph_batch")
    problems = counts["graph_learner.problems"]
    sweeps = counts["graph_learner.sweeps"]
    runs = counts["decomposer.runs"]

    def per_job_s(stats):
        return (stats.total_s / jobs, "s/job")

    def per_job(value):
        return (value / jobs, "count/job")

    metrics = {
        "graph_learner.s": per_job_s(learner),
        "graph_learner.calls": per_job(learner.calls),
        "graph_learner.problems": per_job(problems),
        "graph_learner.inner_iters": per_job(counts["graph_learner.inner_iters"]),
        "graph_learner.capped": per_job(counts["graph_learner.capped"]),
        "graph_learner.converged_frac": (
            counts["graph_learner.converged"] / problems if problems else 0.0,
            "fraction"),
        "graph_learner.us_per_sweep": (
            1e6 * learner.total_s / sweeps if sweeps else 0.0, "us"),
        "decomposer.self_s": (job_tracer.layer("decomposer").self_s / jobs, "s/job"),
        "decomposer.iterations": per_job(counts["decomposer.iterations"]),
        "decomposer.converged_frac": (
            counts["decomposer.converged"] / runs if runs else 0.0, "fraction"),
        "spectral.s": per_job_s(job_tracer.layer("spectral")),
        "spectral.calls": per_job(job_tracer.layer("spectral").calls),
    }
    for name in ("geodesic_update", "pairwise_distances", "densify"):
        stats = job_tracer.span("graph_ops", name)
        metrics[f"graph_ops.{name}.s"] = per_job_s(stats)
        metrics[f"graph_ops.{name}.calls"] = per_job(stats.calls)
    objective = job_tracer.span("core", "objective_value")
    metrics["core.objective_value.s"] = per_job_s(objective)
    metrics["core.objective_value.calls"] = per_job(objective.calls)
    for name in ("write_result", "read_matrix_csv", "write_matrix_csv"):
        metrics[f"io_formats.{name}.s"] = per_job_s(job_tracer.span("io_formats", name))
    for name in ("bytes_written", "bytes_read"):
        metrics[f"io_formats.{name}"] = (counts[f"io_formats.{name}"] / jobs, "B/job")
    metrics["cli.decompose.s"] = per_job_s(job_tracer.span("cli", "decompose"))
    metrics["cli.inspect.s"] = per_job_s(job_tracer.span("cli", "inspect"))
    metrics["cli.self_s"] = (job_tracer.layer("cli").self_s / jobs, "s/job")
    metrics["synth.generate.s"] = (
        setup_tracer.span("synth", "generate").total_s / setups, "s/setup")
    metrics["trace.overhead_s"] = (
        statistics.median(traced.times) - statistics.median(plain.times), "s/job")
    metrics["trace.absent"] = (len(job_tracer.absent | setup_tracer.absent), "count")
    return metrics


def _blas_threads():
    """Thread count numpy's bundled OpenBLAS reports, or None."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args, workloads, tracer_mod, import_times: list,
            small: bool = False) -> dict:
    """Set up and run one workload; return the result object.
    ``import_times`` are the host-adjusted seconds a fresh interpreter took
    to import the program, one per set-up repetition."""
    workload = workloads.WORKLOADS[args.workload]
    with workspace() as workdir:
        # A traced set-up feeds synth.generate.s; an untraced one is
        # sampled and feeds setup_s.
        setup_tracer = tracer_mod.Tracer(tracer_mod.SETUP_TARGETS)
        sampler = HostSampler()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            with setup_tracer if args.trace else sampler:
                inputs = workload.setup(args.seed, workdir, small)
            elapsed = time.perf_counter() - start
            setup_times.append(elapsed if args.trace else sampler.adjust(elapsed)[1])

        if args.trace:
            job_tracer = tracer_mod.Tracer(tracer_mod.JOB_TARGETS)
            plain, traced = run_traced(workload, inputs, args.seconds, workdir,
                                       job_tracer)
            metrics = per_layer_metrics(job_tracer, setup_tracer, SETUP_REPEATS,
                                        plain, traced)
            absent = sorted(job_tracer.absent | setup_tracer.absent)
        else:
            plain = run_untraced(workload, inputs, args.seconds, workdir)
            traced = Tally()
            setup_s = statistics.median(import_times) + statistics.median(setup_times)
            metrics = end_to_end_metrics(plain, setup_s)
            absent = []

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": [inp.label for inp in inputs],
        "import_times_s": [round(t, 4) for t in import_times],
        "setup_times_s": [round(t, 4) for t in setup_times],
        "job_s": statistics.median(plain.times),
        "job_times_s": [round(t, 4) for t in plain.times],
        "adjusted_job_times_s": [round(t, 4) for t in plain.adjusted],
        "traced_job_times_s": [round(t, 4) for t in traced.times],
        "fail_frac": failed / attempted, "absent_trace_targets": absent,
        "machine": machine_info(),
    }
    print("# " + json.dumps(info))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads, tracer_mod = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    result = measure(args, workloads, tracer_mod, time_imports())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
