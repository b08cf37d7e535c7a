"""eqtoeplitz benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's subcommand sequence
is driven through the eqtoeplitz CLI built from ``src/``; the seed is written
into the config's ``sampling.seed``.  Every subcommand runs with
``--threads 1`` and one BLAS thread.

--trace 0: end-to-end metrics.  setup_s is the median over several fresh
  interpreters that import ``eqtoeplitz.cli`` and load the config.  Then the
  sequence repeats, each subcommand as its own process, until --seconds are
  used; wall_s and peak_rss_mb are medians over those repetitions.  Peak RSS
  is read per child with os.wait4.
--trace 1: per-layer metrics.  One untraced repetition as processes, the
  thread-scaling probe where the workload asks for it, then in-process
  repetitions through ``eqtoeplitz.cli.main`` alternating untraced and
  traced (see tracer.py) until --seconds are used; per-layer values are
  medians over the traced repetitions.

Every output is checked (workloads.py).  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, check_output, cli_args, load_reference  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
#: the single-threaded baseline: one BLAS thread as well as --threads 1
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}

#: fresh interpreters timed for setup_s; the median also drops the one that
#: byte-compiles the package in a new checkout
SETUP_REPS = 3
#: repetitions of the sequence made even when --seconds is already used up
MIN_REPS = 2


class Run:
    """Operation counts and scratch directories of one benchmark run."""

    def __init__(self, workload, seed):
        self.wl = workload
        self.seed = seed
        self.reference = load_reference()
        self.attempted = 0
        self.failed = 0
        self._n = 0

    def fresh_dir(self):
        self._n += 1
        path = os.path.join(WORK, f"rep{self._n}")
        os.makedirs(path)
        config = os.path.join(path, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(self.wl.config_for(self.seed, path), fh)
        return path, config

    def record(self, cmd, code, out_dir, stdout):
        self.tally(check_output(self.wl, self.reference, cmd, code, out_dir, stdout))

    def tally(self, errors):
        """Count one operation, failed when it produced error messages."""
        self.attempted += 1
        self.failed += bool(errors)
        for err in errors:
            print(f"[{self.wl.name}] {err}", file=sys.stderr)


def _wait(argv, stdout_path):
    """Run argv to completion; return (exit code, wall s, rusage)."""
    with open(stdout_path, "w") as out, open(stdout_path + ".err", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC),
                                stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def time_setup(run):
    _, config = run.fresh_dir()
    code = "import sys, eqtoeplitz.cli as c; c.load_config(sys.argv[1])"
    argv = [sys.executable, "-c", code, config]
    times = []
    for _ in range(SETUP_REPS):
        rc, wall, _ = _wait(argv, os.path.join(WORK, "setup.out"))
        if rc != 0:
            run.tally([f"setup exited with code {rc}"])
        times.append(wall)
    return statistics.median(times)


def rep_processes(run):
    """The sequence once, each subcommand in a fresh interpreter."""
    out_dir, config = run.fresh_dir()
    rep = {"wall_s": 0.0, "peak_rss_mb": 0.0, "cpu_s": 0.0}
    for cmd in run.wl.sequence:
        stdout_path = os.path.join(out_dir, f"{cmd}.stdout")
        argv = [sys.executable, "-m", "eqtoeplitz.cli", *cli_args(cmd, config, out_dir)]
        code, wall, usage = _wait(argv, stdout_path)
        rep[f"cli.{cmd}_s"] = wall
        rep["wall_s"] += wall
        rep["cpu_s"] += usage.ru_utime + usage.ru_stime
        rep["peak_rss_mb"] = max(rep["peak_rss_mb"], usage.ru_maxrss / 1024.0)
        with open(stdout_path, encoding="utf-8") as fh:
            run.record(cmd, code, out_dir, fh.read())
    shutil.rmtree(out_dir)
    return rep


def rep_in_process(run, main):
    """The sequence once through cli.main in this interpreter; wall seconds."""
    out_dir, config = run.fresh_dir()
    wall = 0.0
    for cmd in run.wl.sequence:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = main(cli_args(cmd, config, out_dir))
        except Exception:
            traceback.print_exc()
            code = -1
        wall += time.perf_counter() - t0
        run.record(cmd, code, out_dir, buf.getvalue())
    shutil.rmtree(out_dir)
    return wall


def repeat(step, seconds, min_reps):
    """Call step() until `seconds` would be exceeded by one more call."""
    t_start = time.perf_counter()
    results, durations = [], []
    while True:
        t0 = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - t0)
        projected = time.perf_counter() - t_start + statistics.median(durations)
        if len(results) >= min_reps and projected > seconds:
            return results


def _median(reps, key):
    return statistics.median(r[key] for r in reps)


def timed_run(run, seconds):
    setup = time_setup(run)
    reps = repeat(lambda: rep_processes(run), seconds, MIN_REPS)
    return {
        "setup_s": (setup, "s"),
        "wall_s": (_median(reps, "wall_s"), "s"),
        "peak_rss_mb": (_median(reps, "peak_rss_mb"), "MiB"),
    }


def import_package():
    sys.path.insert(0, SRC)
    import eqtoeplitz.cli
    if not os.path.abspath(eqtoeplitz.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"eqtoeplitz imported from {eqtoeplitz.cli.__file__}, not {SRC}")
    return eqtoeplitz.cli


def thread_probe(run, cli):
    """Seconds of trace_sweep over the workload's levels with 1 and 2 threads."""
    from eqtoeplitz.toeplitz import trace_sweep
    _, config = run.fresh_dir()
    cfg = cli.load_config(config)
    args = (cfg.k_values(), cfg.varpi, cfg.observable(), cfg.symmetry(), cfg.action(),
            cfg.model())
    walls, traces = {}, {}
    for threads in (1, 2):
        t0 = time.perf_counter()
        series = trace_sweep(*args, threads=threads)
        walls[threads] = time.perf_counter() - t0
        traces[threads] = series.traces.tolist()
    ok = len(traces[1]) == len(run.wl.k_values()) and traces[1] == traces[2]
    run.tally([] if ok else ["trace_sweep with 2 threads does not reproduce the "
                             "1-thread levels"])
    return walls[1] / walls[2]


def traced_run(run, seconds):
    from tracer import Tracer, layer_metrics, uncovered

    t_start = time.perf_counter()
    procs = rep_processes(run)
    cli = import_package()
    speedup = thread_probe(run, cli) if run.wl.thread_probe else 0.0
    reps = []

    def pair():
        plain = rep_in_process(run, cli.main)
        tracer = Tracer()
        tracer.install()
        try:
            traced = rep_in_process(run, cli.main)
        finally:
            tracer.uninstall()
        run.tally([f"span coverage: {name} recorded no calls"
                   for name in uncovered(tracer, run.wl)])
        reps.append(layer_metrics(tracer, traced, plain, procs))

    repeat(pair, seconds - (time.perf_counter() - t_start), 1)
    metrics = {key: (statistics.median(r[key][0] for r in reps), reps[0][key][1])
               for key in reps[0]}
    metrics["toeplitz.trace_sweep.speedup_2t"] = (speedup, "ratio")
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description="eqtoeplitz benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "eqtoeplitz", "cli.py")):
        print(f"no eqtoeplitz sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)
    # turn SIGTERM into SystemExit so that running children are killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(WORKLOADS[args.workload], args.seed % 2 ** 32)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        measure = traced_run if args.trace else timed_run
        metrics = measure(run, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
