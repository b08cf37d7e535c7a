"""What the benchmark under perfbench/ uses of the package: the traced
functions, the thread option it passes, the workload configs, the span
coverage of each workload's sequence and the output checks of each
operation.  The benchmark files are only read here, so a rename, prune or
output change that would break the benchmark fails in this suite instead."""

import contextlib
import functools
import importlib
import importlib.util
import inspect
import io
import json
import os
import sys
import types

import pytest

from eqtoeplitz.config import parse_config
from eqtoeplitz.toeplitz import trace_sweep

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


tracer, workloads = load("tracer"), load("workloads")


@pytest.mark.parametrize("module,attribute", [t[:2] for t in tracer.TARGETS])
def test_traced_target_resolves(module, attribute):
    owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
    assert callable(functools.reduce(getattr, attribute.split("."), owner))


def test_trace_sweep_takes_threads():
    assert "threads" in inspect.signature(trace_sweep).parameters


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_config_parses(name, tmp_path):
    parse_config(workloads.WORKLOADS[name].config_for(0, str(tmp_path)))


def test_thread_probe_reads_the_loaded_config(tmp_path, monkeypatch):
    # `run.py --trace 1` sweeps p2-sweep's levels with 1 and 2 threads on
    # `cli.load_config(path)`, calling its k_values(), observable(),
    # symmetry(), action() and model(); importing run.py extends sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    run = load("run")
    wl = workloads.WORKLOADS["p2-sweep"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(wl.config_for(0, str(tmp_path))))
    errors = []
    probed = types.SimpleNamespace(wl=wl, fresh_dir=lambda: (str(tmp_path), str(config)),
                                   tally=errors.extend)
    cli = importlib.import_module(f"{tracer.PACKAGE}.cli")
    assert run.thread_probe(probed, cli) > 0 and errors == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_reaches_every_traced_layer(name, tmp_path):
    # the benchmark's traced run counts a wrapped function that records no
    # call, and is not idle for the workload, as a failed operation
    wl = workloads.WORKLOADS[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(wl.config_for(0, str(tmp_path))))
    # every layer is loaded before the wrappers go in, as after the untraced
    # repetition of the benchmark, so uninstall restores each name it bound
    for module, *_ in tracer.TARGETS:
        importlib.import_module(f"{tracer.PACKAGE}.{module}")
    spans = tracer.Tracer()
    spans.install()
    try:
        cli = importlib.import_module(f"{tracer.PACKAGE}.cli")
        codes = [cli.main(workloads.cli_args(cmd, str(config), str(tmp_path)))
                 for cmd in wl.sequence]
    finally:
        spans.uninstall()
    assert codes == [0] * len(wl.sequence)
    assert tracer.uncovered(spans, wl) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_outputs_pass_the_benchmark_checks(name, tmp_path):
    # the benchmark fails an operation whose exit code, files or stdout miss
    # perfbench/reference.json; seed 0 is the benchmark's first pair
    wl = workloads.WORKLOADS[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(wl.config_for(0, str(tmp_path))))
    cli = importlib.import_module(f"{tracer.PACKAGE}.cli")
    reference = workloads.load_reference()
    for cmd in wl.sequence:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(workloads.cli_args(cmd, str(config), str(tmp_path)))
        assert workloads.check_output(wl, reference, cmd, code, str(tmp_path),
                                      stdout.getvalue()) == [], cmd
