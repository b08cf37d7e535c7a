"""What the benchmark under perfbench/ uses of the package: the traced
functions, the thread option it passes and the workload configs.  The
benchmark files are only read here, so a rename or prune that would break
the traced run fails in this suite instead."""

import functools
import importlib
import importlib.util
import inspect
import os
import sys

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
