"""Workload definitions and output checks for the eqtoeplitz benchmark.

A workload is one experiment config plus the CLI subcommand sequence run on
it.  An operation is one subcommand together with its output checks; a
check failure fails the operation just as a non-zero exit does.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))

#: Monte-Carlo estimates must lie within this many of their own reported
#: standard errors of the reference value.
MC_SIGMAS = 5.0
#: Exact quantities (traces, kernel values, c_l, h_l) agree at rounding level.
EXACT_RTOL = 1e-9
EXACT_ATOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    sequence: tuple
    #: wrapped functions this workload never reaches; every other wrapped
    #: function must record at least one call in the traced run
    idle: frozenset = field(default_factory=frozenset)
    #: time trace_sweep with 1 and 2 threads in the traced run
    thread_probe: bool = False

    def k_values(self) -> list:
        kr = self.config["k_range"]
        return list(range(kr["min"], kr["max"] + 1, kr["step"]))

    def config_for(self, seed: int, out_dir: str) -> dict:
        doc = copy.deepcopy(self.config)
        doc["sampling"]["seed"] = seed
        doc["output_dir"] = out_dir
        return doc


def _u(beta, coef=1.0):
    return {"beta": list(beta), "coef": coef}


# Why each workload: see README.md.  The three load different layers:
# p2-sweep is basis/isotype enumeration and trace summation over many levels,
# d3-reduce is the reduction layer (sampling, Newton, diagnostics, f-bar
# Monte-Carlo, cache write then reads), d4-isotype is the trace layer bound
# by memory on a few huge levels.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="p2-sweep",
        config={
            "schema_version": 1, "model": {"d": 2}, "action": {"W": [[1, -1, -1]]},
            "symmetry": {"phi": [0.0, 1.1, 3.7]},
            "observable": {"u_terms": [_u([0, 1, 0])]},
            "isotype": [0], "k_range": {"min": 40, "max": 640, "step": 8},
            "sampling": {"n_samples": 200000, "seed": 0}, "fit": {"order": 3},
            "output_dir": "",
            "kernel_probe": {"type": "decay",
                             "point": [math.sqrt(0.8), math.sqrt(0.15), math.sqrt(0.05)],
                             "k_values": list(range(20, 301, 20))},
        },
        sequence=("analyze", "compare", "kernel"),
        idle=frozenset({"cache.get", "cache.put", "selftest.run_selftest"}),
        thread_probe=True,
    ),
    Workload(
        name="d3-reduce",
        config={
            "schema_version": 1, "model": {"d": 3},
            "action": {"W": [[1, 0, -1, 2], [0, 1, -1, -1]]},
            # phi = theta . W with theta = (0.3, 0.5): the symmetry fixes all
            # of M0, one d_l = 1 component whose f-bar is Monte-Carlo.
            "symmetry": {"phi": [0.3, 0.5, -0.8, 0.1]},
            "observable": {"u_terms": [_u([0, 1, 0, 0]), _u([1, 0, 0, 1], 0.5)]},
            "isotype": [0, 0], "k_range": {"min": 30, "max": 120, "step": 6},
            "sampling": {"n_samples": 262144, "seed": 0}, "fit": {"order": 2},
            "output_dir": "",
        },
        sequence=("analyze", "predict", "compare", "selftest"),
        idle=frozenset({"asymptotics.decay_probe"}),
    ),
    Workload(
        name="d4-isotype",
        config={
            "schema_version": 1, "model": {"d": 4},
            "action": {"W": [[1, 0, -1, 2, -2], [0, 1, -1, -1, 1]]},
            "symmetry": {"phi": [0.0, 0.7, 1.9, 2.6, 0.3]},
            "observable": {"u_terms": [_u([0, 1, 0, 0, 0])]},
            "isotype": [0, 0], "k_range": {"min": 84, "max": 100, "step": 8},
            "sampling": {"n_samples": 200000, "seed": 0},
            "output_dir": "",
        },
        sequence=("trace",),
        idle=frozenset({
            "geometry.sample_sphere", "symmetry.equivariant_kernel_pairs",
            "reduction.check_regular_and_free", "reduction.zero_locus_sample",
            "reduction.reduced_space_integral", "reduction.effective_volume",
            "reduction.find_fixed_components", "reduction.component_invariants",
            "reduction.f_bar_integral", "intlinalg.smith_normal_form",
            "cache.get", "cache.put", "asymptotics.decay_probe",
            "asymptotics.compare_and_fit", "asymptotics.prediction",
            "selftest.run_selftest"}),
    ),
)}


def cli_args(cmd: str, config_path: str, out_dir: str) -> list:
    if cmd == "selftest":
        return ["selftest", "--out", out_dir]
    return [cmd, "--config", config_path, "--threads", "1"]


# ---------------------------------------------------------------------------
# output parsing

def read_csv(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def read_report(path) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln in fh:
            name, sep, val = ln.partition(": ")
            if sep:
                out[name.strip()] = val.strip()
    return out


def cplx(row: dict, stem: str) -> complex:
    return complex(float(row[stem + "_re"]), float(row[stem + "_im"]))


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# checks: each returns a list of failure messages (empty when correct)

def _close(a: complex, b: complex) -> bool:
    return abs(a - b) <= EXACT_RTOL * abs(b) + EXACT_ATOL


def _exact_series(what: str, got, want) -> list:
    if len(got) != len(want):
        return [f"{what}: {len(got)} values, reference has {len(want)}"]
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if not _close(a, b)]
    return [f"{what}: {len(bad)} values differ from the reference, first at row "
            f"{bad[0]}: {got[bad[0]]!r} vs {want[bad[0]]!r}"] if bad else []


def _mc(what: str, est: float, stderr: float, ref: float) -> list:
    if abs(est - ref) <= MC_SIGMAS * stderr:
        return []
    return [f"{what} = {est!r} +- {stderr!r} is more than {MC_SIGMAS:g} sigma "
            f"from the reference {ref!r}"]


def _levels(what: str, rows: list, wl: Workload) -> list:
    ks = [int(r["k"]) for r in rows]
    if ks != wl.k_values():
        return [f"{what}: {len(ks)} rows do not match the {len(wl.k_values())} "
                f"configured levels"]
    return []


def _complex_list(pairs) -> list:
    return [complex(re_, im_) for re_, im_ in pairs]


def _pred_per_fbar(rows: list, out_dir: str) -> list:
    fbar = cplx(read_csv(os.path.join(out_dir, "components.csv"))[0], "f_bar")
    return [cplx(r, "pred") / fbar for r in rows]


def check_analyze(wl, ref, out_dir, stdout) -> list:
    errs = []
    rep = read_report(os.path.join(out_dir, "reduction_report.txt"))
    for key, want in ref["report"].items():
        if rep.get(key) != want:
            errs.append(f"reduction_report {key} = {rep.get(key)!r}, expected {want!r}")
    errs += _mc("vol_M0", float(rep["vol_M0"]), float(rep["vol_M0_stderr"]), ref["vol_M0"])
    rows = read_csv(os.path.join(out_dir, "components.csv"))
    if len(rows) != len(ref["components"]):
        return errs + [f"components.csv: {len(rows)} components, expected "
                       f"{len(ref['components'])}"]
    for row, want in zip(rows, ref["components"]):
        for key in ("support", "d_l", "codim", "stab_order"):
            if row[key] != want[key]:
                errs.append(f"component {want['support']}: {key} = {row[key]!r}, "
                            f"expected {want[key]!r}")
        for stem in ("c_l", "h_l", "chi"):
            errs += _exact_series(f"component {want['support']} {stem}",
                                  [cplx(row, stem)], _complex_list([want[stem]]))
        fbar, fref = cplx(row, "f_bar"), complex(*want["f_bar"])
        if want["f_bar_stderr"] == 0.0:
            errs += _exact_series(f"component {want['support']} f_bar", [fbar], [fref])
        else:
            errs += _mc(f"component {want['support']} f_bar", fbar.real,
                        float(row["f_bar_stderr"]), fref.real)
    return errs


def check_trace(wl, ref, out_dir, stdout) -> list:
    rows = read_csv(os.path.join(out_dir, "trace.csv"))
    errs = _levels("trace.csv", rows, wl)
    errs += _exact_series("trace.csv trace", [cplx(r, "trace") for r in rows],
                          _complex_list(ref["traces"]))
    if [int(r["dim"]) for r in rows] != ref["dims"]:
        errs.append("trace.csv: isotype dimensions differ from the reference")
    return errs


def check_predict(wl, ref, out_dir, stdout) -> list:
    rows = read_csv(os.path.join(out_dir, "predictions.csv"))
    return _levels("predictions.csv", rows, wl) + _exact_series(
        "predictions.csv prediction / f_bar", _pred_per_fbar(rows, out_dir),
        _complex_list(ref["pred_per_fbar"]))


def check_compare(wl, ref, out_dir, stdout) -> list:
    path = os.path.join(out_dir, "comparison.csv")
    rows = read_csv(path)
    errs = _levels("comparison.csv", rows, wl)
    if "comparison_sha256" in ref:
        if sha256_file(path) != ref["comparison_sha256"]:
            errs.append("comparison.csv is not byte-identical to the reference")
        return errs
    errs += _exact_series("comparison.csv trace", [cplx(r, "trace") for r in rows],
                          _complex_list(ref["traces"]))
    errs += _exact_series("comparison.csv prediction / f_bar",
                          _pred_per_fbar(rows, out_dir), _complex_list(ref["pred_per_fbar"]))
    return errs


def check_kernel(wl, ref, out_dir, stdout) -> list:
    rows = read_csv(os.path.join(out_dir, "kernel_decay.csv"))
    errs = []
    if [int(r["k"]) for r in rows] != wl.config["kernel_probe"]["k_values"]:
        errs.append("kernel_decay.csv: k values differ from the probe config")
    return errs + _exact_series("kernel_decay.csv abs_kernel",
                                [float(r["abs_kernel"]) for r in rows], ref["abs_kernel"])


def check_selftest(wl, ref, out_dir, stdout) -> list:
    m = re.search(r"^selftest: (\d+)/(\d+) passed", stdout, re.MULTILINE)
    if not m or m.group(1) != m.group(2):
        return ["selftest did not report every invariant passed"]
    return []


CHECKS = {"analyze": check_analyze, "trace": check_trace, "predict": check_predict,
          "compare": check_compare, "kernel": check_kernel, "selftest": check_selftest}


def check_output(wl: Workload, reference: dict, cmd: str, code: int, out_dir: str,
                 stdout: str) -> list:
    """Failure messages for one operation: its exit code and its outputs."""
    if code != 0:
        return [f"{cmd} exited with code {code}"]
    try:
        return CHECKS[cmd](wl, reference[wl.name], out_dir, stdout)
    except (OSError, KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"{cmd}: unreadable output ({type(exc).__name__}: {exc})"]
