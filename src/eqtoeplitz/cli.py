"""Batch experiment driver.

Subcommands: analyze | trace | predict | compare | kernel | selftest.
Exit codes: 0 success, 2 config error, 3 reduction-hypothesis violation,
4 numeric failure.  All tabular outputs are CSV with 17-significant-digit
floats; two runs with the same config and seed are byte-identical.

Each subcommand imports the layers it runs when it runs, so a process loads
only those: `trace` never loads the reduction, asymptotics, selftest or
cache modules.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from . import __version__
from ._intlinalg import NumericFailure, ProbeDomainError, ReductionHypothesisError
from .config import (FLIPPABLE_PINS, PINNED, ConfigError, ExperimentConfig,
                     load_config as read_config)
from .geometry import SAMPLER, check_slice_budget
from .iotools import write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_NUMERIC = 4

#: most worker threads: `ThreadPoolExecutor`'s own default ceiling
MAX_THREADS = 32
#: most levels one subcommand visits, from k_range or kernel_probe.k_values:
#: the d = 1 sweep k = 1..10,000 takes ~14 s for `trace` or `compare` and
#: ~0.5 s for `predict`; a level's work grows with k (2-vCPU Xeon)
MAX_LEVELS = 10_000

#: the one prediction route: the leading term summed over fixed components
METHOD = "fixed-component-sum"


def _configured(name: str, cmd):
    """The subcommand `name`: check --threads, load the config (with the
    --seed override), create the output directory, run cmd(cfg, out, args)
    and merge its artifacts, its work counters and the wall time into
    <out>/run_record.json.

    Subcommands run on the same config accumulate in one record, which
    holds that config and the timings and counters keyed by subcommand; a
    different config, or an unreadable record (a field of the wrong type
    too), starts a new one."""
    def run(args) -> int:
        t0 = time.perf_counter()
        if not 1 <= args.threads <= MAX_THREADS:
            raise ConfigError(f"--threads must be in 1..{MAX_THREADS}, got {args.threads}")
        cfg = read_config(args.config, args.seed)
        out = args.out or cfg.output_dir
        os.makedirs(out, exist_ok=True)
        artifacts, counters = cmd(cfg, out, args)
        seconds = time.perf_counter() - t0
        path = os.path.join(out, "run_record.json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                old = json.load(fh)
        except (OSError, ValueError):
            old = {}
        kinds = {"artifacts": list, "timings_seconds": dict, "counters": dict}
        if not isinstance(old, dict) or old.get("config") != cfg.raw \
                or not all(isinstance(old.get(key, kind()), kind) for key, kind in kinds.items()) \
                or not all(isinstance(a, str) for a in old.get("artifacts", [])):
            old = {}
        record = {
            "config": cfg.raw,
            "calibration": PINNED.to_dict(),
            "artifacts": sorted(set(old.get("artifacts", [])) | set(artifacts)),
            "versions": {
                "package": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "timings_seconds": {**old.get("timings_seconds", {}), name: seconds},
            "counters": {**old.get("counters", {}), **({name: counters} if counters else {})},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
        return EXIT_OK
    return run


def _components(cfg: ExperimentConfig, out: str, sample=None) -> list:
    """Every fixed component with its invariants and f-bar integral; the
    Monte-Carlo integrals are cached under <out>/cache.  `sample`, the
    diagnostics' zero-locus sample, is reused by a component of its support.
    A cache key holds the config sections the integral depends on and the
    sampler's name."""
    from .reduction import (component_invariants, f_bar_integral, f_bar_is_sampled,
                            find_fixed_components)

    model, action, sym, f = cfg.model, cfg.action, cfg.symmetry, cfg.observable
    comps = []
    for rep in find_fixed_components(action, sym, model):
        rep = component_invariants(rep, sym, action, model)
        fill = lambda: f_bar_integral(rep, f, action, model, cfg.n_samples, cfg.seed,
                                      sample=sample)
        if not f_bar_is_sampled(rep, action, model):
            comps.append(fill())
            continue
        from .cache import Cache

        key = {
            "purpose": "f_bar_integral",
            "config": {s: cfg.raw[s] for s in ("model", "action", "symmetry", "observable")},
            "support": list(rep.support),
            "n_samples": cfg.n_samples,
            "seed": cfg.seed,
            "sampler": SAMPLER,
        }

        def compute():
            val = fill()
            return {"re": val.f_bar_integral.real, "im": val.f_bar_integral.imag,
                    "stderr": val.f_bar_stderr}
        val = Cache(os.path.join(out, "cache")).get_or_compute(key, compute)
        comps.append(replace(rep, f_bar_integral=complex(val["re"], val["im"]),
                             f_bar_stderr=val["stderr"]))
    return comps


def _predictions(cfg: ExperimentConfig, out: str, ks):
    """The predictions at levels ks and the components they sum over."""
    from .asymptotics import TracePrediction

    pred = TracePrediction(tuple(_components(cfg, out)), cfg.varpi)
    return np.array([pred(k) for k in ks], dtype=complex), pred.reports


def cmd_analyze(cfg: ExperimentConfig, out: str, args) -> list:
    """reduction_report.txt on every hypothesis outcome; components.csv only
    when the hypotheses hold (else exit 3 after the report)."""
    from .reduction import check_regular_and_free, vanishing_level

    diagnostics, sample = check_regular_and_free(cfg.action, cfg.model,
                                                 n_samples=cfg.n_samples, seed=cfg.seed)
    lines = ["reduction diagnostics", "====================="]
    for name, val in sorted(vars(diagnostics).items()):
        lines.append(f"{name}: {val}")
    artifacts, eigenvalues = ["reduction_report.txt"], {}
    if diagnostics.empty_locus:
        lines.append("")
        lines.append("empty zero locus: twisted operators vanish identically for k >= k0;")
        k0 = vanishing_level(cfg.action, cfg.varpi)
        lines.append(f"k0 (weight-range bound for the configured isotype): {k0}")
    elif not diagnostics.regular_value:
        _write_report(out, lines)
        raise ReductionHypothesisError(
            "0 is not a regular value: a vertex stratum of the zero locus has a "
            "continuous stabilizer; see reduction_report.txt")
    else:
        comps = _components(cfg, out, sample)
        rows = []
        for c in comps:
            chi, support = c.chi(cfg.varpi), ";".join(str(j) for j in c.support)
            eigenvalues[support] = [[z.real, z.imag] for z in c.normal_eigenvalues.tolist()]
            rows.append([support, c.d_l, c.codim,
                         c.stab_order,
                         c.c_l.real, c.c_l.imag, abs(c.c_l - c.c_l_exact),
                         c.h_l.real, c.h_l.imag, chi.real, chi.imag,
                         c.f_bar_integral.real, c.f_bar_integral.imag,
                         c.f_bar_stderr, int(c.suspected_nongeneric)])
        write_csv(os.path.join(out, "components.csv"),
                  ["support", "d_l", "codim", "stab_order", "c_l_re", "c_l_im",
                   "c_l_cross_check", "h_l_re", "h_l_im", "chi_re", "chi_im",
                   "f_bar_re", "f_bar_im", "f_bar_stderr", "suspected_nongeneric"],
                  rows)
        artifacts.append("components.csv")
        lines.append(f"fixed components: {len(comps)} (see components.csv)")
    _write_report(out, lines)
    return artifacts, {"normal_eigenvalues": eigenvalues}


def _write_report(out, lines):
    with open(os.path.join(out, "reduction_report.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))


def _check_levels(cfg: ExperimentConfig, ks, walk=True):
    """Refuse, before any level is visited, more than `MAX_LEVELS` levels ks,
    then, when walk, a top level whose slice walk is over its row budget."""
    if len(ks) > MAX_LEVELS:
        raise NumericFailure(f"{len(ks)} levels, over the budget of {MAX_LEVELS}")
    if walk:
        check_slice_budget(max(ks), cfg.action.W, cfg.varpi)


def _complete_sweep(cfg: ExperimentConfig, threads: int):
    """Exact traces over every configured level, after `_check_levels`;
    any failed level is a numeric failure, so no output is ever written over
    a gapped series."""
    from .toeplitz import trace_sweep

    series = trace_sweep(cfg.levels, cfg.varpi, cfg.observable, cfg.symmetry, cfg.action,
                         cfg.model, threads=threads)
    if series.failures:
        for k, err in series.failures:
            print(f"level {k} failed: {err}", file=sys.stderr)
        raise NumericFailure("trace sweep failed at levels "
                             + ", ".join(str(k) for k, _ in series.failures))
    return series


def _slice_counters(series) -> dict:
    """The sweep's weight-slice rows, the lattice points walked for them and
    the blocks their traces were summed in."""
    return {"slice_rows": sum(r.dim_isotype for r in series.records),
            "slice_points_walked": sum(r.points_walked for r in series.records),
            "slice_blocks": sum(r.blocks for r in series.records)}


def cmd_trace(cfg: ExperimentConfig, out: str, args) -> list:
    _check_levels(cfg, cfg.levels)
    series = _complete_sweep(cfg, args.threads)
    series.to_csv(os.path.join(out, "trace.csv"))
    nonzero = [r for r in series.records if r.dim_isotype > 0]
    print(f"trace sweep: {len(series.records)} levels, {len(nonzero)} with "
          f"nonempty isotype -> trace.csv")
    return ["trace.csv"], _slice_counters(series)


def cmd_predict(cfg: ExperimentConfig, out: str, args) -> list:
    ks = cfg.levels
    _check_levels(cfg, ks, walk=False)      # the prediction walks no slice
    vals, _ = _predictions(cfg, out, ks)
    rows = [[k, v.real, v.imag, METHOD] for k, v in zip(ks, vals)]
    write_csv(os.path.join(out, "predictions.csv"),
              ["k", "pred_re", "pred_im", "method"], rows)
    print(f"predictions: {len(ks)} levels via {METHOD} -> predictions.csv")
    return ["predictions.csv"], {}


def cmd_compare(cfg: ExperimentConfig, out: str, args) -> list:
    from .asymptotics import compare_and_fit, identity_roots

    ks = cfg.levels
    _check_levels(cfg, ks)
    preds, comps = _predictions(cfg, out, ks)
    # an identity with too many unknowns is refused before the sweep
    roots = identity_roots(comps, cfg.action, cfg.observable, ks) if comps else []
    series = _complete_sweep(cfg, args.threads)
    rows = []
    for rec, p in zip(series.records, preds):
        t = rec.trace
        ratio = abs(t) / abs(p) if p != 0 else math.inf
        phase = float(np.angle(t * np.conj(p))) if p != 0 else 0.0
        rows.append([rec.k, t.real, t.imag, complex(p).real, complex(p).imag,
                     ratio, phase])
    write_csv(os.path.join(out, "comparison.csv"),
              ["k", "trace_re", "trace_im", "pred_re", "pred_im", "abs_ratio",
               "phase_err"], rows)
    artifacts = ["comparison.csv"]
    summary = [f"comparison over {len(ks)} levels (prediction: {METHOD})"]
    fit = compare_and_fit(series, preds, comps, roots, cfg.action, cfg.observable)
    if fit is not None:
        diffs = np.abs(series.traces - preds)
        held = "fails" if fit.k_star is None else f"holds from k* = {fit.k_star}"
        summary += [f"max |trace - prediction| = {diffs.max():.6e}",
                    f"identity: {fit.unknowns} unknowns, design condition {fit.condition:.3e}",
                    f"identity {held}: largest miss {fit.miss:.3e} of max |D(k) trace(k)|, "
                    "fitted on levels {}..{}".format(*fit.window),
                    f"leading-coefficient gap {fit.leading_gap:.3e} of the top level's "
                    "unaveraged prediction"]
        summary += [f"  trace-side f-bar of component {';'.join(map(str, S))}: "
                    f"{side.real:.17g} {side.imag:+.3e}j (prediction's {f_bar.real:.17g})"
                    for S, f_bar, side in fit.f_bar_trace]
        with open(os.path.join(out, "fit_report.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(summary) + "\n")
        artifacts.append("fit_report.txt")
    print("\n".join(summary))
    return artifacts, _slice_counters(series)


def cmd_kernel(cfg: ExperimentConfig, out: str, args) -> list:
    from .asymptotics import ScalingProbe, decay_probe, scaling_probe

    probe = cfg.kernel_probe
    if probe is None:
        raise ConfigError("kernel subcommand needs a kernel_probe config section")
    model, action, ks = cfg.model, cfg.action, probe["k_values"]
    _check_levels(cfg, ks)
    if probe["type"] == "decay":
        res = decay_probe(probe["point"], probe["second_point"], cfg.varpi, action, model, ks)
        rows = [[int(k), float(v)] for k, v in zip(res.k_values, res.abs_values)]
        write_csv(os.path.join(out, "kernel_decay.csv"), ["k", "abs_kernel"], rows)
        print(f"decay probe: fitted log-log slope {res.slope:.3f}"
              + (" (values floored at 1e-300)" if res.floored else ""))
        return ["kernel_decay.csv"], {}
    rows_out = scaling_probe(ScalingProbe(x=probe["point"], w=probe["displacement_w"],
                                          v=probe["displacement_v"], k_values=tuple(ks)),
                             cfg.varpi, action, model)
    rows = [[r.k, r.exact.real, r.exact.imag, r.predicted.real, r.predicted.imag,
             r.abs_ratio, r.phase_err] for r in rows_out]
    write_csv(os.path.join(out, "kernel_scaling.csv"),
              ["k", "exact_re", "exact_im", "pred_re", "pred_im", "abs_ratio",
               "phase_err"], rows)
    print("scaling probe: " + ", ".join(
        f"k={r.k} ratio={r.abs_ratio:.4f}" for r in rows_out))
    return ["kernel_scaling.csv"], {}


def load_config(path):
    """The config at path as `perfbench/run.py`'s thread probe reads it, the
    levels and layer objects behind calls (ROADMAP item 1a drops this)."""
    cfg = read_config(path)
    return SimpleNamespace(varpi=cfg.varpi, k_values=lambda: list(cfg.levels),
                           model=lambda: cfg.model, action=lambda: cfg.action,
                           symmetry=lambda: cfg.symmetry, observable=lambda: cfg.observable)


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    t0 = time.perf_counter()
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    results, record = run_selftest(flip_pin=args.debug_flip_pin)
    width = max(len(r.name) for r in results)
    failed = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name.ljust(width)}  {r.seconds:7.2f}s  {r.detail}")
        if not r.passed:
            failed.append(r.name)
    with open(os.path.join(out, "calibration_record.json"), "w", encoding="utf-8") as fh:
        json.dump(record.to_dict(results), fh, indent=2, sort_keys=True)
    print(f"calibration record -> {os.path.join(out, 'calibration_record.json')}")
    print(f"selftest: {len(results) - len(failed)}/{len(results)} passed "
          f"in {time.perf_counter() - t0:.1f}s")
    if failed:
        print("failed invariants: " + ", ".join(failed))
        return EXIT_NUMERIC
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="eqtoeplitz",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name, cmd in (("analyze", cmd_analyze), ("trace", cmd_trace),
                      ("predict", cmd_predict), ("compare", cmd_compare),
                      ("kernel", cmd_kernel)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to the JSON config")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--seed", type=int, default=None, help="seed override")
        sp.add_argument("--threads", type=int, default=1, help=f"worker threads, 1..{MAX_THREADS}")
        sp.set_defaults(func=_configured(name, cmd))

    sp = sub.add_parser("selftest")
    sp.add_argument("--out", default=None)
    sp.add_argument("--debug-flip-pin", choices=FLIPPABLE_PINS, default=None,
                    help="force one pinned convention wrong (negative control)")
    sp.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ProbeDomainError) as exc:
        # only `kernel` runs a probe, on points and displacements from the config
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ReductionHypothesisError as exc:
        print(f"reduction hypothesis violated: {exc}", file=sys.stderr)
        if getattr(exc, "witness", None) is not None:
            print(f"witness: {exc.witness}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except NumericFailure as exc:
        print(f"numeric failure [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
