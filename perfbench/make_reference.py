"""Regenerate reference.json, the expected outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are trusted: every later run of the
benchmark is checked against what this writes.  Exact quantities are taken
from one run.  Monte-Carlo references are the mean over REFERENCE_SEEDS,
except the reduced volume of the P2 config, whose exact value pi/2 is used.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import statistics
import sys

from run import WORK, import_package
from workloads import HERE, WORKLOADS, cli_args, cplx, read_csv, read_report, sha256_file

REFERENCE_SEEDS = range(1, 9)
EXACT_VOL_M0 = {"p2-sweep": math.pi / 2}
REPORT_KEYS = ("empty_locus", "regular_value", "free_action", "kernel_order",
               "stabilizer_order")


def run_sequence(cli, wl, seed, sequence):
    out_dir = os.path.join(WORK, f"{wl.name}-{seed}")
    os.makedirs(out_dir)
    config = os.path.join(out_dir, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(wl.config_for(seed, out_dir), fh)
    for cmd in sequence:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(cli_args(cmd, config, out_dir)) != 0:
                raise SystemExit(f"{wl.name}: {cmd} failed")
    return out_dir


def pairs(values):
    return [[v.real, v.imag] for v in values]


def reference_for(cli, wl):
    ref = {}
    out = run_sequence(cli, wl, REFERENCE_SEEDS[0], wl.sequence)
    if "analyze" in wl.sequence:
        analyses = [out] + [run_sequence(cli, wl, s, ("analyze",)) for s in REFERENCE_SEEDS[1:]]
        reports = [read_report(os.path.join(d, "reduction_report.txt")) for d in analyses]
        comps = [read_csv(os.path.join(d, "components.csv")) for d in analyses]
        ref["report"] = {key: reports[0][key] for key in REPORT_KEYS}
        ref["vol_M0"] = EXACT_VOL_M0.get(
            wl.name, statistics.fmean(float(r["vol_M0"]) for r in reports))
        ref["components"] = []
        for i, row in enumerate(comps[0]):
            fbars = [float(c[i]["f_bar_re"]) for c in comps]
            exact = float(row["f_bar_stderr"]) == 0.0
            ref["components"].append({
                **{key: row[key] for key in ("support", "d_l", "codim", "stab_order")},
                **{stem: pairs([cplx(row, stem)])[0] for stem in ("c_l", "h_l", "chi")},
                "f_bar": pairs([cplx(row, "f_bar")])[0] if exact
                else [statistics.fmean(fbars), 0.0],
                "f_bar_stderr": 0.0 if exact
                else statistics.stdev(fbars) / math.sqrt(len(fbars)),
            })
    seed_free = all(c["f_bar_stderr"] == 0.0 for c in ref.get("components", []))
    for name in ("comparison.csv", "predictions.csv", "trace.csv"):
        path = os.path.join(out, name)
        if not os.path.exists(path):
            continue
        rows = read_csv(path)
        if name == "comparison.csv" and seed_free:
            ref["comparison_sha256"] = sha256_file(path)
            continue
        if "trace_re" in rows[0]:
            ref["traces"] = pairs(cplx(r, "trace") for r in rows)
        if "pred_re" in rows[0]:
            fbar = cplx(read_csv(os.path.join(out, "components.csv"))[0], "f_bar")
            ref["pred_per_fbar"] = pairs(cplx(r, "pred") / fbar for r in rows)
        if "dim" in rows[0]:
            ref["dims"] = [int(r["dim"]) for r in rows]
    if "kernel" in wl.sequence:
        rows = read_csv(os.path.join(out, "kernel_decay.csv"))
        ref["abs_kernel"] = [float(r["abs_kernel"]) for r in rows]
    return ref


def main():
    cli = import_package()
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        ref = {name: reference_for(cli, wl) for name, wl in WORKLOADS.items()}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
