"""Deterministic tabular output: plain CSV, floats at 17 significant digits
so reruns with the same seed are byte-identical."""

from __future__ import annotations

import os


def format_cell(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def write_csv(path, header, rows) -> None:
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(c) for c in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

