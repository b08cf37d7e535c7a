"""Experiment configuration: a single versioned JSON document, and the
pinned calibration every run record carries.

Unknown keys are rejected at every level; the sampling seed is mandatory so
no run is ever silently nondeterministic.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from ._intlinalg import NumericFailure
from .geometry import MAX_SAMPLES, ProjectiveModel
from .observables import Observable
from .symmetry import DiagonalSymmetry, TorusAction

SCHEMA_VERSION = 1

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "check_level_budget",
           "CalibrationRecord", "PINNED", "FLIPPABLE_PINS"]

#: most levels one subcommand visits, from k_range or kernel_probe.k_values:
#: the d = 1 sweep k = 1..10,000 takes ~14 s for `trace` or `compare` and
#: ~0.5 s for `predict`; a level's work grows with k (2-vCPU Xeon)
MAX_LEVELS = 10_000


class ConfigError(ValueError):
    pass


#: the conventions `selftest --debug-flip-pin` can force wrong; the selftest
#: check that pins convention p is named "pin-p"
FLIPPABLE_PINS = ("gamma-phase", "h-orientation", "moment-sign")
#: the selftest checks whose outcome the calibration record carries
CALIBRATION_CHECKS = ("calibrate-kappa-x",) + tuple(f"pin-{p}" for p in FLIPPABLE_PINS)


@dataclass(frozen=True)
class CalibrationRecord:
    kappa_x: float
    gamma_phase_sign: int
    chi_orientation: int
    moment_sign: int
    pinned_by: tuple

    def to_dict(self, results=None) -> dict:
        """The pinned constants.  With a selftest's results, also each
        calibration check's outcome and whether all passed; without, the
        constants are marked as not re-verified by this run."""
        doc = asdict(self)
        if results is None:
            doc["verified"] = False
            return doc
        doc["pin_checks"] = {r.name: {"passed": r.passed, "detail": r.detail}
                             for r in results if r.name in CALIBRATION_CHECKS}
        doc["verified"] = all(c["passed"] for c in doc["pin_checks"].values())
        return doc


PINNED = CalibrationRecord(
    kappa_x=1.0,
    gamma_phase_sign=-1,      # lift eigenvalue e^{i k theta_A} e^{-i <phi, alpha>}
    chi_orientation=+1,       # chi_varpi(t) = e^{+i <varpi, theta>}
    moment_sign=-1,           # Phi = -(W u)
    pinned_by=("on-diagonal kernel scaling", "holomorphic fixed-point identity",
               "weight support principle", "reduced dimension slope"),
)


def check_level_budget(n_levels: int) -> None:
    """Raise NumericFailure, before any level is visited, when a sweep or
    probe has more than MAX_LEVELS levels."""
    if n_levels > MAX_LEVELS:
        raise NumericFailure(f"{n_levels} levels, over the budget of {MAX_LEVELS}")


def _require_keys(obj: dict, allowed: set, required: set, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _floats(obj, shape: tuple, where: str):
    """obj, nested JSON lists of finite numbers, as a float array of that
    shape (a float for shape ()); a boolean, a string or null is no number."""
    if shape and isinstance(obj, list) and len(obj) == shape[0]:
        return np.array([_floats(x, shape[1:], where) for x in obj])
    if not shape and isinstance(obj, (int, float)) and not isinstance(obj, bool) \
            and abs(obj) <= sys.float_info.max:
        return float(obj)
    raise ConfigError(f"{where} must hold finite JSON numbers"
                      + (f" in shape {shape}" if shape else ""))


def _is_int(x, low: int = -2 ** 63) -> bool:
    """Whether x is a JSON integer (not a boolean) in low..2^63 - 1."""
    return isinstance(x, int) and not isinstance(x, bool) and low <= x < 2 ** 63


@dataclass(frozen=True)
class ExperimentConfig:
    d: int
    W: np.ndarray
    phi: np.ndarray
    theta_A: float
    u_terms: dict
    h_term: np.ndarray | None
    varpi: tuple
    k_min: int
    k_max: int
    k_step: int
    n_samples: int
    seed: int
    output_dir: str
    kernel_probe: dict | None = None     # with the points and displacements as arrays
    raw: dict = field(default=None, repr=False)

    # ---- constructed objects -------------------------------------------
    def model(self) -> ProjectiveModel:
        return ProjectiveModel(self.d)

    def action(self) -> TorusAction:
        return TorusAction(self.W)

    def symmetry(self) -> DiagonalSymmetry:
        return DiagonalSymmetry(phi=self.phi, theta_A=self.theta_A)

    def observable(self) -> Observable:
        return Observable(u_terms=self.u_terms, h_term=self.h_term)

    def k_values(self) -> list:
        """The k_range levels, after `check_level_budget` on their count."""
        check_level_budget((self.k_max - self.k_min) // self.k_step + 1)
        return list(range(self.k_min, self.k_max + 1, self.k_step))


def _parse_h_term(obj, d):
    if obj is None:
        return None
    _require_keys(obj, {"re", "im"}, {"re"}, "observable.h_term")
    re = _floats(obj["re"], (d + 1, d + 1), "observable.h_term.re")
    h = re + 1j * (_floats(obj["im"], re.shape, "observable.h_term.im") if "im" in obj else 0.0)
    if np.max(np.abs(h - h.conj().T)) > 1e-12:
        raise ConfigError("observable.h_term: matrix must be Hermitian")
    return h


def _probe_coords(probe: dict, key: str, n: int, default=None) -> np.ndarray:
    """kernel_probe[key] as a complex n-vector from n finite JSON numbers or
    n [re, im] pairs of them (`_floats`), or default when absent (required
    without one).  Points must be nonzero and are normalized to the unit
    sphere."""
    where = f"kernel_probe.{key}"
    if probe.get(key) is None:
        if default is None:
            raise ConfigError(f"{where} is required")
        return default
    coords = probe[key]
    pairs = isinstance(coords, list) and any(isinstance(x, list) for x in coords)
    try:
        arr = _floats(coords, (n, 2) if pairs else (n,), where)
    except ConfigError:
        raise ConfigError(f"{where} must be d+1 = {n} finite numbers or {n} [re, im] pairs") \
            from None
    vec = arr.astype(complex) if arr.ndim == 1 else arr[:, 0] + 1j * arr[:, 1]
    if not key.endswith("point"):
        return vec
    nrm = np.linalg.norm(vec)
    if nrm == 0:
        raise ConfigError(f"{where} must be nonzero")
    return vec / nrm


def parse_config(doc: dict) -> ExperimentConfig:
    _require_keys(doc, {"schema_version", "model", "action", "symmetry", "observable",
                        "isotype", "k_range", "sampling", "fit", "output_dir",
                        "kernel_probe"},
                  {"schema_version", "model", "action", "symmetry", "observable",
                   "isotype", "k_range", "sampling", "output_dir"}, "config")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {doc['schema_version']!r} "
                          f"(this build reads {SCHEMA_VERSION})")

    _require_keys(doc["model"], {"d"}, {"d"}, "model")
    d = doc["model"]["d"]
    if not _is_int(d, 1):
        raise ConfigError("model.d must be a positive integer")

    _require_keys(doc["action"], {"W"}, {"W"}, "action")
    W_rows = doc["action"]["W"]
    if not isinstance(W_rows, list):
        raise ConfigError("action.W must be a list of integer rows")
    for row in W_rows:
        if not isinstance(row, list) or len(row) != d + 1:
            raise ConfigError(f"action.W rows must have length d+1 = {d + 1}")
        if not all(_is_int(x) for x in row):
            raise ConfigError("action.W entries must be 64-bit integers")
    W = np.array(W_rows, dtype=np.int64).reshape(len(W_rows), d + 1)

    _require_keys(doc["symmetry"], {"phi", "theta_A"}, {"phi"}, "symmetry")
    phi = _floats(doc["symmetry"]["phi"], (d + 1,), "symmetry.phi")
    theta_A = _floats(doc["symmetry"].get("theta_A", 0.0), (), "symmetry.theta_A")

    _require_keys(doc["observable"], {"u_terms", "h_term"}, set(), "observable")
    u_terms, terms = {}, doc["observable"].get("u_terms", [])
    if not isinstance(terms, list):
        raise ConfigError("observable.u_terms must be a list")
    for i, term in enumerate(terms):
        _require_keys(term, {"beta", "coef"}, {"beta", "coef"}, f"observable.u_terms[{i}]")
        beta = term["beta"]
        if not (isinstance(beta, list) and len(beta) == d + 1
                and all(_is_int(b, 0) for b in beta)):
            raise ConfigError(f"observable.u_terms[{i}].beta must be {d + 1} nonnegative ints")
        u_terms[tuple(beta)] = _floats(term["coef"], (), f"observable.u_terms[{i}].coef")
    h_term = _parse_h_term(doc["observable"].get("h_term"), d)
    if not u_terms and h_term is None:
        raise ConfigError("observable must have at least one term")

    varpi = doc["isotype"]
    if not isinstance(varpi, list) or len(varpi) != len(W_rows) \
            or not all(_is_int(v) for v in varpi):
        raise ConfigError(f"isotype must be a list of {len(W_rows)} integers")

    _require_keys(doc["k_range"], {"min", "max", "step"}, {"min", "max"}, "k_range")
    k_min, k_max = doc["k_range"]["min"], doc["k_range"]["max"]
    k_step = doc["k_range"].get("step", 1)
    if not all(_is_int(x) for x in (k_min, k_max, k_step)) \
            or k_min < 0 or k_step < 1 or k_max < k_min:
        raise ConfigError("k_range must satisfy 0 <= min <= max, step >= 1")

    _require_keys(doc["sampling"], {"n_samples", "seed"}, {"n_samples", "seed"}, "sampling")
    n_samples, seed = doc["sampling"]["n_samples"], doc["sampling"]["seed"]
    if not _is_int(n_samples, 1) or n_samples > MAX_SAMPLES:
        raise ConfigError(f"sampling.n_samples must be an integer in 1..{MAX_SAMPLES} "
                          "(the Sobol sequence has 30-bit direction numbers)")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("sampling.seed is mandatory and must be a nonnegative integer")

    # accepted and validated for schema-1 configs, but read by nothing: the
    # identity `compare` checks takes its degrees from the components
    if "fit" in doc:
        _require_keys(doc["fit"], {"order"}, {"order"}, "fit")
        if not _is_int(doc["fit"]["order"], 1):
            raise ConfigError("fit.order must be a positive integer")

    out = doc["output_dir"]
    if not isinstance(out, str) or not out:
        raise ConfigError("output_dir must be a nonempty string")

    probe = doc.get("kernel_probe")
    if probe is not None:
        _require_keys(probe, {"type", "point", "second_point", "displacement_w",
                              "displacement_v", "k_values"},
                      {"type", "k_values"}, "kernel_probe")
        if probe["type"] not in ("decay", "scaling"):
            raise ConfigError("kernel_probe.type must be 'decay' or 'scaling'")
        # k = 0 has no decay exponent (log 0) and no 1/sqrt(k) scaling
        ks = probe["k_values"]
        if not isinstance(ks, list) or not ks \
                or not all(_is_int(k, 1) for k in ks):
            raise ConfigError("kernel_probe.k_values must be a nonempty list of "
                              "positive integers")
        n = d + 1
        point = _probe_coords(probe, "point", n)
        zero = np.zeros(n, complex)
        probe = {"type": probe["type"], "k_values": ks, "point": point,
                 "second_point": _probe_coords(probe, "second_point", n, point),
                 "displacement_w": _probe_coords(probe, "displacement_w", n, zero),
                 "displacement_v": _probe_coords(probe, "displacement_v", n, zero)}

    return ExperimentConfig(
        d=d, W=W, phi=phi, theta_A=theta_A, u_terms=u_terms, h_term=h_term,
        varpi=tuple(varpi), k_min=k_min, k_max=k_max, k_step=k_step,
        n_samples=n_samples, seed=seed, output_dir=out,
        kernel_probe=probe, raw=doc)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return parse_config(doc)
