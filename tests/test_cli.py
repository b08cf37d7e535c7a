import copy
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import zlib
from fractions import Fraction

import numpy as np
import pytest

import eqtoeplitz.asymptotics as asymptotics
import eqtoeplitz.cli as cli
import eqtoeplitz.geometry as geometry
import eqtoeplitz.reduction as red
import eqtoeplitz.symmetry as symmetry
from eqtoeplitz.asymptotics import predict_toeplitz_leading
from eqtoeplitz.cli import main
from eqtoeplitz.config import FLIPPABLE_PINS, ConfigError, load_config, parse_config
from eqtoeplitz.symmetry import TorusAction

from conftest import read_csv


def base_config(out, **over):
    doc = {
        "schema_version": 1,
        "model": {"d": 1},
        "action": {"W": []},
        "symmetry": {"phi": [0.0, 0.0]},
        "observable": {"u_terms": [{"beta": [1, 0], "coef": 1.0}]},
        "isotype": [],
        "k_range": {"min": 2, "max": 100, "step": 1},
        "sampling": {"n_samples": 20000, "seed": 5},
        "fit": {"order": 2},
        "output_dir": str(out),
    }
    doc.update(over)
    return doc


#: the d3-reduce weights with phi = theta . W: one sampled d_l = 1 component
D3_REDUCE = dict(model={"d": 3}, action={"W": [[1, 0, -1, 2], [0, 1, -1, -1]]},
                 symmetry={"phi": [0.3, 0.5, -0.8, 0.1]},
                 observable={"u_terms": [{"beta": [0, 1, 0, 0], "coef": 1.0}]},
                 isotype=[0, 0], sampling={"n_samples": 2 ** 12, "seed": 0})
#: the p2-sweep config: P2 under a circle, generic phases, two fixed points
P2_SWEEP = dict(model={"d": 2}, action={"W": [[1, -1, -1]]},
                symmetry={"phi": [0.0, 1.1, 3.7]}, isotype=[0],
                observable={"u_terms": [{"beta": [0, 1, 0], "coef": 1.0}]},
                k_range={"min": 40, "max": 120, "step": 8})
#: the d4-isotype config: three levels whose weight slices keep 237-320 rows
D4_ISOTYPE = dict(model={"d": 4}, action={"W": [[1, 0, -1, 2, -2], [0, 1, -1, -1, 1]]},
                  symmetry={"phi": [0.0, 0.7, 1.9, 2.6, 0.3]}, isotype=[0, 0],
                  observable={"u_terms": [{"beta": [0, 1, 0, 0, 0], "coef": 1.0}]},
                  k_range={"min": 84, "max": 100, "step": 8})


def random_locus_config(out, seed, n_samples):
    """d = 8 with W a random 2 x 9 draw in [-30, 30] and phi = theta . W, so
    the symmetry fixes the whole zero locus: one d_l = 6 component."""
    rng = np.random.default_rng(seed)
    W = rng.integers(-30, 31, (2, 9))
    return base_config(out, model={"d": 8}, action={"W": W.tolist()},
                       symmetry={"phi": (rng.uniform(0, 2 * math.pi, 2) @ W).tolist()},
                       observable={"u_terms": [{"beta": [0] * 9, "coef": 1.0}]},
                       isotype=[0, 0], k_range={"min": 10, "max": 20, "step": 5},
                       sampling={"n_samples": n_samples, "seed": 0})


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def file_hash(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestConfigValidation:
    def test_unknown_keys_rejected(self, tmp_path):
        doc = base_config(tmp_path / "o")
        doc["extra"] = 1
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(doc)

    def test_malformed_w_row(self, tmp_path):
        doc = base_config(tmp_path / "o", action={"W": [[1, -1, 3]]})
        with pytest.raises(ConfigError, match="length d"):
            parse_config(doc)

    def test_seed_mandatory(self, tmp_path):
        doc = base_config(tmp_path / "o")
        del doc["sampling"]["seed"]
        with pytest.raises(ConfigError, match="missing keys"):
            parse_config(doc)

    def test_schema_version(self, tmp_path):
        doc = base_config(tmp_path / "o", schema_version=99)
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(doc)

    def test_cli_exit_code_2(self, tmp_path):
        doc = base_config(tmp_path / "o", action={"W": [[1]]})
        cfg = write_config(tmp_path, doc)
        assert main(["analyze", "--config", cfg]) == 2

    def test_n_samples_over_2_pow_30_exit_2(self, tmp_path, monkeypatch):
        # the Sobol direction numbers have 30 bits: refused before any draw
        doc = base_config(tmp_path / "o", sampling={"n_samples": 2 ** 30, "seed": 0})
        assert parse_config(doc).n_samples == 2 ** 30
        doc["sampling"]["n_samples"] += 1
        with pytest.raises(ConfigError, match="n_samples"):
            parse_config(doc)
        monkeypatch.setattr(red, "zero_locus_sample", None)
        assert main(["analyze", "--config", write_config(tmp_path, doc)]) == 2

    @pytest.mark.parametrize("seed", [-1, True, 2.0])
    def test_seed_must_be_a_nonnegative_integer(self, tmp_path, seed):
        doc = base_config(tmp_path / "o", sampling={"n_samples": 100, "seed": seed})
        with pytest.raises(ConfigError, match="seed"):
            parse_config(doc)

    @pytest.mark.parametrize("cmd", ["analyze", "predict", "compare"])
    @pytest.mark.parametrize("seed,override", [(-1, None), (True, None), (5, "-5"), (-1, "5")])
    def test_bad_seed_exit_2(self, tmp_path, capsys, cmd, seed, override):
        # from the config or from --seed, refused before any output; --seed
        # replaces a valid seed and never repairs a malformed one
        out = tmp_path / "out"
        cfg = write_config(tmp_path, decay_config(out, k_values=[20]) | {
            "sampling": {"n_samples": 1000, "seed": seed}})
        argv = [cmd, "--config", cfg] + ([] if override is None else ["--seed", override])
        assert main(argv) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_never_supplies_a_seed(self, tmp_path, capsys):
        # --seed is written over the config's seed before the one parse
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out, sampling={"n_samples": 1000}))
        assert main(["predict", "--config", cfg, "--seed", "3"]) == 2
        assert "missing keys ['seed']" in capsys.readouterr().err and not out.exists()

    def test_seed_override_before_the_parse(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path / "o"))
        cfg = load_config(path, seed=3)
        assert cfg.seed == 3 and cfg.raw["sampling"] == {"n_samples": 20000, "seed": 3}
        assert load_config(path).seed == 5

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
    def test_schema_version_must_be_the_integer_1(self, tmp_path, version):
        # True == 1 == 1.0 in Python, but neither is the JSON integer 1
        doc = base_config(tmp_path / "o", schema_version=version)
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(doc)
        assert main(["analyze", "--config", write_config(tmp_path, doc)]) == 2

    def test_config_holds_the_layer_objects(self, tmp_path):
        cfg = parse_config(base_config(tmp_path / "o", **P2_SWEEP))
        assert cfg.model.d == 2 and cfg.action.W.tolist() == [[1, -1, -1]]
        assert cfg.symmetry.phi.tolist() == [0.0, 1.1, 3.7] and cfg.symmetry.theta_A == 0.0
        assert cfg.observable.u_terms == {(0, 1, 0): 1.0} and cfg.observable.h_term is None
        assert cfg.levels == range(40, 121, 8)

    def test_k_range_count_fits_63_bits(self, tmp_path):
        # k = 0..2^63 - 1 would be 2^63 levels, one more than len() can count
        doc = base_config(tmp_path / "o", k_range={"min": 0, "max": 2 ** 63 - 1})
        with pytest.raises(ConfigError, match="k_range"):
            parse_config(doc)
        doc["k_range"]["max"] -= 1
        assert len(parse_config(doc).levels) == 2 ** 63 - 1

    @pytest.mark.parametrize("fit", [{"order": 0}, {"order": "3"}, {"order": 3, "x": 1}, {}])
    def test_malformed_fit_exit_2(self, tmp_path, fit):
        # `fit` is read by nothing, but a schema-1 config's `fit` is still checked
        cfg = write_config(tmp_path, base_config(tmp_path / "o", fit=fit))
        assert main(["compare", "--config", cfg]) == 2

    def test_fit_order_changes_nothing(self, tmp_path):
        reports = []
        for name, fit in (("a", {"order": 1}), ("b", {"order": 7}), ("c", None)):
            doc = base_config(tmp_path / name, fit=fit)
            if fit is None:
                del doc["fit"]
            assert main(["compare", "--config", write_config(tmp_path, doc, f"{name}.json")]) == 0
            reports.append((tmp_path / name / "fit_report.txt").read_text())
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("path, value", [
        pytest.param(("symmetry", "theta_A"), "abc", id="theta_A-string"),
        pytest.param(("symmetry", "theta_A"), None, id="theta_A-null"),
        pytest.param(("symmetry", "theta_A"), math.nan, id="theta_A-nan"),
        pytest.param(("symmetry", "theta_A"), math.inf, id="theta_A-inf"),
        pytest.param(("symmetry", "theta_A"), True, id="theta_A-boolean"),
        pytest.param(("symmetry", "phi", 1), "a", id="phi-string"),
        pytest.param(("symmetry", "phi", 1), "1.1", id="phi-numeric-string"),
        pytest.param(("symmetry", "phi", 1), math.nan, id="phi-nan"),
        pytest.param(("symmetry", "phi", 2), -math.inf, id="phi-inf"),
        pytest.param(("observable", "u_terms", 0, "coef"), "x", id="coef-string"),
        pytest.param(("observable", "u_terms", 0, "coef"), None, id="coef-null"),
        pytest.param(("observable", "u_terms", 0, "coef"), math.nan, id="coef-nan"),
        pytest.param(("observable", "u_terms", 0, "coef"), math.inf, id="coef-inf"),
        pytest.param(("observable", "u_terms", 0, "coef"), 10 ** 400, id="coef-over-float"),
        pytest.param(("observable", "h_term"), {"re": [[1, 0, 0], [0, "a", 0], [0, 0, 1]]},
                     id="h_term-string"),
        pytest.param(("observable", "h_term"), {"re": [[1, 0, 0], [0, math.nan, 0], [0, 0, 1]]},
                     id="h_term-nan"),
        pytest.param(("observable", "h_term"), {"re": [[1, 0, 0], [0, math.inf, 0], [0, 0, 1]]},
                     id="h_term-inf"),
        pytest.param(("observable", "h_term"), {"re": np.eye(3).tolist(),
                                                "im": [[0, 0, 0], [0, math.nan, 0], [0, 0, 0]]},
                     id="h_term-im-nan"),
        pytest.param(("observable", "u_terms"), 5, id="u_terms-number"),
        pytest.param(("action", "W", 0, 1), 10 ** 30, id="W-over-int64"),
        pytest.param(("action", "W", 0, 1), -2 ** 63 - 1, id="W-under-int64"),
        pytest.param(("action", "W", 0, 1), True, id="W-boolean"),
        pytest.param(("observable", "u_terms", 0, "beta", 1), True, id="beta-boolean"),
        pytest.param(("observable", "u_terms", 0, "beta"), 5, id="beta-number"),
        pytest.param(("isotype", 0), True, id="isotype-boolean"),
    ])
    def test_malformed_number_exit_2(self, tmp_path, capsys, path, value):
        # a number of the wrong type or range, or one that is not finite,
        # exits 2 as the config loads, before any output
        out = tmp_path / "out"
        doc = copy.deepcopy(base_config(out, **P2_SWEEP))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        assert main(["trace", "--config", write_config(tmp_path, doc)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_non_hermitian_h_term_exit_2(self, tmp_path, capsys):
        # Observable's Hermitian check, at its 1e-12, is the config's
        out = tmp_path / "out"
        h = np.eye(3)
        h[0, 1] = 1e-11
        doc = copy.deepcopy(base_config(out, **P2_SWEEP))
        doc["k_range"] = {"min": 2, "max": 4, "step": 1}
        doc["observable"]["h_term"] = {"re": h.tolist()}
        assert main(["trace", "--config", write_config(tmp_path, doc)]) == 2
        assert "config error: observable.h_term: h_term must be Hermitian" in (
            capsys.readouterr().err)
        assert not out.exists()
        h[0, 1] = 1e-13
        doc["observable"]["h_term"] = {"re": h.tolist()}
        assert main(["trace", "--config", write_config(tmp_path, doc)]) == 0

    @pytest.mark.parametrize("cmd, path, value", [
        pytest.param("trace", ("model", "d"), True, id="d-true"),
        pytest.param("trace", ("k_range", "min"), True, id="k_min-true"),
        pytest.param("trace", ("k_range", "min"), False, id="k_min-false"),
        pytest.param("trace", ("k_range", "max"), True, id="k_max-true"),
        pytest.param("trace", ("k_range", "max"), False, id="k_max-false"),
        pytest.param("trace", ("k_range", "step"), True, id="k_step-true"),
        pytest.param("trace", ("sampling", "n_samples"), True, id="n_samples-true"),
        pytest.param("trace", ("fit", "order"), True, id="fit_order-true"),
        pytest.param("kernel", ("kernel_probe", "k_values", 0), True, id="k_values-true"),
    ])
    def test_boolean_integer_exit_2(self, tmp_path, capsys, cmd, path, value):
        # JSON true and false are no integers, though Python reads them as
        # 1 and 0; each value here would be a valid integer as 1 or 0 (a
        # false where 0 is out of range is refused either way)
        out = tmp_path / "out"
        doc = (decay_config(out) if cmd == "kernel"
               else base_config(out, k_range={"min": 0, "max": 3, "step": 1}))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        assert main([cmd, "--config", write_config(tmp_path, doc)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", [0, -1, 33, 10_000])
    @pytest.mark.parametrize("cmd", ["trace", "compare"])
    def test_threads_out_of_range_exit_2(self, tmp_path, capsys, monkeypatch, cmd, threads):
        # refused before the config loads: no sweep, no thread, no output
        import eqtoeplitz.toeplitz as tp

        def refuse(*args, **kwargs):
            raise AssertionError("trace_sweep was called")
        monkeypatch.setattr(tp, "trace_sweep", refuse)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main([cmd, "--config", cfg, "--threads", str(threads)]) == 2
        assert "--threads must be in 1..32" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_at_the_ceiling_run(self, tmp_path):
        # two levels: the pool starts at most one thread per level
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out, k_range={"min": 2, "max": 3, "step": 1}))
        assert main(["trace", "--config", cfg, "--threads", "32"]) == 0

    def test_load_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/cfg.json")


class TestAnalyze:
    def test_p2_two_components(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, model={"d": 2}, action={"W": [[1, -1, -1]]},
                          symmetry={"phi": [0.0, 0.9, 2.1]},
                          observable={"u_terms": [{"beta": [0, 1, 0], "coef": 1.0}]},
                          isotype=[0],
                          sampling={"n_samples": 50000, "seed": 7})
        cfg = write_config(tmp_path, doc)
        assert main(["analyze", "--config", cfg]) == 0
        header, rows = read_csv(out / "components.csv")
        assert len(rows) == 2
        supports = sorted(r[0] for r in rows)
        assert supports == ["0;1", "0;2"]
        # the report gives the drawn count: 50000 rounded up to a power of two
        assert "n_samples: 65536" in (out / "reduction_report.txt").read_text().splitlines()
        # cross-check column: finite-difference vs phase-arithmetic c_l
        cc = header.index("c_l_cross_check")
        assert all(float(r[cc]) < 1e-8 for r in rows)

    def test_one_zero_locus_draw(self, tmp_path, monkeypatch):
        # phi = theta . W fixes the whole zero locus: the d_l = 1 component
        # integrates f-bar over the diagnostics' sample instead of a second one
        draws = []
        draw = red.zero_locus_sample
        monkeypatch.setattr(red, "zero_locus_sample",
                            lambda *a, **kw: draws.append(kw["support"]) or draw(*a, **kw))
        out = tmp_path / "o"
        doc = base_config(out, model={"d": 3}, action={"W": [[1, 0, -1, 2], [0, 1, -1, -1]]},
                          symmetry={"phi": [0.3, 0.5, -0.8, 0.1]},
                          observable={"u_terms": [{"beta": [0, 1, 0, 0], "coef": 1.0}]},
                          isotype=[0, 0], sampling={"n_samples": 2 ** 14, "seed": 0})
        assert main(["analyze", "--config", write_config(tmp_path, doc)]) == 0
        assert draws == [(0, 1, 2, 3)]
        header, rows = read_csv(out / "components.csv")
        assert [row[header.index("support")] for row in rows] == ["0;1;2;3"]

    def test_one_vertex_enumeration(self, tmp_path, monkeypatch):
        # the diagnostics, the component search and the f-bar integral all
        # read P from one enumeration, and each vertex support and the
        # generic support (here every coordinate: the kernel) is solved once
        calls, solved = [], []
        enumerate_p, solve = red.slice_vertices, red.stabilizer_info
        monkeypatch.setattr(red, "slice_vertices",
                            lambda action: calls.append(1) or enumerate_p(action))
        monkeypatch.setattr(red, "stabilizer_info",
                            lambda action, S: solved.append(tuple(S)) or solve(action, S))
        red._zero_locus.cache_clear()
        out = tmp_path / "o"
        doc = base_config(out, model={"d": 3}, action={"W": [[1, 0, -1, 2], [0, 1, -1, -1]]},
                          symmetry={"phi": [0.3, 0.5, -0.8, 0.1]},
                          observable={"u_terms": [{"beta": [0, 1, 0, 0], "coef": 1.0}]},
                          isotype=[0, 0], sampling={"n_samples": 2 ** 14, "seed": 0})
        assert main(["analyze", "--config", write_config(tmp_path, doc)]) == 0
        assert len(calls) == 1
        zl = red.zero_locus(TorusAction(doc["action"]["W"]))
        assert [S for S, _ in zl.strata] == [(0, 1, 2), (1, 2, 3)]
        assert zl.generic == (0, 1, 2, 3)
        assert all(solved.count(S) == 1 for S, _ in zl.strata)
        assert solved.count(zl.generic) == 1

    def test_empty_locus_enumerates_p_once(self, tmp_path, monkeypatch):
        # the diagnostics enumerate P once, and the k0 line reads no vertex set
        calls, enumerate_p = [], red.slice_vertices
        for module in (red, symmetry):
            monkeypatch.setattr(module, "slice_vertices",
                                lambda action: calls.append(1) or enumerate_p(action))
        red._zero_locus.cache_clear()
        doc = base_config(tmp_path / "o", model={"d": 2}, action={"W": [[1, 1, 2]]},
                          symmetry={"phi": [0.0, 0.0, 0.0]}, isotype=[-6],
                          observable={"u_terms": [{"beta": [0, 0, 0], "coef": 1.0}]})
        assert main(["analyze", "--config", write_config(tmp_path, doc)]) == 0
        assert "k0 (weight-range bound for the configured isotype): 7" in (
            tmp_path / "o" / "reduction_report.txt").read_text()
        assert len(calls) == 1

    def test_empty_locus_exit_zero(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, action={"W": [[1, 1]]}, isotype=[-6])
        cfg = write_config(tmp_path, doc)
        assert main(["analyze", "--config", cfg]) == 0
        report = (out / "reduction_report.txt").read_text()
        assert "empty zero locus" in report
        assert "k0" in report and ": 7" in report

    @pytest.mark.parametrize("W", [[[1, -1, 0]], [[1, 0, -1, 2, -2], [0, 1, -1, -1, 1]]])
    def test_degenerate_vertex_reported_then_exit_3(self, tmp_path, W):
        # [0:0:1], and the vertex support {3, 4} of the d = 4 weights, have a
        # continuous stabilizer although the open stratum is free
        out = tmp_path / "out"
        n = len(W[0])
        doc = base_config(out, model={"d": n - 1}, action={"W": W},
                          symmetry={"phi": [0.0, 0.7, 1.9, 2.6, 0.3][:n]},
                          observable={"u_terms": [{"beta": [0] * n, "coef": 1.0}]},
                          isotype=[0] * len(W))
        assert main(["analyze", "--config", write_config(tmp_path, doc)]) == 3
        report = (out / "reduction_report.txt").read_text().splitlines()
        assert "regular_value: False" in report and "free_action: False" in report
        assert not (out / "components.csv").exists()

    def test_g4_n24_weights_reach_the_hypothesis_answer(self, tmp_path, capsys):
        # P has 2,038 vertices among C(24, 5) = 42,504 column bases, too many
        # for one solve per basis; the vertex enumeration reads them off one
        # elimination, and the vertex support (0, 4, 5, 18) has a continuous
        # stabilizer
        W = np.random.default_rng(0).integers(-3, 4, (4, 24))
        out = tmp_path / "out"
        doc = base_config(out, model={"d": 23}, action={"W": W.tolist()},
                          symmetry={"phi": (np.array([0.3, 0.5, 0.7, 0.11]) @ W).tolist()},
                          observable={"u_terms": [{"beta": [0, 1] + [0] * 22, "coef": 1.0}]},
                          isotype=[0] * 4, k_range={"min": 0, "max": 10, "step": 1})
        cfg = write_config(tmp_path, doc)
        assert main(["predict", "--config", cfg]) == 3
        assert "witness: (0, 4, 5, 18)" in capsys.readouterr().err
        assert main(["analyze", "--config", cfg]) == 3
        assert "regular_value: False" in (out / "reduction_report.txt").read_text().splitlines()

    @pytest.mark.parametrize("over", [P2_SWEEP, D3_REDUCE], ids=["p2-sweep", "d3-reduce"])
    def test_no_singular_value_decomposition(self, tmp_path, monkeypatch, over):
        # c_l needs the differential on the normal coordinates only, which
        # are coordinate axes: no frame of the component is computed
        def svd(*args, **kwargs):
            raise AssertionError("numpy.linalg.svd was called")
        monkeypatch.setattr(np.linalg, "svd", svd)
        cfg = write_config(tmp_path, base_config(tmp_path / "out", **over))
        assert main(["analyze", "--config", cfg]) == 0
        assert (tmp_path / "out" / "components.csv").exists()

    @pytest.mark.parametrize("over, normal", [(P2_SWEEP, 1), (D3_REDUCE, 0)],
                             ids=["p2-sweep", "d3-reduce"])
    def test_run_record_holds_normal_eigenvalues(self, tmp_path, over, normal):
        # one unit eigenvalue per normal coordinate of each component, as
        # [re, im] pairs keyed by support, whose c_l is prod(1 - conj(lambda));
        # d3-reduce's one component is all of M0: no normal coordinate
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out, **over))
        assert main(["analyze", "--config", cfg]) == 0
        header, rows = read_csv(out / "components.csv")
        record = json.loads((out / "run_record.json").read_text())
        eigenvalues = record["counters"]["analyze"]["normal_eigenvalues"]
        assert sorted(eigenvalues) == sorted(row[0] for row in rows)
        for row in rows:
            lam = np.array([complex(*pair) for pair in eigenvalues[row[0]]])
            assert len(lam) == normal and np.allclose(np.abs(lam), 1, rtol=0, atol=1e-12)
            c_l = complex(float(row[header.index("c_l_re")]), float(row[header.index("c_l_im")]))
            assert abs(np.prod(1 - np.conj(lam)) - c_l) < 1e-8

    def test_hypothesis_violation_exit_3(self, tmp_path):
        doc = base_config(tmp_path / "o", action={"W": [[1, -1], [2, -2]]},
                          isotype=[0, 0])
        cfg = write_config(tmp_path, doc)
        assert main(["analyze", "--config", cfg]) == 3


class TestCompare:
    @pytest.mark.parametrize("over", [P2_SWEEP, D3_REDUCE], ids=["p2-sweep", "d3-reduce"])
    def test_identity_listed_and_factored_once(self, tmp_path, monkeypatch, over):
        # the roots listed for the refusal before the sweep are the ones the
        # fit uses, and the design's condition is read off the fit's own
        # singular values: no second SVD
        calls, listed = [], asymptotics.identity_roots
        monkeypatch.setattr(asymptotics, "identity_roots",
                            lambda *a: calls.append(a) or listed(*a))
        for name in ("cond", "svd"):
            monkeypatch.setattr(np.linalg, name, lambda *a, name=name, **kw: pytest.fail(
                f"numpy.linalg.{name} was called"))
        out = tmp_path / "out"
        assert main(["compare", "--config", write_config(tmp_path, base_config(out, **over))]) == 0
        assert len(calls) == 1 and (out / "fit_report.txt").exists()

    def test_toeplitz_ratio_column(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["compare", "--config", cfg]) == 0
        header, rows = read_csv(out / "comparison.csv")
        ic, ik = header.index("abs_ratio"), header.index("k")
        for r in rows:
            k = int(r[ik])
            assert abs(float(r[ic]) - (1 + 1 / k)) < 1e-12

    def test_lefschetz_summary(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = base_config(out, symmetry={"phi": [0.0, 2.2]},
                          observable={"u_terms": [{"beta": [0, 0], "coef": 1.0}]},
                          k_range={"min": 0, "max": 200, "step": 1})
        cfg = write_config(tmp_path, doc)
        assert main(["compare", "--config", cfg]) == 0
        header, rows = read_csv(out / "comparison.csv")
        it, ip = header.index("trace_re"), header.index("pred_re")
        jt, jp = header.index("trace_im"), header.index("pred_im")
        worst = max(abs(complex(float(r[it]), float(r[jt]))
                        - complex(float(r[ip]), float(r[jp]))) for r in rows)
        assert worst < 1e-8

    def test_constant_phase_keeps_lift_factor(self, tmp_path, capsys):
        # phi = (0.5, 0.5) acts trivially on P^1 but rotates the lift by e^{-0.5ik}
        out = tmp_path / "out"
        doc = base_config(out, symmetry={"phi": [0.5, 0.5]},
                          k_range={"min": 2, "max": 60, "step": 1})
        assert main(["compare", "--config", write_config(tmp_path, doc)]) == 0
        header, rows = read_csv(out / "comparison.csv")
        ip = header.index("phase_err")
        assert len(rows) == 59
        assert max(abs(float(r[ip])) for r in rows) <= 1e-12
        assert "(prediction: fixed-component-sum)" in capsys.readouterr().out

    def test_deterministic_outputs(self, tmp_path):
        doc = base_config(tmp_path / "x", model={"d": 2},
                          action={"W": [[1, -1, -1]]},
                          symmetry={"phi": [0.0, 1.1, 3.7]},
                          observable={"u_terms": [{"beta": [0, 1, 0], "coef": 1.0}]},
                          isotype=[0],
                          k_range={"min": 40, "max": 120, "step": 8},
                          sampling={"n_samples": 30000, "seed": 11})
        cfg = write_config(tmp_path, doc)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "r1")]) == 0
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "r2")]) == 0
        assert file_hash(tmp_path / "r1" / "comparison.csv") == \
            file_hash(tmp_path / "r2" / "comparison.csv")

    def test_forced_empty_levels_leave_the_fit_unchanged(self, tmp_path):
        # W = (1, -1, -1) empties every odd level: the step-1 run fits their
        # zero traces into the identity and reads the step-2 run's f-bar
        f_bars = []
        for step, k_max in ((1, 81), (2, 80)):
            out = tmp_path / f"step{step}"
            doc = base_config(out, model={"d": 2}, action={"W": [[1, -1, -1]]},
                              symmetry={"phi": [0.0, 1.1, 3.7]},
                              observable={"u_terms": [{"beta": [0, 1, 0], "coef": 1.0}]},
                              isotype=[0], k_range={"min": 40, "max": k_max, "step": step})
            assert main(["compare", "--config", write_config(tmp_path, doc)]) == 0
            lines = (out / "fit_report.txt").read_text().splitlines()
            assert lines[0] == (f"comparison over {(k_max - 40) // step + 1} levels "
                                "(prediction: fixed-component-sum)")
            assert lines[2] == f"identity: {8 // step} unknowns, " + lines[2].split(", ")[1]
            assert lines[3].startswith("identity holds from k* = 40: largest miss ")
            assert float(lines[3].split("miss ")[1].split()[0]) <= 1e-10
            assert float(lines[4].split()[2]) <= 1e-10
            assert lines[5].startswith("  trace-side f-bar of component 0;1: ")
            f_bars.append(float(lines[5].split(": ")[1].split()[0]))
        assert f_bars == pytest.approx([0.5, 0.5], abs=1e-10)

    @pytest.mark.parametrize("W, phi, k_range", [
        ([[1, 2, -3]], [0.0, 1.1, 3.7], {"min": 40, "max": 200, "step": 1}),
        ([[1, 0, -1, 2], [0, 1, -1, -1]], [0.1, 0.7, 1.9, 2.3], {"min": 30, "max": 120, "step": 1})])
    def test_orbifold_points_match_the_traces(self, tmp_path, W, phi, k_range):
        # point components whose stabilizers (orders 4 and 5; 3 and 6) exceed
        # the generic one: each stabilizer branch has its own normal factor
        out = tmp_path / "out"
        n = len(W[0])
        doc = base_config(out, model={"d": n - 1}, action={"W": W}, symmetry={"phi": phi},
                          observable={"u_terms": [{"beta": [0] * n, "coef": 1.0}]},
                          isotype=[0] * len(W), k_range=k_range)
        assert main(["compare", "--config", write_config(tmp_path, doc)]) == 0
        header, rows = read_csv(out / "comparison.csv")
        col = lambda r, name: float(r[header.index(name)])
        worst = max(abs(complex(col(r, "trace_re"), col(r, "trace_im"))
                        - complex(col(r, "pred_re"), col(r, "pred_im"))) for r in rows)
        assert worst <= 1e-12


class TestFailedLevels:
    @pytest.mark.parametrize("command, csv", [("trace", "trace.csv"),
                                              ("compare", "comparison.csv")])
    def test_failed_level_exits_4(self, tmp_path, monkeypatch, capsys, command, csv):
        import eqtoeplitz.symmetry as sy
        orig = sy.section_basis

        def flaky(k, model, *rest):
            if k == 7:
                raise RuntimeError("boom")
            return orig(k, model, *rest)

        monkeypatch.setattr(sy, "section_basis", flaky)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out, k_range={"min": 2, "max": 12,
                                                               "step": 1}))
        assert main([command, "--config", cfg]) == 4
        assert "levels 7" in capsys.readouterr().err
        assert not (out / csv).exists()
        assert not (out / "fit_report.txt").exists()

    def test_ill_conditioned_identity_writes_no_csv(self, tmp_path, monkeypatch, capsys):
        # the identity is refused on its condition after the sweep, and before
        # comparison.csv is written, as for a gapped sweep
        monkeypatch.setattr(asymptotics, "COND_CAP", 1.0)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out, **P2_SWEEP))
        assert main(["compare", "--config", cfg]) == 4
        assert "ill-conditioned identity design" in capsys.readouterr().err
        assert not os.path.exists(out / "comparison.csv")
        assert not os.path.exists(out / "fit_report.txt")
        assert not os.path.exists(out / "run_record.json")


    def test_overflowing_u_term_matches_exact_fractions(self, tmp_path):
        # u_0^150 on P^1: (d + k + 1) ... (d + k + 150) overflows a float at
        # k near 1000, but each paired ratio (alpha_0 + r) / (d + k + r) is at
        # most 1; the one row alpha = (k/2, k/2) of an even level gives the
        # trace, an odd level's isotype is empty
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(
            out, action={"W": [[1, -1]]}, isotype=[0],
            observable={"u_terms": [{"beta": [150, 0], "coef": 1.0}]},
            k_range={"min": 998, "max": 1000, "step": 1}))
        assert main(["trace", "--config", cfg]) == 0
        header, rows = read_csv(out / "trace.csv")
        assert [int(r[0]) for r in rows] == [998, 999, 1000]
        for r in rows:
            k = int(r[0])
            want = (math.prod(Fraction(k // 2 + j, 1 + k + j) for j in range(1, 151))
                    if k % 2 == 0 else 0)
            assert float(r[header.index("trace_im")]) == 0
            assert abs(float(r[header.index("trace_re")]) - want) <= 1e-12 * want


class TestTraceAndPredict:
    def test_trace_csv(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, k_range={"min": 1, "max": 20, "step": 1})
        cfg = write_config(tmp_path, doc)
        assert main(["trace", "--config", cfg, "--threads", "2"]) == 0
        header, rows = read_csv(out / "trace.csv")
        assert header == ["k", "varpi", "trace_re", "trace_im", "dim", "method"]
        assert [int(r[0]) for r in rows] == list(range(1, 21))

    @pytest.mark.parametrize("over", [P2_SWEEP, D4_ISOTYPE], ids=["p2-sweep", "d4-isotype"])
    def test_no_sort(self, tmp_path, monkeypatch, over):
        # the walk emits each weight slice in basis order, and the walked
        # slice is the isotype: nothing on the trace path sorts
        cfg = write_config(tmp_path, base_config(tmp_path / "out", **over))
        assert main(["trace", "--config", cfg, "--out", str(tmp_path / "sorted")]) == 0

        def lexsort(*args, **kwargs):
            raise AssertionError("numpy.lexsort was called")
        monkeypatch.setattr(np, "lexsort", lexsort)
        assert main(["trace", "--config", cfg]) == 0
        assert (file_hash(tmp_path / "out" / "trace.csv")
                == file_hash(tmp_path / "sorted" / "trace.csv"))

    def test_predict_csv(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, k_range={"min": 2, "max": 10, "step": 2})
        cfg = write_config(tmp_path, doc)
        assert main(["predict", "--config", cfg]) == 0
        header, rows = read_csv(out / "predictions.csv")
        for r in rows:
            assert float(r[1]) == pytest.approx(int(r[0]) / 2, rel=1e-13)

    @pytest.mark.parametrize("d, beta", [(1, [1, 0]), (3, [0, 2, 0, 1])])
    def test_identity_prediction_is_toeplitz_leading(self, tmp_path, d, beta):
        # the fixed-component sum over the one component M is the plain
        # Toeplitz leading term, bit for bit
        out = tmp_path / "out"
        doc = base_config(out, model={"d": d}, symmetry={"phi": [0.0] * (d + 1)},
                          observable={"u_terms": [{"beta": beta, "coef": 1.5}]},
                          k_range={"min": 1, "max": 40, "step": 3})
        assert main(["predict", "--config", write_config(tmp_path, doc)]) == 0
        header, rows = read_csv(out / "predictions.csv")
        cfg = parse_config(doc)
        for r in rows:
            want = predict_toeplitz_leading(int(r[0]), cfg.observable, cfg.model)
            assert (float(r[1]), float(r[2]), r[3]) == (want, 0.0, "fixed-component-sum")

    @pytest.mark.parametrize("seed,n_samples", [(1, 2 ** 16), (2, 2 ** 17), (3, 2 ** 17),
                                                 (8, 2 ** 18), (9, 2 ** 21)])
    def test_predict_on_random_locus_fixing_symmetry(self, tmp_path, seed, n_samples):
        # phi = theta . W, W a random 2 x 9 draw in [-30, 30]: one d_l = 6
        # component, whose invariants once failed (exit 4); n_samples is a
        # power of two whose moment band keeps zero-locus points, the fewest
        # for seeds 2 and 3 (seed 1 needs 2^13, seed 8 2^17, seed 9 2^19)
        out = tmp_path / "out"
        doc = random_locus_config(out, seed, n_samples)
        assert main(["predict", "--config", write_config(tmp_path, doc)]) == 0
        header, rows = read_csv(out / "predictions.csv")
        assert len(rows) == 3 and all(np.isfinite(float(r[1])) for r in rows)

    @pytest.mark.parametrize("command", ["predict", "analyze"])
    def test_undersampled_stratum_exits_4(self, tmp_path, capsys, command):
        # the same draw at seed 8 with too few samples: the band around its
        # 6-dimensional component catches no point, which is not a violation;
        # 2^17, the fewest power of two whose band keeps points, runs
        out = tmp_path / "out"
        doc = random_locus_config(out, 8, 2 ** 16)
        assert main([command, "--config", write_config(tmp_path, doc)]) == 4
        assert "raise sampling.n_samples" in capsys.readouterr().err
        assert not (out / "reduction_report.txt").exists()
        doc = random_locus_config(out, 8, 2 ** 17)
        assert main([command, "--config", write_config(tmp_path, doc)]) == 0

    def test_seed_override_changes_mc(self, tmp_path):
        doc = base_config(tmp_path / "s", model={"d": 2},
                          action={"W": [[1, -1, -1]]},
                          symmetry={"phi": [0.0, 0.0, 0.0]},
                          observable={"u_terms": [{"beta": [0, 0, 0], "coef": 1.0}]},
                          isotype=[0],
                          k_range={"min": 4, "max": 20, "step": 2},
                          sampling={"n_samples": 30000, "seed": 3})
        cfg = write_config(tmp_path, doc)
        assert main(["predict", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["predict", "--config", cfg, "--out", str(tmp_path / "b"),
                     "--seed", "4"]) == 0
        ha = file_hash(tmp_path / "a" / "predictions.csv")
        hb = file_hash(tmp_path / "b" / "predictions.csv")
        assert ha != hb


class TestCache:
    def test_corruption_detected_and_rebuilt(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, model={"d": 2}, action={"W": [[1, -1, -1]]},
                          symmetry={"phi": [0.0, 0.0, 0.0]},
                          observable={"u_terms": [{"beta": [0, 0, 0], "coef": 1.0}]},
                          isotype=[0],
                          k_range={"min": 4, "max": 12, "step": 2},
                          sampling={"n_samples": 30000, "seed": 3})
        cfg = write_config(tmp_path, doc)
        assert main(["predict", "--config", cfg]) == 0
        h1 = file_hash(out / "predictions.csv")
        cache_dir = out / "cache"
        files = sorted(os.listdir(cache_dir))
        assert files
        # corrupt the payload
        target = cache_dir / files[0]
        doc2 = json.loads(target.read_text())
        doc2["value"]["re"] = 99.0
        target.write_text(json.dumps(doc2))
        assert main(["predict", "--config", cfg]) == 0
        assert file_hash(out / "predictions.csv") == h1

    def test_entry_of_another_sampler_is_a_miss(self, tmp_path):
        # an f-bar cached under the key without the sampler's name, or under
        # the name of the draw with numpy's scramble bits, as earlier
        # constructions of the sphere draw wrote them, is never served
        from eqtoeplitz.cache import Cache
        out = tmp_path / "out"
        doc = base_config(out, model={"d": 3}, action={"W": [[1, 0, -1, 2], [0, 1, -1, -1]]},
                          symmetry={"phi": [0.3, 0.5, -0.8, 0.1]},
                          observable={"u_terms": [{"beta": [0, 1, 0, 0], "coef": 1.0}]},
                          isotype=[0, 0], sampling={"n_samples": 2 ** 14, "seed": 0})
        cfg = write_config(tmp_path, doc)
        raw = load_config(cfg).raw
        old_key = {"purpose": "f_bar_integral", "support": [0, 1, 2, 3],
                   "config": {s: raw[s] for s in ("model", "action", "symmetry", "observable")},
                   "n_samples": 2 ** 14, "seed": 0}
        for key in (old_key, dict(old_key, sampler="sobol-exponential-moduli")):
            Cache(out / "cache").put(key, {"re": 99.0, "im": 0.0, "stderr": 0.0})
        assert main(["analyze", "--config", cfg]) == 0
        header, rows = read_csv(out / "components.csv")
        assert float(rows[0][header.index("f_bar_re")]) != 99.0
        keys = [json.loads((out / "cache" / name).read_text())["key"]
                for name in os.listdir(out / "cache")]
        new_key = next(key for key in keys if key.get("sampler") == geometry.SAMPLER)
        assert len(keys) == 3 and dict(new_key, sampler=None) == dict(old_key, sampler=None)

    def test_cache_hit_identical(self, tmp_path):
        from eqtoeplitz.cache import Cache
        c = Cache(tmp_path / "c")
        key = {"purpose": "t", "seed": 1}
        assert c.get(key) is None
        c.put(key, {"v": 1.25})
        assert c.get(key) == {"v": 1.25}

    @pytest.mark.parametrize("text", ["[1, 2]", '"text"', "3.5"])
    def test_entry_that_is_not_a_json_object_is_a_miss(self, tmp_path, text):
        # a file that parses as JSON but not as an object is corrupted too
        from eqtoeplitz.cache import Cache
        c, key = Cache(tmp_path), {"purpose": "t", "seed": 1}
        c.put(key, {"v": 99.0})
        with open(c._path(key), "w", encoding="utf-8") as fh:
            fh.write(text)
        assert c.get(key) is None
        assert c.get_or_compute(key, lambda: {"v": 1.25}) == {"v": 1.25} == c.get(key)

    def test_files_are_named_by_crc32_and_a_shared_name_is_a_miss(self, tmp_path):
        # a file is named by the crc32 of the canonical key and holds the full
        # key: a key whose name holds another key's entry reads a miss
        from eqtoeplitz.cache import Cache
        c = Cache(tmp_path)
        key, other = {"purpose": "t", "seed": 1}, {"purpose": "t", "seed": 2}
        c.put(key, {"v": 1.25})
        name = f"{zlib.crc32(json.dumps(key, sort_keys=True, separators=(',', ':')).encode()):08x}"
        assert os.listdir(tmp_path) == [f"{name}.json"]
        os.replace(tmp_path / f"{name}.json", c._path(other))
        assert c.get(other) is None and c.get(key) is None

    def test_entry_named_by_sha256_is_a_miss(self, tmp_path):
        # an entry written as earlier versions wrote it, named and checksummed
        # by sha256, is never read
        from eqtoeplitz.cache import Cache
        key, value = {"purpose": "t", "seed": 1}, {"v": 99.0}

        def sha(obj):
            return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":"))
                                  .encode()).hexdigest()

        (tmp_path / f"{sha(key)}.json").write_text(
            json.dumps({"key": key, "value": value, "checksum": sha(value)}))
        c = Cache(tmp_path)
        assert c.get(key) is None
        assert c.get_or_compute(key, lambda: {"v": 1.25}) == {"v": 1.25}


def decay_config(out, **probe):
    # P2 under the circle W=[[1,-1,-1]], probed off the zero locus
    return base_config(out, model={"d": 2}, action={"W": [[1, -1, -1]]},
                       symmetry={"phi": [0.0, 0.0, 0.0]},
                       observable={"u_terms": [{"beta": [0, 0, 0], "coef": 1.0}]},
                       isotype=[0],
                       kernel_probe={"type": "decay",
                                     "point": [0.894427190999916, 0.3872983346207417,
                                               0.22360679774997896],
                                     "k_values": [40, 80, 120, 160, 200], **probe})


S = 1 / math.sqrt(2)


def scaling_config(out, **probe):
    # P1 under W=[[1,-1]] at the zero-locus point (S, S), tangent displacements
    return base_config(out, model={"d": 1}, action={"W": [[1, -1]]},
                       symmetry={"phi": [0.0, 0.0]},
                       observable={"u_terms": [{"beta": [0, 0], "coef": 1.0}]},
                       isotype=[0],
                       kernel_probe={"type": "scaling",
                                     "point": [S, S],
                                     "displacement_w": [[-S * 0.8, 0.0], [S * 0.8, 0.0]],
                                     "displacement_v": [[-S * 0.8, 0.0], [S * 0.8, 0.0]],
                                     "k_values": [200, 400], **probe})


class TestKernelCommands:
    def test_decay_probe_csv(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, decay_config(out))
        assert main(["kernel", "--config", cfg]) == 0
        header, rows = read_csv(out / "kernel_decay.csv")
        assert len(rows) == 5

    def test_scaling_probe_csv(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, scaling_config(out))
        assert main(["kernel", "--config", cfg]) == 0
        header, rows = read_csv(out / "kernel_scaling.csv")
        ir = header.index("abs_ratio")
        assert all(abs(float(r[ir]) - 1) < 0.05 for r in rows)

    def test_kernel_without_probe_config(self, tmp_path):
        cfg = write_config(tmp_path, base_config(tmp_path / "o"))
        assert main(["kernel", "--config", cfg]) == 2

    @pytest.mark.parametrize("ks", [[-5, 10], ["a"], [], [10.7, 20], [0]],
                             ids=["negative", "string", "empty", "float", "zero"])
    def test_bad_k_values_exit_2(self, tmp_path, capsys, ks):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, decay_config(out, k_values=ks))
        assert main(["kernel", "--config", cfg]) == 2
        assert "k_values" in capsys.readouterr().err
        assert not (out / "kernel_decay.csv").exists()

    @pytest.mark.parametrize("command", ["analyze", "kernel"])
    @pytest.mark.parametrize("probe, message", [
        ({"point": [0.6, 0.8]}, "point must be d+1 = 3"),
        ({"point": [[0.6, 0.0], [0.8, 0.0]]}, "point must be d+1 = 3"),
        ({"point": [0.0, 0.0, 0.0]}, "point must be nonzero"),
        ({"point": ["a", 0.5, 0.5]}, "point must be d+1 = 3"),
        ({"point": [math.nan, 0.5, 0.5]}, "point must be d+1 = 3"),
        ({"point": None}, "point is required"),
        ({"second_point": [[0.0, 0.0]] * 3}, "second_point must be nonzero"),
        ({"displacement_w": [0.1, 0.2]}, "displacement_w must be d+1 = 3"),
        ({"point": [True, False, True]}, "point must be d+1 = 3"),
        ({"point": ["1", "0", "1"]}, "point must be d+1 = 3"),
        ({"second_point": [[0.6, 0.0], [0.8, False], [0.0, 0.0]]}, "second_point must be d+1"),
        ({"displacement_v": [[0.1, 0.0], 0.2, 0.3]}, "displacement_v must be d+1 = 3"),
    ], ids=["short", "short-pairs", "zero", "string", "nan", "missing", "zero-pairs",
            "short-displacement", "booleans", "numeric-strings", "boolean-in-pair",
            "mixed-pairs"])
    def test_malformed_probe_input_exit_2(self, tmp_path, capsys, command, probe, message):
        # probe inputs are validated with the config, by every subcommand
        out = tmp_path / "out"
        cfg = write_config(tmp_path, decay_config(out, **probe))
        assert main([command, "--config", cfg]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_probe_points_parsed_once(self, tmp_path):
        cfg = parse_config(decay_config(tmp_path, point=[[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]],
                                        displacement_v=[1, 2, 3]))
        probe = cfg.kernel_probe
        assert np.allclose(probe["point"], [0.6, 0.8j, 0.0], rtol=0.0, atol=1e-15)
        assert probe["second_point"] is probe["point"]
        assert np.array_equal(probe["displacement_v"], np.array([1, 2, 3], complex))
        assert np.array_equal(probe["displacement_w"], np.zeros(3, complex))

    @pytest.mark.parametrize("doc, message", [
        (scaling_config("o", point=[0.8, 0.6]), "zero locus"),
        (scaling_config("o", displacement_w=[[-S * 3, 0.0], [S * 3, 0.0]]), "norm at most 2"),
        (scaling_config("o", displacement_v=[[S * 0.8, 0.0], [S * 0.8, 0.0]]), "tangent"),
        (decay_config("o", point=[S, 0.5, 0.5]), "concentration set"),
        (decay_config("o", k_values=[10]), "two distinct levels"),
        (decay_config("o", k_values=[10, 20]), "two distinct levels"),
        (decay_config("o", k_values=[20, 20, 20]), "two distinct levels"),
    ], ids=["off-locus", "too-long", "not-tangent", "concentration-set", "one-level",
            "two-levels", "repeated-level"])
    def test_probe_precondition_exit_2(self, tmp_path, capsys, doc, message):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, dict(doc, output_dir=str(out)))
        assert main(["kernel", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not (out / "kernel_decay.csv").exists()
        assert not (out / "kernel_scaling.csv").exists()


class TestSelfTest:
    def test_selftest_passes(self, tmp_path, capsys):
        assert main(["selftest", "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "calibration_record.json").read_text())
        assert record["kappa_x"] == 1.0
        assert record["gamma_phase_sign"] == -1
        assert set(record["pin_checks"]) == {"calibrate-kappa-x", "pin-gamma-phase",
                                             "pin-h-orientation", "pin-moment-sign"}
        assert all(c["passed"] and c["detail"] for c in record["pin_checks"].values())
        assert record["verified"] is True

    @pytest.mark.parametrize("pin", FLIPPABLE_PINS)
    def test_flip_pin_fails_named_check(self, tmp_path, capsys, pin):
        code = main(["selftest", "--out", str(tmp_path), "--debug-flip-pin", pin])
        out = capsys.readouterr().out
        assert code == 4
        assert "FAIL" in out and f"pin-{pin}" in out
        record = json.loads((tmp_path / "calibration_record.json").read_text())
        assert {name: c["passed"] for name, c in record["pin_checks"].items()} == {
            "calibrate-kappa-x": True, **{f"pin-{p}": p != pin for p in FLIPPABLE_PINS}}
        assert record["verified"] is False

    def test_run_record_written(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, k_range={"min": 1, "max": 6, "step": 1})
        assert main(["trace", "--config", write_config(tmp_path, doc)]) == 0
        record = json.loads((out / "run_record.json").read_text())
        assert record["calibration"]["kappa_x"] == 1.0
        assert record["calibration"]["verified"] is False
        assert "trace.csv" in record["artifacts"]
        assert record["config"] == doc

    def test_run_record_counts_slice_rows(self, tmp_path):
        # trace and compare each record their sweep's slice rows (trace.csv's
        # dims summed), the lattice points walked for them and the blocks
        # their traces were summed in: W = [[1, -1, -1]] leaves one lattice
        # coordinate, so the walk visits only rows, and no level's slice
        # reaches a second block
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out, **P2_SWEEP))
        assert main(["trace", "--config", cfg]) == 0
        assert main(["compare", "--config", cfg]) == 0
        header, rows = read_csv(out / "trace.csv")
        dims = sum(int(row[header.index("dim")]) for row in rows)
        counters = json.loads((out / "run_record.json").read_text())["counters"]
        assert dims > 0 and set(counters) == {"trace", "compare"}
        nonempty = sum(int(row[header.index("dim")]) > 0 for row in rows)
        assert counters["trace"] == counters["compare"] == {
            "slice_rows": dims, "slice_points_walked": dims, "slice_blocks": nonempty}

    def test_different_config_starts_a_new_record(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, k_range={"min": 2, "max": 12, "step": 1})
        assert main(["trace", "--config", write_config(tmp_path, doc)]) == 0
        doc["k_range"]["max"] = 10
        assert main(["predict", "--config", write_config(tmp_path, doc, "cfg2.json")]) == 0
        record = json.loads((out / "run_record.json").read_text())
        assert record["config"] == doc
        assert set(record["timings_seconds"]) == {"predict"}
        assert record["artifacts"] == ["predictions.csv"]

    @pytest.mark.parametrize("field, value", [
        ("artifacts", {}), ("artifacts", "trace.csv"), ("artifacts", [1]),
        ("timings_seconds", []), ("counters", "x")])
    def test_record_field_of_the_wrong_type_starts_a_new_record(self, tmp_path, field, value):
        # a record of the same config whose field has the wrong type is
        # unreadable: the next run replaces it, and exits 0
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out, k_range={"min": 2, "max": 12}))
        assert main(["trace", "--config", cfg]) == 0
        path = out / "run_record.json"
        path.write_text(json.dumps(json.loads(path.read_text()) | {field: value}))
        assert main(["predict", "--config", cfg]) == 0
        record = json.loads(path.read_text())
        assert set(record["timings_seconds"]) == {"predict"}
        assert record["artifacts"] == ["predictions.csv"]

    def test_run_records_merge_across_subcommands(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out, k_range={"min": 2, "max": 12,
                                                               "step": 1}))
        assert main(["trace", "--config", cfg]) == 0
        assert main(["predict", "--config", cfg]) == 0
        record = json.loads((out / "run_record.json").read_text())
        assert set(record["timings_seconds"]) == {"trace", "predict"}
        assert {"trace.csv", "predictions.csv"} <= set(record["artifacts"])


#: scipy modules no subcommand needs: the Sobol scramble and the slice
#: polytope are numpy, and log Gamma is `math.lgamma`
HEAVY = ("scipy.optimize", "scipy.linalg", "scipy.stats", "scipy.special")
#: loaded by no subcommand: the sampler's Sobol direction numbers are a
#: committed table, and its scramble bits come from the stdlib generator
SAMPLER = ("scipy", "numpy.random")
#: makes scipy look uninstalled: importing it or any submodule fails
NO_SCIPY = """
import sys
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
sys.meta_path.insert(0, NoScipy())
"""
#: the layers `trace` does not run
NOT_TRACE = ("eqtoeplitz.reduction", "eqtoeplitz.asymptotics", "eqtoeplitz.selftest",
             "eqtoeplitz.cache")
#: loaded by no subcommand: OpenSSL's hashes (the cache names its files by
#: zlib's crc32), numpy's masked arrays (which `np.unique(axis=0)` loads) and
#: dataclasses (every record is a namedtuple)
UNUSED = ("_hashlib", "numpy.ma", "dataclasses")
#: `loaded(names)`: the loaded modules that are one of names or inside one
LOADED = """
import sys
def loaded(names):
    return [m for m in sys.modules if any(m == n or m.startswith(n + ".") for n in names)]
"""


class TestImport:
    def run_isolated(self, code):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", LOADED + code], check=True, env=env,
                       timeout=120)

    def test_cli_import_skips_scipy_stats(self, tmp_path):
        # start-up and config load: nothing of scipy, numpy.random, OpenSSL or
        # numpy.ma, and no layer a subcommand imports when it runs
        cfg = write_config(tmp_path, base_config(tmp_path / "out"))
        self.run_isolated(f"""
import eqtoeplitz.cli as cli
cli.load_config({cfg!r})
found = loaded({HEAVY + SAMPLER + UNUSED + NOT_TRACE!r} + ("concurrent.futures",))
assert not found, found
""")

    def test_trace_and_kernel_skip_lp_linalg_and_stats(self, tmp_path):
        # trace and kernel draw no sphere sample; analyze draws the zero-locus
        # sample, which loads neither scipy nor numpy.random
        out = tmp_path / "out"
        cfg = write_config(tmp_path, decay_config(out, k_values=[20, 40, 60]))
        self.run_isolated(f"""
from eqtoeplitz.cli import main
assert main(["trace", "--config", {cfg!r}]) == 0
assert main(["kernel", "--config", {cfg!r}]) == 0
found = loaded({HEAVY + SAMPLER + UNUSED!r})
assert not found, found
assert main(["analyze", "--config", {cfg!r}]) == 0
assert "scipy" not in sys.modules
found = loaded({HEAVY + SAMPLER!r})
assert not found, found
""")
        assert (out / "trace.csv").exists() and (out / "kernel_decay.csv").exists()

    def test_trace_loads_only_its_layers(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, decay_config(out, k_values=[20, 40, 60]))
        self.run_isolated(f"""
from eqtoeplitz.cli import main
assert main(["trace", "--config", {cfg!r}]) == 0
found = loaded({HEAVY + SAMPLER + UNUSED + NOT_TRACE!r})
assert not found, found
""")
        assert (out / "trace.csv").exists()

    def test_decay_kernel_loads_no_reduction_or_trace(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, decay_config(out, k_values=[20, 40, 60]))
        self.run_isolated(f"""
from eqtoeplitz.cli import main
assert main(["kernel", "--config", {cfg!r}]) == 0
found = loaded(("eqtoeplitz.reduction", "eqtoeplitz.toeplitz"))
assert not found, found
""")
        assert (out / "kernel_decay.csv").exists()

    def test_exact_f_bar_loads_no_cache(self, tmp_path):
        # P2 with generic phases: isolated fixed points, no f-bar is sampled,
        # so no cache key is hashed
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(
            out, model={"d": 2}, action={"W": [[1, -1, -1]]},
            symmetry={"phi": [0.0, 1.1, 3.7]}, isotype=[0],
            observable={"u_terms": [{"beta": [0, 1, 0], "coef": 1.0}]},
            k_range={"min": 40, "max": 120, "step": 8}))
        self.run_isolated(f"""
from eqtoeplitz.cli import main
for cmd in ("analyze", "predict", "compare"):
    assert main([cmd, "--config", {cfg!r}]) == 0, cmd
found = loaded({HEAVY + SAMPLER + UNUSED!r} + ("eqtoeplitz.cache",))
assert not found, found
""")
        assert (out / "comparison.csv").exists()

    def test_no_subcommand_loads_optimize_or_stats(self, tmp_path):
        # the decay config's f-bar is sampled, so analyze, predict and compare
        # look it up in the cache, which hashes its keys with zlib's crc32:
        # no subcommand loads OpenSSL's hashes or numpy.ma
        out = tmp_path / "out"
        cfg = write_config(tmp_path, dict(decay_config(out, k_values=[20, 40, 60]),
                                          k_range={"min": 2, "max": 20, "step": 1}))
        self.run_isolated(f"""
from eqtoeplitz.cli import main
for cmd in ("trace", "kernel", "selftest", "analyze", "predict", "compare"):
    args = ["--out", {str(out)!r}] if cmd == "selftest" else ["--config", {cfg!r}]
    assert main([cmd, *args]) == 0, cmd
    found = loaded({HEAVY + SAMPLER + UNUSED!r})
    assert not found, (cmd, found)
assert "eqtoeplitz.cache" in sys.modules
""")
        assert (out / "comparison.csv").exists() and (out / "calibration_record.json").exists()

    def test_sampling_runs_without_scipy(self, tmp_path):
        # scipy is a test dependency only: with it unimportable, start-up and
        # a sampling analyze succeed and write the report they write with it
        cfg = write_config(tmp_path, base_config(tmp_path / "with", **D3_REDUCE))
        assert main(["analyze", "--config", cfg]) == 0
        self.run_isolated(NO_SCIPY + f"""
try:
    import scipy
except ModuleNotFoundError:
    pass
else:
    raise AssertionError("scipy was imported")
import eqtoeplitz.cli as cli
assert cli.main(["analyze", "--config", {cfg!r}, "--out", {str(tmp_path / "without")!r}]) == 0
assert not loaded(("scipy",))
""")
        report = "reduction_report.txt"
        assert ((tmp_path / "without" / report).read_text()
                == (tmp_path / "with" / report).read_text())


class TestBudgets:
    def test_sampling_above_the_direction_table_exits_4(self, tmp_path, capsys, monkeypatch):
        # P^32 needs 66 Sobol coordinates, over the committed 64: analyze
        # stops before any point is drawn; trace draws none and runs
        drawn = []
        monkeypatch.setattr(geometry, "_sobol", lambda *a: drawn.append(a))
        W = [[(-1) ** j for j in range(33)]]
        doc = base_config(tmp_path / "o", model={"d": 32}, action={"W": W},
                          symmetry={"phi": [0.0] * 33},
                          observable={"u_terms": [{"beta": [0] * 33, "coef": 1.0}]},
                          isotype=[0], k_range={"min": 0, "max": 4, "step": 1},
                          sampling={"n_samples": 2 ** 10, "seed": 0})
        cfg = write_config(tmp_path, doc)
        assert main(["analyze", "--config", cfg]) == 4
        assert "66 Sobol dimensions" in capsys.readouterr().err and not drawn
        assert main(["trace", "--config", cfg]) == 0
        assert (tmp_path / "o" / "trace.csv").exists()

    @pytest.mark.parametrize("cmd,d,k_max", [("trace", 8, 100), ("compare", 8, 100),
                                             ("trace", 1, 10 ** 12)])
    def test_oversize_k_range_exits_4(self, tmp_path, capsys, cmd, d, k_max):
        # the top level's slice walk is over the row budget (~10^7 points
        # in its fifth stage at d = 8, g = 2; 10^12 + 1 rows at d = 1): no
        # level is enumerated
        W = [[1, 0, -1, 2, -2, 1, -1, 0, 1], [0, 1, -1, -1, 1, 1, -1, 2, -1]] if d == 8 else []
        doc = base_config(tmp_path / "o", model={"d": d}, action={"W": W},
                          symmetry={"phi": [0.0] * (d + 1)},
                          observable={"u_terms": [{"beta": [0] * (d + 1), "coef": 1.0}]},
                          isotype=[0] * len(W), k_range={"min": 10, "max": k_max, "step": 1})
        cfg = write_config(tmp_path, doc)
        assert main([cmd, "--config", cfg]) == 4
        assert "budget" in capsys.readouterr().err
        assert not any((tmp_path / "o" / f).exists() for f in ("trace.csv", "comparison.csv"))

    @pytest.mark.parametrize("cmd", ["trace", "compare"])
    def test_lower_level_over_budget_exits_4(self, tmp_path, capsys, monkeypatch, cmd):
        # P2 under W = [[1, -1, -1]]: the odd top level has no row and passes
        # the check, the even level below it has one row over the budget and
        # fails the sweep before its last stage is built; no CSV is written.
        # trace sweeps levels 2,000,000..2,000,001 (1,000,001 rows) under the
        # real budget.  compare first needs the identity's 8 unknowns + 3
        # levels, so it sweeps levels 40..61 under a budget of 30 rows
        if cmd == "trace":
            k_range, level = {"min": 2_000_000, "max": 2_000_001}, 2_000_000
        else:
            monkeypatch.setattr(geometry, "MAX_SLICE_ROWS", 30)
            k_range, level = {"min": 40, "max": 61}, 60
        out = tmp_path / "o"
        doc = base_config(out, **{**P2_SWEEP, "k_range": k_range})
        assert main([cmd, "--config", write_config(tmp_path, doc)]) == 4
        err = capsys.readouterr().err
        assert f"level {level} failed" in err and "over the budget" in err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("system, message", [
        ("p2-sweep", "8 unknowns and needs at least 11 levels, have 6"),
        ("d8", "7392 distinct roots and needs at least 7395 levels, have 61")],
        ids=["p2-sweep", "d8"])
    def test_identity_over_its_levels_exits_4_before_the_sweep(self, tmp_path, capsys,
                                                               monkeypatch, system, message):
        # from the components alone, before any level: the p2-sweep identity
        # has 8 unknowns at step 1 and needs 11 levels, and a regular d = 8
        # system's vertex denominators {3, 6, 7, 22, 32} give q = 7,392 roots
        # of unity per coset phase (59,136 unknowns), which are not listed
        import eqtoeplitz.toeplitz as tp

        def sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")
        monkeypatch.setattr(tp, "trace_sweep", sweep)
        out = tmp_path / "o"
        if system == "p2-sweep":
            doc = base_config(out, **{**P2_SWEEP, "k_range": {"min": 40, "max": 45}})
        else:
            W = np.array([[1, 2, 3, 3, 3, -3, 2, 0, 1], [-2, -3, -3, 3, 3, -1, 0, -2, -2]])
            doc = base_config(out, model={"d": 8}, action={"W": W.tolist()},
                              symmetry={"phi": (np.array([0.3, 0.5]) @ W).tolist()},
                              observable={"u_terms": [{"beta": [0, 1] + [0] * 7, "coef": 1.0}]},
                              isotype=[0, 0], k_range={"min": 0, "max": 60, "step": 1},
                              sampling={"n_samples": 2 ** 18, "seed": 0})
        t0 = time.perf_counter()
        assert main(["compare", "--config", write_config(tmp_path, doc)]) == 4
        assert time.perf_counter() - t0 < 1.0
        assert message in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("cmd", ["trace", "predict", "compare"])
    def test_level_count_is_checked_before_any_walk(self, tmp_path, capsys, monkeypatch, cmd):
        # d = 1, k = 1..10^12: over MAX_LEVELS, and the top level's 10^12 + 1
        # slice rows are over the row budget.  The count is checked first,
        # so no slice is walked; predict walks none at all
        walked = []
        monkeypatch.setattr(geometry, "_weight_slice", lambda *a: walked.append(a))
        out = tmp_path / "o"
        cfg = write_config(tmp_path, base_config(out, k_range={"min": 1, "max": 10 ** 12}))
        assert main([cmd, "--config", cfg]) == 4
        assert "1000000000000 levels, over the budget" in capsys.readouterr().err
        assert not walked and not list(out.glob("*.csv"))

    def test_degenerate_symmetry_exits_4(self, tmp_path, capsys, monkeypatch):
        # a vanishing c_l is a numeric failure that names its own type
        def degenerate(*args, **kwargs):
            raise red.DegenerateSymmetryError("normal eigenvalue 1")
        monkeypatch.setattr(red, "component_invariants", degenerate)
        cfg = write_config(tmp_path, base_config(tmp_path / "o", **P2_SWEEP))
        assert main(["predict", "--config", cfg]) == 4
        assert ("numeric failure [DegenerateSymmetryError]: normal eigenvalue 1"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("cmd", ["trace", "predict", "compare"])
    def test_too_many_levels_exits_4(self, tmp_path, capsys, cmd):
        # d = 1, k = 1..999,999: the top level's 10^6 slice rows fit their
        # budget, the 999,999 levels do not fit MAX_LEVELS
        out = tmp_path / "o"
        cfg = write_config(tmp_path, base_config(out, k_range={"min": 1, "max": 999_999}))
        t0 = time.perf_counter()
        assert main([cmd, "--config", cfg]) == 4
        assert time.perf_counter() - t0 < 1.0
        assert "999999 levels, over the budget" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_too_many_probe_levels_exits_4(self, tmp_path, capsys, monkeypatch):
        probed = []
        monkeypatch.setattr(asymptotics, "isotype_basis", lambda *a: probed.append(a))
        monkeypatch.setattr(cli, "MAX_LEVELS", 3)
        out = tmp_path / "o"
        cfg = write_config(tmp_path, decay_config(out, k_values=[20, 40, 60, 80]))
        assert main(["kernel", "--config", cfg]) == 4
        assert "4 levels, over the budget of 3" in capsys.readouterr().err
        assert not probed and not (out / "kernel_decay.csv").exists()

    def test_oversize_kernel_probe_exits_4(self, tmp_path, capsys, monkeypatch):
        # level 2,000,002 has 1,000,002 slice rows: refused before the
        # levels 20 and 40 below it are probed
        probed = []
        monkeypatch.setattr(asymptotics, "isotype_basis", lambda *a: probed.append(a))
        out = tmp_path / "o"
        cfg = write_config(tmp_path, decay_config(out, k_values=[20, 40, 2000000, 2000002]))
        assert main(["kernel", "--config", cfg]) == 4
        assert "budget" in capsys.readouterr().err
        assert not probed and not (out / "kernel_decay.csv").exists()

    def test_oversize_component_search_exits_4(self, tmp_path, capsys, monkeypatch):
        # distinct phases on P^11 without a group: the generic support and the
        # 12 singletons fit a budget of 40 solves, the 66 pairs do not
        solve = red._solve_support
        solved = []
        monkeypatch.setattr(red, "MAX_SUPPORT_SOLVES", 40)
        monkeypatch.setattr(red, "_solve_support",
                            lambda *a: solved.append(a[2]) or solve(*a))
        doc = base_config(tmp_path / "o", model={"d": 11},
                          symmetry={"phi": np.linspace(0.0, 5.5, 12).tolist()},
                          observable={"u_terms": [{"beta": [0] * 12, "coef": 1.0}]},
                          k_range={"min": 2, "max": 8, "step": 1})
        cfg = write_config(tmp_path, doc)
        assert main(["predict", "--config", cfg]) == 4
        assert "budget" in capsys.readouterr().err
        assert len(solved) == 13
        assert not (tmp_path / "o" / "predictions.csv").exists()

    @pytest.mark.parametrize("cmd", ["analyze", "predict"])
    def test_stabilizer_over_cap_exits_4(self, tmp_path, capsys, cmd):
        # the vertex stratum {0, 1} of W = [[-4099, 1, 1]] has a stabilizer of
        # order 4,100, above the MAX_STABILIZER_ORDER = 4,096 angles
        # torsion_angles lists
        doc = base_config(tmp_path / "o", model={"d": 2}, action={"W": [[-4099, 1, 1]]},
                          symmetry={"phi": [0.0, 0.4, 1.1]},
                          observable={"u_terms": [{"beta": [0, 0, 0], "coef": 1.0}]},
                          isotype=[0], k_range={"min": 2, "max": 8, "step": 1})
        cfg = write_config(tmp_path, doc)
        assert main([cmd, "--config", cfg]) == 4
        assert "stabilizer order 4100 is over the budget of 4096" in capsys.readouterr().err
        assert not any((tmp_path / "o" / f).exists()
                       for f in ("components.csv", "predictions.csv"))

    def test_torus_grid_over_budget_exits_4(self, tmp_path, capsys):
        # the decay probe's orbit distance walks a 256^g torus grid: at g = 4
        # its 2^32 points are refused before the first block
        W = np.hstack([np.eye(4, dtype=int), -np.ones((4, 1), dtype=int)]).tolist()
        out = tmp_path / "o"
        doc = base_config(out, model={"d": 4}, action={"W": W},
                          symmetry={"phi": [0.0] * 5},
                          observable={"u_terms": [{"beta": [0] * 5, "coef": 1.0}]},
                          isotype=[0] * 4,
                          kernel_probe={"type": "decay", "point": [0.8, 0.4, 0.4, 0.2, 0.0],
                                        "k_values": [5, 10, 15, 20]})
        cfg = write_config(tmp_path, doc)
        t0 = time.perf_counter()
        assert main(["kernel", "--config", cfg]) == 4
        assert time.perf_counter() - t0 < 1.0
        assert "256^4" in capsys.readouterr().err
        assert not (out / "kernel_decay.csv").exists()
