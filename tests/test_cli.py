import argparse
import csv
import json
import os
from dataclasses import MISSING

import numpy as np
import pytest

from hdffm import (
    DgpConfig,
    Panel,
    build_bspline,
    fit_factors,
    fit_from_dict,
    functional_space,
    gen_dgp,
    load_panel,
    persistence_forecast,
    save_panel,
)
from hdffm import cli
from hdffm.cli import main
from conftest import rank_k_panel
from test_fbasis import load_perfbench_tables


def write_dgp_config(path, **kw):
    cfg = {"dgp": 1, "N": 10, "T": 50, "seed": 4}
    cfg.update(kw)
    path.write_text(json.dumps(cfg))
    return cfg


def read_csv_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return list(csv.reader(lines))


class TestSimulate:
    def test_writes_declared_shapes(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_dgp_config(cfg_path, N=6, T=30)
        out = tmp_path / "panel.json"
        truth = tmp_path / "truth.json"
        assert main(["simulate", "--config", str(cfg_path), "--out-panel", str(out),
                     "--out-truth", str(truth)]) == 0
        panel = load_panel(out)
        assert panel.N == 6 and panel.T == 30
        doc = json.loads(truth.read_text())
        assert np.asarray(doc["U"]).shape == (3, 30)

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_dgp_config(cfg_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["simulate", "--config", str(cfg_path), "--out-panel", str(a)])
        main(["simulate", "--config", str(cfg_path), "--out-panel", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_config_exit_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_dgp_config(cfg_path, dgp=9)
        assert main(["simulate", "--config", str(cfg_path),
                     "--out-panel", str(tmp_path / "x.json")]) == 2

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_dgp_config(cfg_path, n_factor=2)
        assert main(["simulate", "--config", str(cfg_path),
                     "--out-panel", str(tmp_path / "x.json")]) == 2
        assert "n_factor" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("N", None, "N must be an integer, got null"),
        ("N", 5.7, "N must be an integer, got 5.7"),
        ("N", "6", 'N must be an integer, got "6"'),
        ("dgp", True, "dgp must be an integer, got true"),
    ], ids=["null-N", "fractional-N", "string-N", "bool-dgp"])
    def test_wrongly_typed_key_exit_2(self, tmp_path, capsys, key, value, message):
        cfg_path = tmp_path / "cfg.json"
        write_dgp_config(cfg_path, **{key: value})
        out = tmp_path / "x.json"
        assert main(["simulate", "--config", str(cfg_path), "--out-panel", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("n_factors", 0, "n_factors must be >= 1, got 0"),
        ("n_factors", -1, "n_factors must be >= 1, got -1"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("fixed_design_seed", -5, "fixed_design_seed must be >= 0, got -5"),
    ], ids=["zero-factors", "negative-factors", "negative-seed", "negative-design-seed"])
    def test_out_of_range_key_named(self, tmp_path, capsys, key, value, message):
        cfg_path = tmp_path / "cfg.json"
        write_dgp_config(cfg_path, **{key: value})
        out = tmp_path / "x.json"
        assert main(["simulate", "--config", str(cfg_path), "--out-panel", str(out)]) == 2
        assert f"validation error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_key_named(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dgp": 1, "N": 10, "seed": 4}))
        out = tmp_path / "x.json"
        assert main(["simulate", "--config", str(cfg_path), "--out-panel", str(out)]) == 2
        assert "validation error: missing key 'T'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exit_4(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out-panel", str(tmp_path / "x.json")]) == 4


class TestEstimate:
    def test_noiseless_rank1_reports_zero_v(self, tmp_path, rng, capsys):
        panel, _, _ = rank_k_panel(rng, N=5, T=12, k=1)
        ppath = tmp_path / "p.json"
        save_panel(panel, ppath)
        out = tmp_path / "fit.json"
        assert main(["estimate", "--panel", str(ppath), "--k", "1", "--out", str(out)]) == 0
        assert float(capsys.readouterr().out.split("V=")[1]) < 1e-10
        doc = json.loads(out.read_text())
        assert doc["k"] == 1

    def test_fit_json_reads_back(self, tmp_path, rng):
        # README's API table: fit_from_dict reads the estimate command's output
        panel, _, _ = rank_k_panel(rng, N=5, T=12, k=2)
        ppath, out = tmp_path / "p.json", tmp_path / "fit.json"
        save_panel(panel, ppath)
        assert main(["estimate", "--panel", str(ppath), "--k", "2", "--out", str(out)]) == 0
        back, fresh = fit_from_dict(json.loads(out.read_text())), fit_factors(load_panel(ppath), 2)
        assert back.k == 2 and back.trace_F == fresh.trace_F
        for name in ("lambda_hat", "factors", "e_hat", "b_tilde"):
            assert np.array_equal(getattr(back, name), getattr(fresh, name)), name

    def test_k_zero_on_shared_gram_panel(self, tmp_path, rng):
        # adjacent B-spline series share one Gram, so they unwhiten as a run
        basis = build_bspline((0.0, 1.0), 5)
        spaces = [functional_space(5, basis.gram) for _ in range(3)]
        ppath = tmp_path / "p.json"
        save_panel(Panel(spaces, [rng.standard_normal((10, 5)) for _ in spaces]), ppath)
        out = tmp_path / "fit.json"
        assert main(["estimate", "--panel", str(ppath), "--k", "0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["k"] == 0

    def test_rank_deficient_exit_3(self, tmp_path, rng):
        panel, _, _ = rank_k_panel(rng, N=5, T=12, k=2)
        ppath = tmp_path / "p.json"
        save_panel(panel, ppath)
        assert main(["estimate", "--panel", str(ppath), "--k", "4",
                     "--out", str(tmp_path / "f.json")]) == 3

    def test_nan_csv_exit_2(self, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        path.write_text("1.0,2.0,3.0\n4.0,nan,6.0\n")
        assert main(["estimate", "--panel", str(path), "--k", "1",
                     "--out", str(tmp_path / "f.json")]) == 2
        assert "series 1: non-finite coefficient at time 1" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("1.0,2.0,3.0\n4.0,abc,6.0\n", "line 2: could not convert string to float: 'abc'"),
        ("# panel\n1.0,2.0,3.0\n4.0,5.0\n", "line 3: ragged CSV panel, 2 values where earlier rows have 3"),
        ("# only a comment\n\n", "empty CSV panel"),
    ], ids=["non-numeric", "ragged", "no-rows"])
    def test_malformed_csv_names_the_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "panel.csv"
        path.write_text(text)
        assert main(["estimate", "--panel", str(path), "--k", "1",
                     "--out", str(tmp_path / "f.json")]) == 2
        assert message in capsys.readouterr().err

    def test_output_matches_in_process_fit(self, tmp_path, rng):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=8, T=30, seed=3))
        ppath = tmp_path / "p.json"
        save_panel(panel, ppath)
        out = tmp_path / "fit.json"
        main(["estimate", "--panel", str(ppath), "--k", "2", "--out", str(out)])
        doc = json.loads(out.read_text())
        fresh = fit_factors(panel, 2)
        assert np.allclose(doc["lambda_hat"], fresh.lambda_hat, atol=1e-12)


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_parser_flags_follow_settings_table(command):
    # each setting has one flag, named after its key, checked as the table types it,
    # required exactly when it has no default, and defaulting to None, which the
    # command reads as not given; the parser declares no flag outside the table
    func, table, _ = cli.COMMANDS[command]
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    parser = subparsers.choices[command]
    assert parser.get_default("func") is func
    actions = [a for a in parser._actions if a.option_strings != ["-h", "--help"]]
    assert [a.dest for a in actions] == list(table)
    for key, (default, kind, _) in table.items():
        flags = [a for a in actions if a.dest == key]
        assert len(flags) == 1, key
        flag = flags[0]
        assert flag.option_strings == ["--" + key.replace("_", "-")]
        if isinstance(kind, tuple):
            assert tuple(flag.choices) == kind and flag.type is None, key
        else:
            assert flag.type is kind and flag.choices is None, key
        assert flag.default is None, key
        assert flag.required is (default is MISSING), key


class TestSelectR:
    def test_c_zero_prints_k_max(self, tmp_path, capsys):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=10, T=40, seed=5))
        ppath = tmp_path / "p.json"
        save_panel(panel, ppath)
        assert main(["select-r", "--panel", str(ppath), "--method", "fixed",
                     "--c", "0", "--k-max", "8"]) == 0
        assert capsys.readouterr().out.strip() == "8"

    def test_scalar_csv_panel_accepted(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((6, 40))
        path = tmp_path / "panel.csv"
        path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows))
        assert main(["select-r", "--panel", str(path), "--method", "fixed",
                     "--c", "0", "--k-max", "5"]) == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_abc_on_dgp1(self, tmp_path, capsys):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=30, T=80, seed=6))
        ppath = tmp_path / "p.json"
        save_panel(panel, ppath)
        trace_path = tmp_path / "trace.json"
        assert main(["select-r", "--panel", str(ppath), "--trace", str(trace_path)]) == 0
        printed = int(capsys.readouterr().out.strip())
        assert printed == 3
        # the trace re-derives the final choice
        doc = json.loads(trace_path.read_text())
        per_p = []
        for p, idx in enumerate(doc["chosen_c_index"]):
            if idx is None:
                per_p.append(doc["r_hat_per_p"][p])
            else:
                per_p.append(doc["r_hat_table"][idx][-1][p])
        moved = sorted(per_p)[(len(per_p) - 1) // 2]
        assert moved == doc["r_hat_final"] == printed

    def test_variance_csv_matches_the_trace(self, tmp_path):
        ppath = tmp_path / "p.json"
        save_panel(gen_dgp(DgpConfig(dgp=1, N=10, T=40, seed=5))[0], ppath)
        trace_path, csv_path = tmp_path / "trace.json", tmp_path / "profile.csv"
        assert main(["select-r", "--panel", str(ppath), "--trace", str(trace_path),
                     "--variance-csv", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 203
        doc = json.loads(trace_path.read_text())
        assert lines[0] == "# manifest: " + json.dumps(doc["manifest"], sort_keys=True)
        assert lines[1] == "c,var_p1,var_p2,var_p3,var_p4,var_p5"
        rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
        assert [row[0] for row in rows] == doc["c_grid"]
        assert [row[1:] for row in rows] == doc["variance_profile"]


    @pytest.mark.parametrize("flag", ["--trace", "--variance-csv"])
    def test_fixed_with_trace_output_exit_2(self, tmp_path, capsys, flag):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=10, T=40, seed=5))
        ppath = tmp_path / "p.json"
        save_panel(panel, ppath)
        out = tmp_path / "trace.out"
        assert main(["select-r", "--panel", str(ppath), "--method", "fixed",
                     flag, str(out)]) == 2
        assert "--method abc" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("flags, message", [
        (["--method", "abc", "--c", "9.5"], "--c applies only to --method fixed"),
        (["--c", "1.0"], "--c applies only to --method fixed"),
        (["--method", "fixed", "--P", "-3", "--seed", "9"], "--P applies only to --method abc"),
        (["--method", "fixed", "--seed", "0"], "--seed applies only to --method abc"),
    ], ids=["abc-c", "default-method-c", "fixed-P", "fixed-seed"])
    def test_flag_outside_its_method_rejected(self, tmp_path, capsys, flags, message):
        ppath = tmp_path / "p.json"
        save_panel(gen_dgp(DgpConfig(dgp=1, N=10, T=40, seed=5))[0], ppath)
        assert main(["select-r", "--panel", str(ppath), *flags]) == 2
        assert message in capsys.readouterr().err

    def test_negative_seed_named(self, tmp_path, capsys):
        ppath = tmp_path / "p.json"
        save_panel(gen_dgp(DgpConfig(dgp=1, N=10, T=40, seed=5))[0], ppath)
        assert main(["select-r", "--panel", str(ppath), "--seed", "-2"]) == 2
        assert "validation error: rng_seed must be >= 0, got -2\n" in capsys.readouterr().err

    def test_trace_manifest_fills_defaults(self, tmp_path):
        ppath = tmp_path / "p.json"
        save_panel(gen_dgp(DgpConfig(dgp=1, N=10, T=40, seed=5))[0], ppath)
        trace_path = tmp_path / "trace.json"
        assert main(["select-r", "--panel", str(ppath), "--trace", str(trace_path)]) == 0
        assert json.loads(trace_path.read_text())["manifest"]["args"] == {
            "panel": str(ppath), "kind": "IC2a", "k_max": 10, "P": 5, "seed": 0}

    @pytest.mark.parametrize("name, text, message", [
        ("p.json", "[1, 2]", "a panel must be a JSON object, got list"),
        ("p.json", '{"N": 1, "T": 30, "spaces": 5, "coeffs": []}', "panel 'spaces' must be a list"),
        ("p.json", '{"N": 1, "T": 2, "spaces": [null], "coeffs": [[[0.0], [1.0]]]}',
         "panel spaces[0] must be an object"),
        ("p.json", '{"N": 2, "T": ', "validation error"),
        ("p.csv", "1.0\n2.0\n3.0\n", "panel needs T >= 2"),
        ("p.json", '{"N": 1, "T": 2, "spaces": [{"kind": "scalar", "dim": null}], '
                   '"coeffs": [[[0.0], [1.0]]]}', "spaces[0].dim must be an integer, got null"),
        ("p.json", '{"N": 1, "T": 2, "spaces": [{"kind": "scalar", "dim": [1]}], '
                   '"coeffs": [[[0.0], [1.0]]]}', "spaces[0].dim must be an integer, got [1]"),
        ("p.json", '{"N": 1, "T": 2, "spaces": [{"kind": "functional", "dim": 2.5}], '
                   '"coeffs": [[[0.0, 1.0], [1.0, 0.0]]]}',
         "spaces[0].dim must be an integer, got 2.5"),
        ("p.json", '{"N": 2, "T": 2, "spaces": [{"kind": "scalar", "dim": 1}, '
                   '{"kind": "functional", "dim": 2, "gram": [[1.0, 0.0], [0.0]]}], '
                   '"coeffs": [[[0.0], [1.0]], [[0.0, 1.0], [1.0, 0.0]]]}',
         "spaces[1].gram must be a 2 x 2 list of numbers"),
        *[("p.json", '{"N": 1, "T": 2, "spaces": [{"kind": "functional", "dim": 2, "gram": '
                     + gram + '}], "coeffs": [[[0.0, 1.0], [1.0, 0.0]]]}',
           "spaces[0].gram must be a list of lists of numbers, got " + gram)
          for gram in ["[[NaN, 0.0], [0.0, 1.0]]", "[[1.0, 0.0], [0.0, Infinity]]",
                       "[[true, 0.0], [0.0, 1.0]]"]],
        ("p.json", '{"N": 1, "T": 2, "spaces": [{"kind": "functional", "dim": 2, '
                   '"Gram": [[2.0, 0.0], [0.0, 1.0]]}], "coeffs": [[[0.0, 1.0], [1.0, 0.0]]]}',
         "unknown spaces[0] keys ['Gram']; allowed: ['dim', 'gram', 'kind']"),
        ("p.json", '{"N": true, "T": 2, "spaces": [{"kind": "scalar", "dim": 1}], '
                   '"coeffs": [[[0.0], [1.0]]]}', "panel 'N' must be an integer, got true"),
        ("p.json", '{"N": 1, "T": 2.0, "spaces": [{"kind": "scalar", "dim": 1}], '
                   '"coeffs": [[[0.0], [1.0]]]}', "panel 'T' must be an integer, got 2.0"),
        ("p.json", '{"N": 1, "T": 2, "spaces": [{"kind": "curve", "dim": 1}], '
                   '"coeffs": [[[0.0], [1.0]]]}',
         "spaces[0].kind must be one of ['scalar', 'functional'], got \"curve\""),
        ("p.json", '{"N": 1, "T": 2, "spaces": [{"kind": "scalar", "dim": 2}], '
                   '"coeffs": [[[0.0, 1.0], [1.0, 0.0]]]}', "scalar series must have dim=1"),
        *[("p.json", '{"N": 2, "T": 2, "spaces": [{"kind": "scalar", "dim": 1}, '
                     '{"kind": "functional", "dim": 2}], "coeffs": [[[0.0], [1.0]], ' + block + ']}',
           "panel coeffs[1] must be a list of equal-length lists of numbers")
          for block in ["[[true, false], [false, true]]", '[["1.5", "2"], ["0", "1"]]',
                        "[[0.0, 1.0], [1.0]]"]],
    ], ids=["top-level-list", "spaces-not-a-list", "null-space", "malformed-json", "one-period-csv",
            "null-dim", "list-dim", "fractional-dim", "ragged-gram", "nan-gram", "infinite-gram",
            "bool-gram", "misspelt-gram", "bool-N", "float-T", "unknown-kind", "scalar-dim-2", "bool-coeffs",
            "string-coeffs", "ragged-coeffs"])
    def test_bad_panel_file_exit_2(self, tmp_path, capsys, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        assert main(["select-r", "--panel", str(path), "--method", "fixed"]) == 2
        assert message in capsys.readouterr().err

    def test_ragged_panel_file_names_the_reference_series(self, tmp_path, capsys):
        # series 0 has 5 periods, the others 40: the message says whose the 5 is
        doc = {"N": 3, "T": 40, "spaces": [{"kind": "scalar", "dim": 1}] * 3,
               "coeffs": [[[0.0]] * 5] + [[[float(t)] for t in range(40)]] * 2}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["select-r", "--panel", str(path), "--method", "fixed"]) == 2
        assert "series 1: time length 40 != 5 of series 0" in capsys.readouterr().err


class TestBench:
    def test_row_count_and_determinism(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HDFFM_THREADS", "1")
        spec = {"dgps": [1, 2], "N": [8], "T": [30, 40], "replications": 2,
                "k": [1, 3], "seed": 11}
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps(spec))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["bench", "--spec", str(spath), "--out", str(out1)]) == 0
        rows = read_csv_rows(out1)
        assert rows[0] == ["dgp", "N", "T", "k", "replication", "delta_sq", "epsilon_sq", "phi"]
        assert len(rows) - 1 == 2 * 1 * 2 * 2 * 2  # dgps * N * T * reps * k
        main(["bench", "--spec", str(spath), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_pool_matches_sequential(self, tmp_path, monkeypatch):
        spec = {"dgps": [1], "N": [8], "T": [30], "replications": 4, "k": [2], "seed": 5}
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps(spec))
        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        monkeypatch.setenv("HDFFM_THREADS", "1")
        main(["bench", "--spec", str(spath), "--out", str(seq)])
        monkeypatch.setenv("HDFFM_THREADS", "2")
        main(["bench", "--spec", str(spath), "--out", str(par)])
        assert seq.read_bytes() == par.read_bytes()

    def test_aggregation_matches_recomputation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HDFFM_THREADS", "1")
        spec = {"dgps": [1], "N": [10], "T": [40], "replications": 3, "k": [3], "seed": 2}
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps(spec))
        out = tmp_path / "m.csv"
        main(["bench", "--spec", str(spath), "--out", str(out)])
        rows = read_csv_rows(out)[1:]
        csv_mean_phi = np.mean([float(r[7]) for r in rows])
        from hdffm import common_component, phi_nt

        phis = []
        for rep in range(3):
            panel, truth = gen_dgp(DgpConfig(dgp=1, N=10, T=40, seed=2 + rep))
            fit = fit_factors(panel, 3)
            phis.append(phi_nt(common_component(fit), truth.chi))
        assert csv_mean_phi == pytest.approx(np.mean(phis), rel=1e-12)

    def test_selection_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HDFFM_THREADS", "1")
        spec = {"dgps": [1], "N": [10], "T": [40], "replications": 2, "k": [3],
                "seed": 2, "select": {"method": "fixed", "c": 0.2, "k_max": 6}}
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps(spec))
        out = tmp_path / "m.csv"
        main(["bench", "--spec", str(spath), "--out", str(out)])
        sel = read_csv_rows(tmp_path / "m.selection.csv")
        assert sel[0] == ["dgp", "N", "T", "replication", "r_hat"]
        assert len(sel) == 3

    def test_design_keys_passed_through(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HDFFM_THREADS", "1")
        spec = {"dgps": [1], "N": [20], "T": [60], "replications": 2, "k": [2],
                "seed": 3, "n_factors": 2, "select": {"method": "abc"}}
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps(spec))
        out = tmp_path / "m.csv"
        assert main(["bench", "--spec", str(spath), "--out", str(out)]) == 0
        from hdffm import common_component, phi_nt

        for row in read_csv_rows(out)[1:]:
            panel, truth = gen_dgp(DgpConfig(dgp=1, N=20, T=60, seed=3 + int(row[4]), n_factors=2))
            assert truth.U.shape == (2, 60)
            assert float(row[7]) == phi_nt(common_component(fit_factors(panel, 2)), truth.chi)
        r_hats = [int(r[4]) for r in read_csv_rows(tmp_path / "m.selection.csv")[1:]]
        under, over = sum(r < 2 for r in r_hats), sum(r > 2 for r in r_hats)
        assert f"{under} under, {over} over (r=2)" in capsys.readouterr().out

    @pytest.mark.parametrize("cap", ["abc", "0", "-1"])
    def test_bad_thread_cap_exit_2(self, tmp_path, monkeypatch, capsys, cap):
        monkeypatch.setenv("HDFFM_THREADS", cap)
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps({"dgps": [1], "N": [8], "T": [30], "replications": 1,
                                     "k": [1]}))
        assert main(["bench", "--spec", str(spath), "--out", str(tmp_path / "x.csv")]) == 2
        assert f"HDFFM_THREADS must be a positive integer, got {cap!r}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_threaded_selection_matches_serial(self, tmp_path, monkeypatch, capsys):
        # one job: no pool, and the whole cap goes to the selection's threads
        spec = {"dgps": [2], "N": [20], "T": [130], "replications": 1, "k": [2], "seed": 8,
                "select": {"method": "abc"}}
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps(spec))
        outputs = []
        for cap in ("1", "2"):
            monkeypatch.setenv("HDFFM_THREADS", cap)
            out = tmp_path / f"cap{cap}.csv"
            assert main(["bench", "--spec", str(spath), "--out", str(out)]) == 0
            assert f"(1 workers x {cap} selection threads)" in capsys.readouterr().out
            outputs.append([out.read_bytes(), (tmp_path / f"cap{cap}.selection.csv").read_bytes()])
        assert outputs[0] == outputs[1]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps({"dgps": [1], "N": [8], "T": [30], "replications": 1,
                                     "k": [1], "n_factor": 2}))
        assert main(["bench", "--spec", str(spath), "--out", str(tmp_path / "x.csv")]) == 2
        assert "n_factor" in capsys.readouterr().err

    def test_unknown_select_method_rejected(self, tmp_path, capsys):
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps({"dgps": [1], "N": [8], "T": [30], "replications": 1,
                                     "k": [1], "select": {"method": "tuned"}}))
        assert main(["bench", "--spec", str(spath), "--out", str(tmp_path / "x.csv")]) == 2
        assert "tuned" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_select_key_rejected(self, tmp_path, capsys):
        # a misspelled "method" must not silently run the tuned abc path
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps({"dgps": [1], "N": [10], "T": [40], "replications": 1,
                                     "k": [1], "select": {"metod": "fixed", "c": 0.0}}))
        assert main(["bench", "--spec", str(spath), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "unknown bench select keys ['metod']" in err
        assert "'method'" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("select, message", [
        ({"method": "abc", "c": 0.0}, "select.c applies only to select.method fixed"),
        ({"c": 0.0}, "select.c applies only to select.method fixed"),
        ({"method": "fixed", "P": 2}, "select.P applies only to select.method abc"),
        ({"method": "fixed", "c": 0.0, "seed": 9}, "select.seed applies only to select.method abc"),
    ], ids=["abc-c", "default-method-c", "fixed-P", "fixed-seed"])
    def test_select_key_outside_its_method_rejected(self, tmp_path, capsys, select, message):
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps({"dgps": [1], "N": [8], "T": [30], "replications": 1,
                                     "k": [1], "select": select}))
        assert main(["bench", "--spec", str(spath), "--out", str(tmp_path / "x.csv")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("select", [["method"], "fixed", []])
    def test_select_not_an_object_rejected(self, tmp_path, capsys, select):
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps({"dgps": [1], "N": [8], "T": [30], "replications": 1,
                                     "k": [1], "select": select}))
        assert main(["bench", "--spec", str(spath), "--out", str(tmp_path / "x.csv")]) == 2
        assert "bench select must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("change, message", [
        ({"N": 5}, "N must be a list of integers, got 5"),
        ({"T": [30.9]}, "T must be a list of integers, got [30.9]"),
        ({"seed": None}, "seed must be an integer, got null"),
        ({"select": {"method": "fixed", "c": [1]}}, "select.c must be a number, got [1]"),
        ({"select": {"k_max": "3"}}, 'select.k_max must be an integer, got "3"'),
    ], ids=["int-N", "fractional-T", "null-seed", "list-c", "string-k_max"])
    def test_wrongly_typed_key_rejected(self, tmp_path, capsys, change, message):
        spath, out = tmp_path / "spec.json", tmp_path / "x.csv"
        spath.write_text(json.dumps({"dgps": [1], "N": [8], "T": [30], "replications": 1,
                                     "k": [1], **change}))
        assert main(["bench", "--spec", str(spath), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, values", [("dgps", [1, 2, 1]), ("N", [8, 8]), ("T", [30, 30]),
                                             ("k", [1, 1])])
    def test_repeated_grid_value_rejected_before_any_replication(self, tmp_path, monkeypatch,
                                                                 capsys, key, values):
        calls = []
        monkeypatch.setattr(cli, "_bench_replication", calls.append)
        spath, out = tmp_path / "spec.json", tmp_path / "x.csv"
        spath.write_text(json.dumps({"dgps": [1], "N": [8], "T": [30], "replications": 1,
                                     "k": [1], key: values}))
        assert main(["bench", "--spec", str(spath), "--out", str(out)]) == 2
        assert f"{key} must not repeat a value, got {json.dumps(values)}" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_bad_dgp_rejected_before_any_replication(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HDFFM_THREADS", "1")
        calls = []
        original = cli._bench_replication

        def counting(job):
            calls.append(job)
            return original(job)

        monkeypatch.setattr(cli, "_bench_replication", counting)
        spath, out = tmp_path / "spec.json", tmp_path / "x.csv"
        spath.write_text(json.dumps({"dgps": [1, 5], "N": [8], "T": [30], "replications": 1,
                                     "k": [1]}))
        assert main(["bench", "--spec", str(spath), "--out", str(out)]) == 2
        assert "dgp must be in {1, 2, 3, 4}, got 5" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("change, message", [
        ({"k": [1, 99]}, "k=99 out of range [0, 30]"),
        ({"k": [-1]}, "k=-1 out of range [0, 30]"),
        ({"N": [2], "k": [15]}, "k=15 out of range [0, 14]"),  # N x basis_dim
        ({"T": [30, 12], "k": [20]}, "k=20 out of range [0, 12]"),  # the second cell
        ({"select": {"method": "fixed", "k_max": 99}},
         "k_max=99 out of range 1..30 for this panel"),
        ({"select": {"k_max": 31}}, "k_max=31 out of range 1..30 for this panel"),
        ({"select": {"k_max": 0}}, "k_max=0 out of range 1..30 for this panel"),
        ({"N": [2], "select": {}}, "k_max=10 exceeds the rank bound min(7, 30) of subpanel 1"),
        ({"N": [2, 20], "select": {"k_max": 3}},  # N_1 = 1: no penalty
         "cell dgp=1 N=2 T=30: subpanel 1 (1 series x 30 periods): penalty requires N, T >= 2"),
        ({"select": {"method": "fixed", "c": -1}}, "c must be nonnegative and finite, got -1"),
        ({"select": {"P": 0}}, "P must be >= 1"),
        ({"N": [1], "select": {"k_max": 3}},  # N_1 = 0
         "cell dgp=1 N=1 T=30: invalid subpanel size (0, 30)"),
        ({"seed": -1}, "validation error: seed must be >= 0, got -1"),
        ({"fixed_design_seed": -5}, "fixed_design_seed must be >= 0, got -5"),
        ({"n_factors": 0}, "n_factors must be >= 1, got 0"),
        ({"select": {"seed": -2}}, "cell dgp=1 N=8 T=30: rng_seed must be >= 0, got -2"),
    ], ids=["k-over-T", "k-negative", "k-over-ND", "second-cell", "fixed-k_max", "abc-k_max",
            "zero-k_max", "abc-subpanel", "abc-subpanel-penalty", "fixed-c", "abc-P",
            "abc-one-series", "negative-seed", "negative-design-seed", "zero-factors",
            "negative-select-seed"])
    def test_k_out_of_range_before_any_replication(self, tmp_path, monkeypatch, capsys, threads,
                                                   change, message):
        monkeypatch.setenv("HDFFM_THREADS", threads)
        calls = []
        monkeypatch.setattr(cli, "_bench_replication", calls.append)
        # no worker pool may start either
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            lambda **kwargs: calls.append("pool"))
        spath, out = tmp_path / "spec.json", tmp_path / "x.csv"
        spath.write_text(json.dumps({"dgps": [1, 2], "N": [8], "T": [30], "replications": 2,
                                     "k": [1], **change}))
        assert main(["bench", "--spec", str(spath), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_missing_key_named(self, tmp_path, capsys):
        spath, out = tmp_path / "spec.json", tmp_path / "x.csv"
        spath.write_text(json.dumps({"N": [8], "T": [30], "replications": 1, "k": [1]}))
        assert main(["bench", "--spec", str(spath), "--out", str(out)]) == 2
        assert "validation error: missing key 'dgps'" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_grid_rejected(self, tmp_path):
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps({"dgps": [], "N": [5], "T": [30],
                                     "replications": 1, "k": [1]}))
        assert main(["bench", "--spec", str(spath), "--out", str(tmp_path / "x.csv")]) == 2


# valid JSON inputs with every key set; a select object is run in a bench spec
BENCH_GRID = {"dgps": [1], "N": [8], "T": [30], "k": [1], "replications": 1}
DESIGN = {"fixed_design_seed": 3, "basis_dim": 7, "n_factors": 3, "target_opnorm": 0.8}
VALID_INPUTS = {
    "simulate": {"dgp": 1, "N": 6, "T": 30, "seed": 1, **DESIGN},
    "bench": {**BENCH_GRID, "seed": 1, **DESIGN, "select": {"method": "fixed"}},
    "select-fixed": {"method": "fixed", "c": 0.5, "kind": "IC2a", "k_max": 4},
    "select-abc": {"method": "abc", "kind": "IC1a", "k_max": 4, "P": 2, "seed": 1},
}


def wrongly_typed(value):
    """JSON values of another type than ``value`` (for a string, one it cannot be)."""
    bad = [None, True, "2", [2], {}] + ([2.5] if type(value) is int else [])
    return [b for b in bad if type(b) is not type(value) or type(b) is str]


def run_input(tmp_path, name, doc):
    """``main``'s exit code on ``doc`` as input ``name``, and its output file."""
    path = tmp_path / "input.json"
    if name == "simulate":
        path.write_text(json.dumps(doc))
        out = tmp_path / "panel.json"
        return main(["simulate", "--config", str(path), "--out-panel", str(out)]), out
    path.write_text(json.dumps(doc if name == "bench" else {**BENCH_GRID, "select": doc}))
    out = tmp_path / "bench.csv"
    return main(["bench", "--spec", str(path), "--out", str(out)]), out


@pytest.mark.parametrize("name", sorted(VALID_INPUTS))
def test_valid_inputs_run(tmp_path, monkeypatch, name):
    monkeypatch.setenv("HDFFM_THREADS", "1")
    code, out = run_input(tmp_path, name, VALID_INPUTS[name])
    assert code == 0 and out.exists()


@pytest.mark.parametrize("name, key, value", [
    pytest.param(name, key, bad, id=f"{name}-{key}-{json.dumps(bad)}")
    for name, doc in sorted(VALID_INPUTS.items()) for key in doc for bad in wrongly_typed(doc[key])
])
def test_wrongly_typed_value_exit_2(tmp_path, monkeypatch, capsys, name, key, value):
    monkeypatch.setenv("HDFFM_THREADS", "1")
    code, out = run_input(tmp_path, name, {**VALID_INPUTS[name], key: value})
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def write_synthetic_mortality(path, n_pref=4, n_years=30, seed=0):
    rng = np.random.default_rng(seed)
    base = 0.0005 * np.exp(0.07 * np.arange(111))
    lines = ["prefecture_id,year,sex,age,rate"]
    factor = rng.standard_normal(n_years).cumsum() * 0.02
    for pref in range(n_pref):
        sens = rng.uniform(0.5, 1.5)
        for yi in range(n_years):
            for sex in ("F", "M"):
                mult = 1.0 if sex == "F" else 1.3
                for age in range(111):
                    rate = base[age] * mult * np.exp(-sens * factor[yi]) * np.exp(
                        0.03 * rng.standard_normal()
                    )
                    label = "110+" if age == 110 else str(age)
                    lines.append(f"{pref},{1980 + yi},{sex},{label},{rate:.8g}")
    path.write_text("\n".join(lines))


class TestForecastCommand:
    def test_horizon_zero_rejected(self, tmp_path):
        assert main(["forecast", "--panel", str(tmp_path / "p.json"),
                     "--horizon", "0"]) == 2

    def test_negative_seed_named(self, tmp_path, capsys):
        ppath, out = tmp_path / "p.json", tmp_path / "fc.json"
        save_panel(gen_dgp(DgpConfig(dgp=1, N=8, T=60, seed=12))[0], ppath)
        assert main(["forecast", "--panel", str(ppath), "--horizon", "1", "--seed", "-2",
                     "--out", str(out)]) == 2
        assert "validation error: rng_seed must be >= 0, got -2\n" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_rejected_before_any_file(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "_forecast_panel", lambda *args: calls.append(args))
        mpath, out = tmp_path / "mort.csv", tmp_path / "table.csv"
        write_synthetic_mortality(mpath, n_pref=4, n_years=26)
        flags = ["--horizon", "1", "--seed", "-2", "--fixed-r", "2", "--sex", "F",
                 "--out", str(out)]
        for path in (mpath, tmp_path / "missing.csv"):
            assert main(["forecast", "--mortality", str(path), *flags]) == 2
            assert "validation error: rng_seed must be >= 0, got -2\n" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_panel_forecast_file(self, tmp_path):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=8, T=60, seed=12))
        ppath = tmp_path / "p.json"
        save_panel(panel, ppath)
        out = tmp_path / "fc.json"
        assert main(["forecast", "--panel", str(ppath), "--horizon", "2",
                     "--fixed-r", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["r"] == 3
        assert np.asarray(doc["forecasts"][0]).shape == (2, 7)
        assert doc["manifest"]["command"] == "forecast"

    def test_manifests_record_the_thread_cap(self, tmp_path, monkeypatch):
        ppath, mpath = tmp_path / "p.json", tmp_path / "mort.csv"
        save_panel(gen_dgp(DgpConfig(dgp=1, N=8, T=60, seed=12))[0], ppath)
        write_synthetic_mortality(mpath, n_pref=2, n_years=20)
        bodies = []
        for cap in (1, 2):
            monkeypatch.setenv("HDFFM_THREADS", str(cap))
            fc, table = tmp_path / f"fc{cap}.json", tmp_path / f"table{cap}.csv"
            assert main(["forecast", "--panel", str(ppath), "--horizon", "1",
                         "--out", str(fc)]) == 0
            assert main(["forecast", "--mortality", str(mpath), "--sex", "F", "--horizon", "1",
                         "--p-max", "2", "--fixed-r", "1", "--out", str(table)]) == 0
            doc = json.loads(fc.read_text())
            header, body = table.read_text().split("\n", 1)
            assert doc.pop("manifest")["threads"] == cap
            assert json.loads(header.removeprefix("# manifest: "))["threads"] == cap
            bodies.append((doc, body))
        assert bodies[0] == bodies[1]

    @pytest.mark.parametrize("flags, key, values", [
        (["--method", "cf", "--n-components"], "n_components", (2, 3)),
        (["--p-max"], "p_max", (1, 4)),
    ], ids=["n-components", "p-max"])
    def test_panel_manifest_names_every_flag(self, tmp_path, flags, key, values):
        ppath = tmp_path / "p.json"
        save_panel(gen_dgp(DgpConfig(dgp=2, N=20, T=80, seed=3))[0], ppath)
        manifests = []
        for value in values:
            out = tmp_path / f"fc{value}.json"
            assert main(["forecast", "--panel", str(ppath), "--horizon", "2", *flags, str(value),
                         "--out", str(out)]) == 0
            manifests.append(json.loads(out.read_text())["manifest"])
        assert [m["args"][key] for m in manifests] == list(values)
        assert manifests[0] != manifests[1]

    def test_mortality_smoke_and_method_difference(self, tmp_path, capsys):
        mpath = tmp_path / "mort.csv"
        write_synthetic_mortality(mpath)
        out_tnh = tmp_path / "tnh.csv"
        out_cf = tmp_path / "cf.csv"
        assert main(["forecast", "--mortality", str(mpath), "--sex", "F",
                     "--horizon", "2", "--method", "tnh", "--fixed-r", "2",
                     "--out", str(out_tnh)]) == 0
        assert main(["forecast", "--mortality", str(mpath), "--sex", "F",
                     "--horizon", "2", "--method", "cf", "--n-components", "3",
                     "--out", str(out_cf)]) == 0
        rows_t = read_csv_rows(out_tnh)
        rows_c = read_csv_rows(out_cf)
        assert rows_t[0] == ["sex", "h", "method", "mafe", "msfe"]
        assert len(rows_t) == 3 and len(rows_c) == 3
        # factor-driven synthetic data: methods must not coincide
        assert rows_t[1][3] != rows_c[1][3]
        for row in rows_t[1:]:
            assert float(row[3]) > 0 and float(row[4]) > 0

    def test_short_mortality_row_rejected(self, tmp_path, capsys):
        mpath = tmp_path / "mort.csv"
        mpath.write_text("prefecture_id,year,sex,age,rate\n1,1980,F,0,0.01\n1,1980,F,1\n")
        assert main(["forecast", "--mortality", str(mpath), "--horizon", "1"]) == 2
        err = capsys.readouterr().err
        assert "line 3: expected 5 columns (prefecture_id, year, sex, age, rate), got 4" in err

    @pytest.mark.parametrize("text", ["nan", "inf", "-Infinity"])
    def test_nonfinite_mortality_rate_rejected(self, tmp_path, capsys, text):
        mpath = tmp_path / "mort.csv"
        mpath.write_text(f"prefecture_id,year,sex,age,rate\n1,1980,F,0,0.01\n1,1980,F,1, {text}\n")
        assert main(["forecast", "--mortality", str(mpath), "--horizon", "1"]) == 2
        err = capsys.readouterr().err
        assert f"line 3: rate must be finite, got {text!r}" in err

    @pytest.mark.parametrize("row, message", [
        ("01,1975,F,0,abc", "could not convert string to float: 'abc'"),
        ("01,1975,F,x5,0.01", "invalid literal for int() with base 10: 'x5'"),
        ("01,19x5,F,0,0.01", "invalid literal for int() with base 10: '19x5'"),
    ], ids=["rate", "age", "year"])
    def test_malformed_mortality_field_names_the_line(self, tmp_path, capsys, row, message):
        mpath = tmp_path / "mort.csv"
        mpath.write_text(f"prefecture_id,year,sex,age,rate\n01,1975,F,1,0.01\n{row}\n")
        assert main(["forecast", "--mortality", str(mpath), "--horizon", "1"]) == 2
        assert f"line 3: {message}" in capsys.readouterr().err

    def test_header_only_mortality_rejected(self, tmp_path, capsys):
        mpath = tmp_path / "mort.csv"
        mpath.write_text("prefecture_id,year,sex,age,rate\n")
        out = tmp_path / "table.csv"
        assert main(["forecast", "--mortality", str(mpath), "--horizon", "1",
                     "--out", str(out)]) == 2
        assert "mortality CSV has no data rows" in capsys.readouterr().err
        assert not out.exists()

    def test_absent_sex_rejected(self, tmp_path, capsys):
        mpath = tmp_path / "mort.csv"
        write_synthetic_mortality(mpath, n_pref=2, n_years=20)
        assert main(["forecast", "--mortality", str(mpath), "--sex", "X",
                     "--horizon", "1"]) == 2
        assert "no rows for --sex 'X'; the data has sexes ['F', 'M']" in capsys.readouterr().err
        # flags out of range exit 2 as well, before any forecast is scored
        for flags, message in [
            (["--method", "cf", "--n-components", "-1"], "n_components=-1 out of range 1..9"),
            (["--method", "cf", "--n-components", "0"], "n_components=0 out of range 1..9"),
            (["--method", "cf", "--p-max", "-1"], "p_max must be >= 0"),
            (["--method", "cf", "--p-max", "-1", "--delta-min", "12"], "p_max must be >= 0"),
            (["--eval-age-max", "-5"], "--eval-age-max must lie in 0..95, got -5"),
            (["--eval-age-max", "200"], "--eval-age-max must lie in 0..95, got 200"),
            (["--delta-min", "0"], "delta_min=0 must be >= 2"),
            (["--delta-min", "-3"], "delta_min=-3 must be >= 2"),
            (["--fixed-r", "0"], "fixed_r must be >= 1"),
        ]:
            assert main(["forecast", "--mortality", str(mpath), "--sex", "F", "--horizon", "1",
                         "--p-max", "2", *flags]) == 2, flags
            assert message in capsys.readouterr().err

    def test_sex_ingests_only_that_sex(self, tmp_path, capsys):
        # a curve of M that cannot be ingested fails an M run, not an F one
        mpath, blanked = tmp_path / "mort.csv", tmp_path / "blanked.csv"
        load_perfbench_tables().write_csv(mpath, 1, n_pref=8, n_years=30)
        blanked.write_text("\n".join("03,1980,M,0," if l.startswith("03,1980,M,0,") else l
                                     for l in mpath.read_text().splitlines()))
        flags = ["--horizon", "2", "--method", "cf"]
        assert main(["forecast", "--mortality", str(blanked), *flags]) == 2
        assert "('M', '03', 1980): rate at age 0 is missing" in capsys.readouterr().err
        outs = {}
        for path, sex in [(mpath, []), (blanked, ["--sex", "F"])]:
            outs[path] = tmp_path / f"table_{path.stem}.csv"
            assert main(["forecast", "--mortality", str(path), *sex, *flags,
                         "--out", str(outs[path])]) == 0
        every_sex, only_f = (outs[p].read_text().splitlines()[2:] for p in (mpath, blanked))
        assert only_f == [line for line in every_sex if line.startswith("F,")] and len(only_f) == 2

    @pytest.mark.parametrize("delta_min, message", [
        ("27", "no rolling origins: delta_min=27 >= T=26"),  # M's T; F has 30 years
        ("10", "delta_min=10 must be >= 21"),  # 3 (p_max + 2) at p_max 5
    ], ids=["past-a-sex", "below-ar-bic"])
    def test_delta_min_rejected_before_any_forecast(self, tmp_path, monkeypatch, capsys,
                                                    delta_min, message):
        calls = []
        monkeypatch.setattr(cli, "_forecast_panel", lambda *args: calls.append(args))
        mpath, out = tmp_path / "mort.csv", tmp_path / "table.csv"
        load_perfbench_tables().write_csv(mpath, 1, n_pref=8, n_years=30)
        # rows read "prefecture,year,sex,age,rate": M keeps the years 1975..2000
        lines = mpath.read_text().splitlines()
        mpath.write_text("\n".join(l for l in lines if not (",M," in l and l[3:7] > "2000")))
        assert main(["forecast", "--mortality", str(mpath), "--horizon", "1",
                     "--delta-min", delta_min, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == "" and calls == [] and not out.exists()

    def test_manifest_names_every_flag(self, tmp_path):
        mpath = tmp_path / "mort.csv"
        write_synthetic_mortality(mpath, n_pref=2, n_years=20)
        lines = []
        for r in ("1", "2"):
            out = tmp_path / f"r{r}.csv"
            assert main(["forecast", "--mortality", str(mpath), "--sex", "F", "--horizon", "1",
                         "--p-max", "2", "--fixed-r", r, "--out", str(out)]) == 0
            lines.append(out.read_text().split("\n", 1)[0])
        assert lines[0] != lines[1]
        manifest = json.loads(lines[0].removeprefix("# manifest: "))
        assert manifest["args"] == {
            "mortality": str(mpath), "sex": "F", "method": "tnh", "horizon": 1, "seed": 0,
            "fixed_r": 1, "n_components": None, "p_max": 2, "delta_min": None,
            "eval_age_max": 89,
        }
        assert manifest["numpy"] == np.__version__

    @pytest.mark.parametrize("mode, flags, message", [
        ("--panel", ["--fixed-r", "3", "--sex", "Q", "--delta-min", "-7", "--eval-age-max", "500"],
         "--sex applies only to --mortality"),
        ("--panel", ["--eval-age-max", "89"], "--eval-age-max applies only to --mortality"),
        ("--panel", ["--method", "cf", "--fixed-r", "3"], "--fixed-r applies only to --method tnh"),
        ("--panel", ["--n-components", "3"], "--n-components applies only to --method cf"),
        ("--mortality", ["--method", "cf", "--fixed-r", "2"],
         "--fixed-r applies only to --method tnh"),
        ("--panel", ["--method", "cf", "--seed", "3"], "--seed applies only to --method tnh"),
        ("--mortality", ["--method", "cf", "--seed", "0"], "--seed applies only to --method tnh"),
    ], ids=["mortality-flags", "default-value", "cf-fixed-r", "tnh-n-components", "mortality-cf",
            "cf-seed", "mortality-cf-seed"])
    def test_flag_outside_its_mode_rejected(self, tmp_path, capsys, mode, flags, message):
        path = tmp_path / "input"
        if mode == "--panel":
            save_panel(gen_dgp(DgpConfig(dgp=1, N=8, T=60, seed=12))[0], path)
        else:
            write_synthetic_mortality(path, n_pref=2, n_years=20)
        assert main(["forecast", mode, str(path), "--horizon", "1", *flags]) == 2
        assert message in capsys.readouterr().err

    def test_both_inputs_rejected(self, tmp_path):
        assert main(["forecast", "--panel", "a.json", "--mortality", "b.csv",
                     "--horizon", "1"]) == 2

    @pytest.mark.kernel_bytes
    @pytest.mark.parametrize("table", ["cf", "tnh_fixed_r2"])
    def test_mortality_tables_pinned(self, tmp_path, table):
        # recorded once before the rolling-origin loop moved out of the CLI
        with open(os.path.join(os.path.dirname(__file__), "data", "mortality_rolling.json")) as fh:
            ref = json.load(fh)
        mpath = tmp_path / "mort.csv"
        write_synthetic_mortality(mpath)
        out = tmp_path / "table.csv"
        assert main(["forecast", "--mortality", str(mpath), "--horizon", "3",
                     *ref["args"][table], "--out", str(out)]) == 0
        manifest, body = out.read_bytes().split(b"\n", 1)
        assert manifest.startswith(b"# manifest: ")
        assert body == ref["tables"][table].encode()

    def test_one_forecast_per_sex_and_origin(self, tmp_path, monkeypatch):
        # the benchmark times each _forecast_panel call as one op
        calls = []

        def counting(panel, args, horizon, rng_seed=0):
            calls.append(panel.T)
            return persistence_forecast(panel, horizon)

        monkeypatch.setattr(cli, "_forecast_panel", counting)
        mpath = tmp_path / "mort.csv"
        write_synthetic_mortality(mpath, n_years=30)
        assert main(["forecast", "--mortality", str(mpath), "--horizon", "3",
                     "--delta-min", "26"]) == 0
        assert calls == [26, 27, 28, 29] * 2  # sexes F and M, origins 26..29
