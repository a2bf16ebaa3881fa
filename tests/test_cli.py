import csv
import json
import os

import numpy as np
import pytest

from hdffm import DgpConfig, fit_factors, gen_dgp, load_panel, persistence_forecast, save_panel
from hdffm import cli
from hdffm.cli import main
from conftest import rank_k_panel


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

    def test_output_matches_in_process_fit(self, tmp_path, rng):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=8, T=30, seed=3))
        ppath = tmp_path / "p.json"
        save_panel(panel, ppath)
        out = tmp_path / "fit.json"
        main(["estimate", "--panel", str(ppath), "--k", "2", "--out", str(out)])
        doc = json.loads(out.read_text())
        fresh = fit_factors(panel, 2)
        assert np.allclose(doc["lambda_hat"], fresh.lambda_hat, atol=1e-12)


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

    def test_empty_grid_rejected(self, tmp_path):
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps({"dgps": [], "N": [5], "T": [30],
                                     "replications": 1, "k": [1]}))
        assert main(["bench", "--spec", str(spath), "--out", str(tmp_path / "x.csv")]) == 2


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

    def test_both_inputs_rejected(self, tmp_path):
        assert main(["forecast", "--panel", "a.json", "--mortality", "b.csv",
                     "--horizon", "1"]) == 2

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
