"""End-to-end command-line tests: every subcommand, exit codes, idempotent
re-runs, dotted-path config diagnostics, and byte-identical record files."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pannkit import cli, datasets, nn, records, training
from pannkit import sturdiness as sd
from pannkit import transform as tf
from pannkit.fixedpoint import FixedPointFormat, TruncatedReLU
from pannkit.polyapprox import approx_from_json, build_appsgn

from idx_files import write_digit_idx_dataset, write_idx


def run(capsys, *argv):
    """Invoke the entry point; returns (exit code, parsed stdout JSON)."""
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return path


BLOBS = {"source": "synthetic_blobs", "n": 300, "classes": 3, "dim": 2,
         "seed": 3}


@pytest.fixture
def train_cfg(tmp_path):
    return write_config(tmp_path / "train.json", {
        "arch": "mlp:16", "seed": 0, "epochs": 6, "batch_size": 32,
        "lr": 0.1, "momentum": 0.9, "dataset": BLOBS})


class TestApprox:
    def test_build_export_and_error_curve(self, tmp_path, capsys):
        out = tmp_path / "appr.json"
        plot = tmp_path / "appr.csv"
        code, doc = run(capsys, "approx", "--beta", 6, "--out", out,
                        "--plot", plot, "--plot-points", 201)
        assert code == 0
        assert doc["passed"] and doc["beta"] == 6
        assert doc["max_error"] <= 2.0 ** -6
        # export round-trips through the recertifying loader
        approx = approx_from_json(json.loads(out.read_text()))
        assert approx.certificate.passed
        rows = list(csv.reader(plot.open()))
        assert rows[0] == ["z", "p_z", "error"]
        assert len(rows) == 202
        z, p, err = (float(v) for v in rows[1])
        assert err == p - np.sign(z)

    def test_infeasible_precision_exits_2(self, tmp_path, capsys):
        out = tmp_path / "appr.json"
        assert cli.main(["approx", "--beta", "16", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("precision error: beta 16: ")
        assert err.count("\n") == 1, err
        assert not out.exists()


class TestTrain:
    def test_checkpoint_and_records(self, tmp_path, capsys, train_cfg):
        model = tmp_path / "model.json"
        recs = tmp_path / "runs.csv"
        code, doc = run(capsys, "train", "--config", train_cfg,
                        "--out", model, "--records", recs)
        assert code == 0
        assert doc["status"] == "ok"
        assert doc["rows_written"] == 3
        ckpt = json.loads(model.read_text())
        net = nn.network_from_dict(ckpt["network"])
        assert net.n_classes == 3
        metrics = {r["metric"] for r in csv.DictReader(recs.open())}
        assert metrics == {"train_loss", "test_loss", "test_accuracy"}

    def test_rerun_writes_nothing(self, tmp_path, capsys, train_cfg):
        recs = tmp_path / "runs.csv"
        run(capsys, "train", "--config", train_cfg, "--records", recs)
        before = recs.read_bytes()
        code, doc = run(capsys, "train", "--config", train_cfg,
                        "--records", recs)
        assert code == 0 and doc["rows_written"] == 0
        assert recs.read_bytes() == before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_run_writes_nothing(self, tmp_path, capsys, train_cfg):
        cfg = write_config(tmp_path / "d.json", dict(
            json.loads(train_cfg.read_text()), lr=1e200))
        model, recs = tmp_path / "model.json", tmp_path / "runs.csv"
        code, doc = run(capsys, "train", "--config", cfg, "--out", model,
                        "--records", recs)
        assert code == 1
        assert doc["status"] == "failed" and doc["diverged_at_epoch"] == 1
        assert records.RecordStore(recs).read_rows() == []
        assert not model.exists()

    def test_empty_milestones_train(self, tmp_path, capsys, train_cfg):
        cfg = write_config(tmp_path / "flat.json", dict(
            json.loads(train_cfg.read_text()), milestones=[], gamma=0.5))
        code, doc = run(capsys, "train", "--config", cfg)
        assert code == 0 and doc["status"] == "ok"

    @pytest.mark.parametrize("options, method", [
        ({"mixup": {}}, "mixup"), ({"mixup": {"enabled": False}}, "vanilla"),
        ({"mixup": {"alpha": 0.4}, "ngnv": {"r": 0.3}}, "mixup+ngnv"),
        ({"ngnv": {"r": 0.0}}, "vanilla")])
    def test_method_label(self, tmp_path, capsys, options, method):
        # a mixup object turns mixup on unless it says otherwise
        cfg = write_config(tmp_path / "m.json", {
            "arch": "mlp:8", "epochs": 1, "dataset": BLOBS, **options})
        recs = tmp_path / "runs.csv"
        assert run(capsys, "train", "--config", cfg, "--records",
                   recs)[0] == 0
        assert {r["method"] for r in csv.DictReader(recs.open())} == {method}


class TestPinnedHashes:
    """Config and cell hashes key every stored record, so a refactor of the
    config parsing must leave them as they are."""

    TINY = {
        "sweep-wd": ("0b58ca01bd8a410e", {"sweep": {
            "wds": [0.0], "seeds": [0], "betas": [6], "epochs": 1}}),
        "sweep-beta": ("8ccf2eea103d5ecd", {"sweep": {
            "wds": [0.0], "seeds": [0], "betas": [6], "epochs": 1}}),
        "trunc-sweep": ("3a1b0432413c98da", {"sweep": {
            "l_xs": [8], "seeds": [0], "epochs": 1}}),
        "perturb-exp": ("6f747fa8605ceca4", {
            "wds": [0.0], "betas": [8], "seeds": [0], "epochs": 1}),
    }

    def test_train_config_hash(self, capsys, train_cfg):
        code, doc = run(capsys, "train", "--config", train_cfg)
        assert code == 0 and doc["config_hash"] == "2fb17a4526cc54b4"

    def test_train_hash_names_the_parsed_run(self, tmp_path, capsys):
        # three spellings of one run: one hash, and one set of rows
        base = {"arch": "mlp:8", "dataset": BLOBS, "epochs": 2}
        spelled_out = dict(
            base, seed=0, loss="cross_entropy", wd=0.0, milestones=[],
            gamma=0.1, mixup=None, ngnv=None, lr=0.05, momentum=0.9,
            batch_size=64, dataset=dict(BLOBS, path=None, noise=0.1,
                                        train_fraction=0.8))
        recs = tmp_path / "runs.csv"
        hashes = set()
        for doc in (base, spelled_out, dict(base, wd=0)):
            cfg = write_config(tmp_path / "t.json", doc)
            code, out = run(capsys, "train", "--config", cfg, "--records",
                            recs)
            assert code == 0
            hashes.add(out["config_hash"])
        assert len(hashes) == 1
        assert len(list(csv.DictReader(recs.open()))) == 3

    @pytest.mark.parametrize("command", sorted(TINY))
    def test_cell_hash(self, tmp_path, capsys, command):
        want, doc = self.TINY[command]
        cfg = write_config(tmp_path / "c.json",
                           {"arch": "mlp:8", "dataset": BLOBS, **doc})
        recs = tmp_path / "r.csv"
        assert run(capsys, command, "--config", cfg, "--records",
                   recs)[0] == 0
        assert {r["config_hash"] for r in csv.DictReader(recs.open())} == \
            {want}


class TestTransformEval:
    def test_exact_descriptor_matches_backbone(self, tmp_path, capsys,
                                               train_cfg):
        model = tmp_path / "model.json"
        run(capsys, "train", "--config", train_cfg, "--out", model)
        desc = tmp_path / "exact.json"
        assert run(capsys, "transform", "--model", model, "--out", desc,
                   "--mode", "exact")[0] == 0
        code, doc = run(capsys, "eval-pann", "--model", model,
                        "--config", train_cfg, "--pann", desc)
        assert code == 0
        assert doc["pann_accuracy"] == doc["backbone_accuracy"]
        assert doc["accuracy_drop"] == 0.0

    def test_composite_calibrated_from_config(self, tmp_path, capsys,
                                              train_cfg):
        model = tmp_path / "model.json"
        run(capsys, "train", "--config", train_cfg, "--out", model)
        desc = tmp_path / "comp.json"
        assert run(capsys, "transform", "--model", model, "--out", desc,
                   "--mode", "composite", "--beta", 8,
                   "--config", train_cfg)[0] == 0
        code, doc = run(capsys, "eval-pann", "--model", model,
                        "--config", train_cfg, "--pann", desc)
        assert code == 0
        assert doc["backbone_accuracy"] - doc["pann_accuracy"] <= 0.02

    def test_partial_descriptor(self, tmp_path, capsys, train_cfg):
        model = tmp_path / "model.json"
        run(capsys, "train", "--config", train_cfg, "--out", model)
        desc = tmp_path / "partial.json"
        code, doc = run(capsys, "transform", "--model", model, "--out", desc,
                        "--mode", "partial", "--mix-c", 0.25)
        assert (code, doc) == (0, {"mode": "partial", "out": str(desc)})
        slots = json.loads(desc.read_text())["slots"]
        assert [(s["kind"], s["c"]) for s in slots] == \
            [("partial_replace_relu", 0.25)]
        code, doc = run(capsys, "eval-pann", "--model", model,
                        "--config", train_cfg, "--pann", desc)
        assert code == 0 and 0.0 <= doc["pann_accuracy"] <= 1.0


class TestConfigErrors:
    def test_missing_field_names_dotted_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json",
                           {"epochs": 3, "dataset": BLOBS})
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert "config.arch" in capsys.readouterr().err

    def test_json_syntax_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"arch": "mlp:8",\n  "epochs": }\n')
        assert cli.main(["train", "--config", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_wrong_type_inside_dataset(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "arch": "mlp:8", "epochs": 3,
            "dataset": dict(BLOBS, classes="three")})
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert "config.dataset.classes" in capsys.readouterr().err

    def test_unknown_dataset_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "arch": "mlp:8", "epochs": 3,
            "dataset": dict(BLOBS, nois=0.1)})
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert "config.dataset.nois" in capsys.readouterr().err

    def test_malformed_descriptor_exits_2(self, tmp_path, capsys,
                                          train_cfg):
        model = tmp_path / "model.json"
        run(capsys, "train", "--config", train_cfg, "--out", model)
        desc = tmp_path / "exact.json"
        run(capsys, "transform", "--model", model, "--out", desc,
            "--mode", "exact")
        text = desc.read_text()
        truncated = tmp_path / "truncated.json"
        truncated.write_text(text[:len(text) // 2])
        doc = json.loads(text)
        short = write_config(tmp_path / "short.json",
                             dict(doc, slots=doc["slots"][:-1]))
        nokind = write_config(tmp_path / "nokind.json",
                              dict(doc, slots=[{}] * len(doc["slots"])))
        nondict = write_config(tmp_path / "nondict.json",
                               dict(doc, slots=[[]] * len(doc["slots"])))
        cert = {"beta": 6, "grid_points": 8, "max_error": 0.0,
                "argmax_u": 0.0, "band_max_error": 0.0, "passed": True}
        approx = {"format": "pannkit-sgn-approx", "chain": [[0.0, 1.0]],
                  "certificate": cert, "bound": 1.0, "eps0": 0.1,
                  "beta": float("inf"), "max_stage_degree": 3}
        infbeta = write_config(tmp_path / "infbeta.json", dict(
            doc, slots=[{"kind": "composite_relu", "policy": "clamp_to_B",
                         "approx": approx}] * len(doc["slots"])))
        cases = [(truncated, "invalid JSON"), (short, "slots"),
                 (nokind, "slots[0]"), (nondict, "slots[0]"),
                 (infbeta, "slots[0]"),
                 (model, f"{model}: not a pann descriptor")]

        # tampered composite and truncated slots fail on load
        comp, trunc = tmp_path / "comp.json", tmp_path / "trunc.json"
        run(capsys, "transform", "--model", model, "--out", comp,
            "--mode", "composite", "--beta", 6, "--config", train_cfg)
        run(capsys, "transform", "--model", model, "--out", trunc,
            "--mode", "truncated", "--bits", 8)

        def tampered(name, src, edit, detail):
            doc = json.loads(src.read_text())
            edit(doc["slots"][0])
            cases.append((write_config(tmp_path / f"{name}.json", doc),
                          f"slots[0]: {detail}"))

        def scale_coeff(slot):
            stage = slot["approx"]["chain"][0]
            stage[1] = repr(float(stage[1]) * 1.5)

        def set_grid(n):
            return lambda slot: slot["approx"]["certificate"].update(
                grid_points=n)

        fails = "stored approximant fails re-certification"
        tampered("nochain", comp,
                 lambda slot: slot["approx"].update(chain=[]), fails)
        tampered("negbound", comp,
                 lambda slot: slot["approx"].update(bound=-1), "eps0")
        tampered("coeff", comp, scale_coeff, fails)
        tampered("hugegrid", comp, set_grid(10 ** 12), "grid_points")
        tampered("fracgrid", comp, set_grid(1.5), "grid_points")
        tampered("strbits", trunc, lambda slot: slot.update(total_bits="x"),
                 "total_bits")
        tampered("floatbits", trunc,
                 lambda slot: slot.update(total_bits=8.0), "total_bits")
        for bad, detail in cases:
            for cmd in ("eval-pann", "attack"):
                assert cli.main([cmd, "--model", str(model), "--config",
                                 str(train_cfg), "--pann", str(bad)]) == 2
                err = capsys.readouterr().err
                assert str(bad) in err and detail in err, err
        for good in (comp, trunc):
            assert run(capsys, "eval-pann", "--model", model, "--config",
                       train_cfg, "--pann", good)[0] == 0

    def test_tampered_chain_fails_whatever_grid_it_names(self, tmp_path,
                                                         capsys, train_cfg):
        """A stored grid size cannot soften the audit: a chain 7x over its
        2^-10 bound fails it, and a file naming a coarse grid is refused."""
        model, desc = tmp_path / "model.json", tmp_path / "b10.json"
        run(capsys, "train", "--config", train_cfg, "--out", model)
        run(capsys, "transform", "--model", model, "--out", desc, "--mode",
            "composite", "--beta", 10, "--bound", 4.0)
        doc = json.loads(desc.read_text())
        for slot in doc["slots"]:
            stage = slot["approx"]["chain"][1]
            stage[11] = repr(float(stage[11]) * (1 + 1e-6))
        for grid, detail in ((2, "grid_points"),
                             (100_000, "fails re-certification")):
            for slot in doc["slots"]:
                slot["approx"]["certificate"]["grid_points"] = grid
            bad = write_config(tmp_path / f"tampered{grid}.json", doc)
            for cmd in ("eval-pann", "attack"):
                assert cli.main([cmd, "--model", str(model), "--config",
                                 str(train_cfg), "--pann", str(bad)]) == 2
                err = capsys.readouterr().err
                assert "slots[0]: " in err and detail in err, err

    def test_interval_overflow_exits_2(self, tmp_path, capsys, train_cfg):
        model, desc = tmp_path / "model.json", tmp_path / "tight.json"
        run(capsys, "train", "--config", train_cfg, "--out", model)
        run(capsys, "transform", "--model", model, "--out", desc, "--mode",
            "composite", "--beta", 6, "--bound", 0.01, "--overflow", "error")
        for cmd in ("eval-pann", "attack"):
            assert cli.main([cmd, "--model", str(model), "--config",
                             str(train_cfg), "--pann", str(desc)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("overflow error: layers[1]: |z| reached ")
            assert err.endswith(" > certified bound 0.01\n"), err

    def test_missing_model_file(self, tmp_path, capsys, train_cfg):
        assert cli.main(["eval-pann", "--model",
                         str(tmp_path / "nope.json"),
                         "--config", str(train_cfg)]) == 2


@pytest.fixture
def sweep_cfg(tmp_path):
    return write_config(tmp_path / "sweep.json", {
        "arch": "mlp:8", "dataset": BLOBS,
        "sweep": {"wds": [0.0, 0.01], "seeds": [0], "betas": [6],
                  "t_primes": [0], "epochs": 3, "lr": 0.1}})


class TestSweeps:
    def test_wd_sweep_then_cached_rerun(self, tmp_path, capsys, sweep_cfg):
        recs = tmp_path / "records.csv"
        plot = tmp_path / "trend.csv"
        code, doc = run(capsys, "sweep-wd", "--config", sweep_cfg,
                        "--records", recs, "--plot", plot)
        assert code == 0
        assert all(c["status"] == "ok" for c in doc["cells"])
        assert doc["rows_written"] == doc["rows"] == 8
        rows = list(csv.reader(plot.open()))
        assert rows[0] == ["beta", "wd", "mean_pann_accuracy"]
        assert len(rows) == 3

        before = recs.read_bytes()
        code, doc = run(capsys, "sweep-wd", "--config", sweep_cfg,
                        "--records", recs, "--plot", plot)
        assert code == 0 and doc["rows_written"] == 0
        assert all(c["status"] == "cached" for c in doc["cells"])
        assert recs.read_bytes() == before

    def test_beta_sweep_row_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "b.json", {
            "arch": "mlp:8", "dataset": BLOBS,
            "sweep": {"wds": [0.0], "seeds": [0, 1], "betas": [6, 8],
                      "epochs": 3, "lr": 0.1}})
        code, doc = run(capsys, "sweep-beta", "--config", cfg,
                        "--records", tmp_path / "r.csv",
                        "--plot", tmp_path / "p.csv")
        assert code == 0
        # per seed: the backbone, then a pann and a delta row per beta
        assert doc["rows"] == 10
        assert set(doc["trend"]) == {"6", "8"}
        rows = list(csv.reader((tmp_path / "p.csv").open()))
        assert rows[0] == ["beta", "wd", "mean_pann_accuracy"]
        assert [r[:2] for r in rows[1:]] == [["6", "0.0"], ["8", "0.0"]]

    def test_beta_sweep_is_wd_sweep_at_the_final_epoch(self, tmp_path,
                                                       capsys):
        sweep = {"wds": [0.0], "seeds": [0, 1], "betas": [6, 8],
                 "epochs": 3, "lr": 0.1}
        doc = {"arch": "mlp:8", "dataset": BLOBS}
        beta_cfg = write_config(tmp_path / "b.json", dict(doc, sweep=sweep))
        wd_cfg = write_config(tmp_path / "w.json",
                              dict(doc, sweep=dict(sweep, t_primes=[3])))

        def pann_rows(path):
            return [(r["seed"], r["beta"], r["value"])
                    for r in csv.DictReader(path.open())
                    if r["metric"] == "pann_accuracy"]

        wd_recs, beta_recs = tmp_path / "wd.csv", tmp_path / "beta.csv"
        assert run(capsys, "sweep-wd", "--config", wd_cfg, "--records",
                   wd_recs)[0] == 0
        assert run(capsys, "sweep-beta", "--config", beta_cfg, "--records",
                   beta_recs)[0] == 0
        assert len(pann_rows(wd_recs)) == 4
        assert pann_rows(beta_recs) == pann_rows(wd_recs)
        # one cell hash: the wd sweep's store already holds every cell
        before = wd_recs.read_bytes()
        code, out = run(capsys, "sweep-beta", "--config", beta_cfg,
                        "--records", wd_recs)
        assert code == 0 and out["rows_written"] == 0
        assert all(c["status"] == "cached" for c in out["cells"])
        assert wd_recs.read_bytes() == before

    def test_trunc_sweep_plot(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "t.json", {
            "arch": "mlp:8", "dataset": BLOBS,
            "sweep": {"l_xs": [6, 12], "seeds": [0], "epochs": 3,
                      "lr": 0.1}})
        code, doc = run(capsys, "trunc-sweep", "--config", cfg,
                        "--records", tmp_path / "r.csv",
                        "--plot", tmp_path / "p.csv")
        assert code == 0
        rows = list(csv.reader((tmp_path / "p.csv").open()))
        assert rows[0] == ["l_x", "mean_accuracy"]
        assert [r[0] for r in rows[1:]] == ["6", "12"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_cell_fails_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "d.json", {
            "arch": "mlp:8", "dataset": BLOBS,
            "sweep": {"wds": [0.0], "seeds": [0], "betas": [6],
                      "t_primes": [0], "epochs": 3, "lr": 1e200}})
        code, doc = run(capsys, "sweep-wd", "--config", cfg,
                        "--records", tmp_path / "r.csv")
        assert code == 1
        assert doc["cells"][0]["status"] == "failed"
        assert doc["cells"][0]["diverged_at_epoch"] == 1

    def test_worker_pool_matches_serial(self, tmp_path, capsys, sweep_cfg,
                                        monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        run(capsys, "sweep-wd", "--config", sweep_cfg,
            "--records", tmp_path / "serial.csv")
        run(capsys, "sweep-wd", "--config", sweep_cfg,
            "--records", tmp_path / "pooled.csv", "--workers", 2)
        assert (tmp_path / "serial.csv").read_bytes() == \
            (tmp_path / "pooled.csv").read_bytes()


class TestPerturbExp:
    def test_rows_and_mean_plot(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "p.json", {
            "arch": "mlp:8", "dataset": BLOBS, "wds": [0.0, 0.001],
            "betas": [8], "seeds": [0, 1], "epochs": 3, "lr": 0.1})
        recs = tmp_path / "r.csv"
        plot = tmp_path / "plot.csv"
        code, doc = run(capsys, "perturb-exp", "--config", cfg,
                        "--records", recs, "--plot", plot)
        assert code == 0
        # 2 wd cells x 1 beta x 2 filters x (2 seeds + mean)
        assert doc["rows"] == 12
        stored = list(csv.DictReader(recs.open()))
        assert {r["precision"] for r in stored} == {"beta=8"}
        assert {r["metric"] for r in stored} == {"delta_loss_neg_only",
                                                 "delta_loss_pos_only"}
        rows = list(csv.reader(plot.open()))
        assert rows[0] == ["wd", "beta", "sign_filter", "mean_delta_loss"]
        assert len(rows) == 5  # one mean row per (wd, filter)

        code, doc = run(capsys, "perturb-exp", "--config", cfg,
                        "--records", recs)
        assert code == 0 and doc["rows_written"] == 0
        assert all(c["status"] == "cached" for c in doc["cells"])

    def test_cached_rerun_matches_fresh(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "p.json", {
            "arch": "mlp:8", "dataset": BLOBS, "wds": [0.001, 0.0],
            "betas": [8, 6], "seeds": [0, 1], "epochs": 3, "lr": 0.1})
        recs = tmp_path / "r.csv"
        fresh, cached = tmp_path / "fresh.csv", tmp_path / "cached.csv"
        code, doc = run(capsys, "perturb-exp", "--config", cfg,
                        "--records", recs, "--plot", fresh)
        code_c, doc_c = run(capsys, "perturb-exp", "--config", cfg,
                            "--records", recs, "--plot", cached)
        assert code == code_c == 0
        assert fresh.read_bytes() == cached.read_bytes()
        assert [c["wd"] for c in doc_c["cells"]] == [0.001, 0.0]
        assert doc_c["rows"] == doc["rows"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cached_failed_cell_reports_divergence(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "p.json", {
            "arch": "mlp:8", "dataset": BLOBS, "wds": [0.0], "betas": [8],
            "epochs": 3, "lr": 1e200})
        recs = tmp_path / "r.csv"
        want = [{"wd": 0.0, "status": "failed", "diverged_at_epoch": 1}]
        for rows_written in (1, 0):
            code, doc = run(capsys, "perturb-exp", "--config", cfg,
                            "--records", recs)
            assert code == 1 and doc["cells"] == want
            assert doc["rows_written"] == rows_written


class TestCacheKeys:
    MOONS = {"source": "synthetic_moons", "n": 200, "noise": 0.25, "seed": 1}

    def test_dataset_noise_is_part_of_the_cell_hash(self, tmp_path, capsys):
        recs = tmp_path / "r.csv"
        sweep = {"wds": [0.0], "seeds": [0], "betas": [6], "epochs": 2,
                 "lr": 0.1}
        for noise in (0.25, 1.5):
            cfg = write_config(tmp_path / "s.json", {
                "arch": "mlp:8", "dataset": dict(self.MOONS, noise=noise),
                "sweep": sweep})
            code, doc = run(capsys, "sweep-wd", "--config", cfg,
                            "--records", recs)
            assert code == 0
            assert [c["status"] for c in doc["cells"]] == ["ok"]
            assert doc["rows_written"] == doc["rows"] > 0

    def test_perturb_loss_is_part_of_the_cell_hash(self, tmp_path, capsys):
        recs = tmp_path / "r.csv"
        for loss in ("cross_entropy", "mse"):
            cfg = write_config(tmp_path / "p.json", {
                "arch": "mlp:8", "dataset": self.MOONS, "wds": [0.0],
                "betas": [8], "seeds": [0], "epochs": 2, "lr": 0.1,
                "loss": loss})
            code, doc = run(capsys, "perturb-exp", "--config", cfg,
                            "--records", recs)
            assert code == 0
            assert doc["cells"] == [{"wd": 0.0, "status": "ok"}]
            assert doc["rows_written"] == doc["rows"] == 4


@pytest.fixture
def no_training(monkeypatch):
    """Fail any case that gets as far as training."""
    def boom(*args, **kwargs):
        raise AssertionError("training ran on a malformed config")
    monkeypatch.setattr(training, "train", boom)


class TestExit2BeforeTraining:
    def _expect(self, capsys, argv, *details):
        assert cli.main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        for detail in details:
            assert detail in err, err

    def test_approx_and_transform_flags(self, tmp_path, capsys, train_cfg):
        out = tmp_path / "appr.json"
        self._expect(capsys, ["approx", "--beta", 0, "--out", out], "--beta")
        self._expect(capsys, ["approx", "--beta", 6, "--max-stage-degree",
                              2, "--out", out], "--max-stage-degree")
        self._expect(capsys, ["approx", "--beta", 6, "--eps0", 2.0,
                              "--out", out], "--eps0")
        assert not out.exists()
        model = tmp_path / "model.json"
        run(capsys, "train", "--config", train_cfg, "--out", model)
        desc = tmp_path / "d.json"
        self._expect(capsys, ["transform", "--model", model, "--out", desc,
                              "--mode", "truncated", "--bits", 7], "--bits")
        self._expect(capsys, ["transform", "--model", model, "--out", desc,
                              "--mode", "composite", "--beta", 0,
                              "--bound", 1.0], "--beta")
        composite = ["transform", "--model", model, "--out", desc, "--mode",
                     "composite", "--beta", 6, "--config", train_cfg]
        for flag, value in (("--calib-samples", 0), ("--calib-samples", -5),
                            ("--safety", 0), ("--safety", "nan")):
            self._expect(capsys, composite + [flag, value], flag)
        for mode, flags, detail in (
                ("composite", ["--bound", 1.0],
                 "--beta is required for composite mode"),
                ("injected", [], "--beta is required for injected mode"),
                ("composite", ["--beta", 6],
                 "composite mode needs --bound or --config with a "
                 "calibration dataset")):
            self._expect(capsys, ["transform", "--model", model, "--out",
                                  desc, "--mode", mode, *flags],
                         f"config error: {detail}\n")
        partial = ["transform", "--model", model, "--out", desc, "--mode",
                   "partial"]
        self._expect(capsys, partial + ["--mix-c", 2], "--mix-c")
        self._expect(capsys, partial + ["--mix-c", 0.5, "--binarized"],
                     "--mix-c")
        assert not desc.exists()
        self._expect(capsys, ["approx", "--beta", 6, "--out", out,
                              "--plot-points", -3], "--plot-points")
        self._expect(capsys, ["eval-pann", "--model", model, "--config",
                              train_cfg, "--batch-size", 0], "--batch-size")
        run(capsys, "transform", "--model", model, "--out", desc, "--mode",
            "exact")
        attack = ["attack", "--model", model, "--pann", desc, "--config",
                  train_cfg]
        for flag, value in (("--draws", 0), ("--eps", -1), ("--eps", "nan"),
                            ("--backtrack-depth", -1), ("--radius", 0),
                            ("--max-iters", -1), ("--samples", 0),
                            ("--seeds", 0)):
            self._expect(capsys, attack + [flag, value], flag)
        self._expect(capsys, ["sweep-wd", "--config", train_cfg, "--records",
                              tmp_path / "r.csv", "--workers", 0],
                     "--workers")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("defect", ["label 12", "empty"])
    def test_idx_defects(self, tmp_path, capsys, no_training, defect):
        data = tmp_path / "digits"
        write_digit_idx_dataset(data, n_train=40, n_test=20)
        labels = data / datasets.MNIST_FILES["train_labels"]
        images = data / datasets.MNIST_FILES["train_images"]
        if defect == "empty":
            write_idx(images, np.zeros((0, 28, 28), np.uint8))
            write_idx(labels, np.zeros(0, np.uint8))
            detail = f"dataset error: {images}: empty file (0 images)\n"
        else:
            write_idx(labels, np.full(40, 12, np.uint8))
            detail = (f"dataset error: {labels}: label 12 > 9 in record 0 "
                      "(offset 8)\n")
        dataset = {"source": "mnist_idx", "path": str(data)}
        sweep = {"wds": [0.0], "seeds": [0], "betas": [6], "epochs": 1}
        for command, doc in (("train", {"epochs": 1}),
                             ("sweep-wd", {"sweep": sweep})):
            cfg = write_config(tmp_path / "c.json",
                               dict(doc, arch="mlp:8", dataset=dataset))
            assert cli.main([command, "--config", str(cfg), "--records",
                             str(tmp_path / f"{command}.csv")]) == 2
            assert capsys.readouterr().err == detail

    @pytest.mark.parametrize("defect", ["abc", "short"])
    def test_malformed_stored_row(self, tmp_path, capsys, monkeypatch,
                                  sweep_cfg, defect):
        recs = tmp_path / "r.csv"
        argv = ["sweep-wd", "--config", sweep_cfg, "--records", recs]
        assert run(capsys, *argv)[0] == 0
        lines = recs.read_text().splitlines(keepends=True)
        fields = lines[-1].rstrip("\n").split(",")
        if defect == "abc":
            lines[-1] = ",".join(fields[:-1] + ["abc"]) + "\n"
            why = "could not convert string to float: 'abc'"
        else:  # what a writer killed mid-append leaves
            lines[-1] = ",".join(fields[:5])
            why = "expected 12 comma-separated fields"
        recs.write_text("".join(lines))

        def boom(*args, **kwargs):
            raise AssertionError("a cell trained on a malformed store")
        monkeypatch.setattr(training, "train", boom)
        assert cli.main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err == (
            f"config error: --records: {recs}: line {len(lines)}: {why}\n")

    @pytest.mark.parametrize("arch", ["mlp:x", "cnn:", "rnn:3"])
    def test_bad_arch_exits_before_loading(self, tmp_path, capsys,
                                           monkeypatch, arch):
        def boom(*args, **kwargs):
            raise AssertionError("dataset loaded for a malformed arch")
        monkeypatch.setattr(datasets, "load_dataset", boom)
        records_csv = tmp_path / "r.csv"
        for command, doc in (("train", {"epochs": 1}),
                             ("perturb-exp", {"wds": [0.0], "betas": [8]})):
            cfg = write_config(tmp_path / "c.json",
                               dict(doc, arch=arch, dataset=BLOBS))
            self._expect(capsys, [command, "--config", cfg, "--records",
                                  records_csv], "config.arch: ", repr(arch))
        assert not records_csv.exists()

    @pytest.mark.parametrize("arch, dataset, detail", [
        ("cnn:4", BLOBS, "a cnn needs [C, H, W] samples"),
        ("cnn:4,4,4,4,4", {"source": "synthetic_digits", "n": 40},
         "input too small for the conv stack")])
    def test_arch_that_does_not_fit_the_data(self, tmp_path, capsys,
                                             monkeypatch, no_training, arch,
                                             dataset, detail):
        def boom(*args, **kwargs):
            raise AssertionError("an approximant was built for a bad arch")
        monkeypatch.setattr(sd, "build_appsgn", boom)
        records_csv = tmp_path / "r.csv"
        sweep = {"wds": [0.0], "seeds": [0], "betas": [6], "epochs": 1}
        for command, doc in (("train", {"epochs": 1}),
                             ("sweep-wd", {"sweep": sweep})):
            cfg = write_config(tmp_path / "c.json",
                               dict(doc, arch=arch, dataset=dataset))
            self._expect(capsys, [command, "--config", cfg, "--records",
                                  records_csv],
                         f"config error: config.arch: bad architecture "
                         f"string {arch!r}: ", detail)
        assert not records_csv.exists()

    def test_config_values(self, tmp_path, capsys, no_training):
        base = {"arch": "mlp:8", "dataset": BLOBS}
        sweep = {"wds": [0.0], "seeds": [0], "betas": [6]}
        trunc = {"l_xs": [8], "seeds": [0]}
        perturb = {"wds": [0.0], "betas": [8]}
        cases = [
            ("train", dict(base, epochs=1, loss="bogus"), "config.loss"),
            ("train", dict(base, epochs=1, mixup={"alpah": 1.0}),
             "config.mixup.alpah"),
            ("train", dict(base, epochs=1, ngnv={"r": 0.3, "scale": 1.0}),
             "config.ngnv.scale"),
            ("train", dict(base, epochs=1, mixup={"alpha": 0.0}),
             "config.mixup"),
            ("train", dict(base, epoch=1), "config.epoch"),
            ("train", dict(base, epochs=1, milestones=[1.5]),
             "config.milestones[0]"),
            ("train", dict(base, epochs=1, gamma="x"), "config.gamma"),
            ("train", dict(base, epochs=0), "config.epochs"),
            ("train", dict(base, epochs=1, mixup=[]), "config.mixup"),
            ("train", [dict(base, epochs=1)],
             "config error: config: expected an object\n"),
            ("sweep-wd", dict(base, sweep=dict(sweep, betas=[0])),
             "config.sweep.betas"),
            ("sweep-wd", dict(base, sweep=dict(sweep, batch_size=0)),
             "config.sweep.batch_size"),
            ("sweep-wd", dict(base, sweep=dict(sweep, calib_samples=0)),
             "config.sweep.calib_samples"),
            ("sweep-wd", dict(base, sweep=dict(sweep, wd=0.1)),
             "config.sweep.wd"),
            ("sweep-beta", dict(base, sweep=dict(sweep, max_stage_degree=2)),
             "config.sweep.max_stage_degree"),
            ("sweep-beta", dict(base, sweep=dict(sweep, t_primes=[1])),
             "config.sweep.t_primes"),
            ("sweep-wd", dict(base, sweep=dict(sweep, t_primes=[-5])),
             "config.sweep.t_primes"),
            ("trunc-sweep", dict(base, sweep=dict(trunc, l_xs=[7])),
             "config.sweep.l_xs"),
            ("perturb-exp", {**base, **perturb, "sign_filters": ["bogus"]},
             "config.sign_filters"),
            ("perturb-exp", {**base, **perturb, "betas": [0]},
             "config.betas"),
            ("perturb-exp", {**base, **perturb, "seed": 3}, "config.seed"),
            ("perturb-exp", {**base, **perturb, "lr": 10 ** 400},
             "config.lr"),
        ]
        for command, doc, detail in cases:
            cfg = write_config(tmp_path / "c.json", doc)
            argv = [command, "--config", cfg]
            if command != "train":
                argv += ["--records", tmp_path / "r.csv"]
            self._expect(capsys, argv, detail)

    # blobs dataset fields -> the field the error names
    BAD_DATASETS = [
        ({"n": 0}, "n"), ({"n": -5}, "n"), ({"n": 1}, "n"),
        ({"classes": 1}, "classes"), ({"dim": 0}, "dim"),
        ({"limit_train": 0}, "limit_train"),
        ({"limit_test": 0}, "limit_test"),
        ({"limit_train": -1}, "limit_train"),
        ({"n": 100, "train_fraction": 0.001}, "train_fraction"),
        ({"normalize_std": 0}, "normalize_std"),
        ({"normalize_std": -1.0}, "normalize_std"),
        ({"noise": -1}, "noise"),
        ({"source": "mnist_idx"}, "path")]

    @pytest.mark.parametrize("dataset, field", BAD_DATASETS, ids=[
        ",".join(f"{k}={v}" for k, v in d.items()) for d, _ in BAD_DATASETS])
    def test_dataset_values(self, tmp_path, capsys, no_training, dataset,
                            field):
        cfg = write_config(tmp_path / "c.json", {
            "arch": "mlp:8", "epochs": 1, "dataset": dict(BLOBS, **dataset)})
        assert cli.main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config error: config.dataset.{field}: " in err, err
        assert "Traceback" not in err, err

    def test_infeasible_beta_fails_before_training(self, tmp_path, capsys,
                                                   no_training):
        cfg = write_config(tmp_path / "s.json", {
            "arch": "mlp:8", "dataset": BLOBS,
            "sweep": {"wds": [0.0], "seeds": [0], "betas": [16]}})
        for command in ("sweep-beta", "sweep-wd"):
            self._expect(capsys, [command, "--config", cfg, "--records",
                                  tmp_path / "r.csv"],
                         "precision error: beta 16:")

    def test_records_of_another_command(self, tmp_path, capsys,
                                        no_training):
        recs = tmp_path / "r.csv"
        records.RecordStore(recs, columns=records.SWEEP_COLUMNS)
        cfg = write_config(tmp_path / "p.json", {
            "arch": "mlp:8", "dataset": BLOBS, "wds": [0.0], "betas": [8]})
        self._expect(capsys, ["perturb-exp", "--config", cfg, "--records",
                              recs], "--records", "does not match schema")

    def test_train_opens_records_before_training(self, tmp_path, capsys,
                                                 no_training, train_cfg):
        recs, model = tmp_path / "sweep.csv", tmp_path / "model.json"
        records.RecordStore(recs, columns=records.SWEEP_COLUMNS)
        self._expect(capsys, ["train", "--config", train_cfg, "--out", model,
                              "--records", recs],
                     "--records", "does not match schema")
        assert not model.exists()

    def test_unknown_injection_filter_in_descriptor(self, tmp_path, capsys,
                                                    train_cfg):
        model = tmp_path / "model.json"
        run(capsys, "train", "--config", train_cfg, "--out", model)
        desc = tmp_path / "inj.json"
        run(capsys, "transform", "--model", model, "--out", desc,
            "--mode", "injected", "--beta", 6)
        doc = json.loads(desc.read_text())
        for key in ("sign_filter", "mode"):
            bad = json.loads(json.dumps(doc))
            bad["slots"][0][key] = "bogus"
            path = write_config(tmp_path / f"bad_{key}.json", bad)
            self._expect(capsys, ["eval-pann", "--model", model, "--config",
                                  train_cfg, "--pann", path],
                         "slots[0]", key)


# one well-formed config per command that parses a spec, with its required
# fields; the fuzz test breaks one thing in it at a time
_FUZZ_BASES = {
    "train": (sd.TrainSpec, "", ("epochs",),
              {"epochs": 2, "batch_size": 16, "loss": "mse"}),
    "sweep-wd": (sd.SweepSpec, "sweep", ("wds", "seeds", "betas"),
                 {"wds": [0.0], "seeds": [0], "betas": [6], "epochs": 2,
                  "calib_samples": 8}),
    "sweep-beta": (sd.SweepSpec, "sweep", ("wds", "seeds", "betas"),
                   {"wds": [0.0, 0.1], "seeds": [0], "betas": [6],
                    "epochs": 2, "calib_samples": 8}),
    "trunc-sweep": (sd.TruncSpec, "sweep", ("l_xs", "seeds"),
                    {"l_xs": [8], "seeds": [0], "epochs": 2}),
    "perturb-exp": (sd.PerturbSpec, "", ("wds", "betas"),
                    {"wds": [0.0], "betas": [8], "seeds": [0], "epochs": 2}),
}
# values no field of the base configs accepts
_NEVER_VALID = [None, True, "x", [], {}, [None], ["x"], 2.5, -1, 0, 1e300]
# field -> values its spec rejects
_BAD_VALUES = {
    "wds": [[], [True], 0.0], "seeds": [[], [1.5]], "betas": [[0], [-3]],
    "epochs": [0, -1, 2.0], "batch_size": [0], "calib_samples": [0],
    "max_stage_degree": [2], "method": ["bogus"], "ngnv_r": [2.0],
    "mixup_alpha": [0.0], "bound_safety": [0.0], "l_xs": [[7], [2], [40]],
    "sign_filters": [["bogus"], []], "mode": ["bogus"], "loss": ["bogus"],
    "t_primes": [[], [-1]], "lr": ["fast", float("nan"), float("inf")],
    "milestones": [[1.5], ["x"], 2], "gamma": ["x", float("nan")],
    "mixup": [[], "x", {"alpha": 0.0}, {"alpah": 1.0}],
    "ngnv": [[0.3], {"r": 2.0}, {"scale": 1.0}],
}


@st.composite
def _malformed(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_BASES)))
    cls, section, required, spec = _FUZZ_BASES[command]
    spec = dict(spec)
    kind = draw(st.sampled_from(["type", "value", "unknown", "missing",
                                 "section"]))
    if kind == "unknown":
        spec[draw(st.sampled_from(["sed", "wd_s", "beta", "l_x"]))] = 1
    elif kind == "missing":
        del spec[draw(st.sampled_from(required))]
    elif kind == "value":
        names = {f.name for f in dataclasses.fields(cls)}
        field = draw(st.sampled_from(sorted(names & set(_BAD_VALUES))))
        spec[field] = draw(st.sampled_from(_BAD_VALUES[field]))
    elif kind == "type":
        spec[draw(st.sampled_from(sorted(spec)))] = draw(
            st.sampled_from(_NEVER_VALID))
    doc = {"arch": "mlp:8", "dataset": BLOBS}
    if kind == "section":
        doc[section or "dataset"] = draw(st.sampled_from([[], "x", 3]))
    elif section:
        doc[section] = spec
    else:
        doc.update(spec)
    return command, doc


class TestConfigFuzz:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_malformed())
    def test_malformed_experiment_configs_exit_2(self, tmp_path, capsys,
                                                 no_training, case):
        command, doc = case
        cfg = write_config(tmp_path / "fuzz.json", doc)
        code = cli.main([command, "--config", str(cfg), "--records",
                         str(tmp_path / "fuzz.csv")])
        err = capsys.readouterr().err
        assert code == 2, (doc, err)
        assert "config." in err, (doc, err)


# slot kind -> field path inside the slot -> values no slot of that kind
# accepts there; _MISSING deletes the field
_MISSING = object()
_SLOT_BAD_VALUES = {
    "composite_relu": {
        ("policy",): [None, 3, "x", "widen_and_recertify", _MISSING],
        ("approx",): [None, 3, "x", [], _MISSING],
        ("approx", "format"): [None, "x", _MISSING],
        ("approx", "beta"): [None, "x", True, 0, 2.5, 12, 1e300, _MISSING],
        ("approx", "bound"): [None, "x", -1, 0, 1e300, _MISSING],
        ("approx", "eps0"): [None, "x", -1, 0, 1e300, _MISSING],
        ("approx", "max_stage_degree"): [None, "x", 2.5, 2, _MISSING],
        ("approx", "chain"): [None, "x", 3, [], [[]], [["x"]], [[None]],
                              [3], _MISSING],
        ("approx", "certificate"): [None, "x", [], _MISSING],
        ("approx", "certificate", "grid_points"): [None, "x", True, 1.5, 1,
                                                   10 ** 12, _MISSING]},
    "injected_relu": {
        ("beta",): [None, "x", True, 0, -3, 2.5, [], _MISSING],
        ("sign_filter",): [None, 3, "x", _MISSING],
        ("mode",): [None, 3, "x", _MISSING],
        ("seed",): [None, "x", True, 2.5, []],
        ("slot",): [None, "x", True, 2.5, -1]},
    "partial_replace_relu": {
        ("coeffs",): [None, 3, "x", [], ["x"], [None], [True], _MISSING],
        ("c",): [None, "x", "0.5", True, 2.0, -1, _MISSING],
        ("binarized",): [None, "x", 1, _MISSING]},
    "truncated_relu": {
        ("total_bits",): [None, "x", True, 7, 8.0, 2, 40, [], _MISSING]},
}
# a checkpoint field path -> values no checkpoint accepts there
_CHECKPOINT_BAD_VALUES = {
    ("format",): [None, "x", _MISSING],
    ("version",): [None, "x", 99, _MISSING],
    ("input_shape",): [None, "x", [], [0], [-2], ["x"], [2.5], [True],
                       [2, 1 << 24], _MISSING],
    ("n_classes",): [None, "x", 0, 2, 2.5, True, _MISSING],
    ("layers",): [None, "x", [], [None], _MISSING],
    ("layers", 0): [None, "x", [], {}],
    ("layers", 0, "kind"): [None, 3, "x", "conv2d", _MISSING],
    ("layers", 0, "W"): [None, "x", [], {}, _MISSING],
    ("layers", 0, "W", "shape"): [None, "x", [], [2], [3, 2], [2.5, 16],
                                  ["x"], _MISSING],
    ("layers", 0, "W", "data"): [None, 3, "x!", "AAAA", _MISSING],
    ("layers", 1, "mode"): [None, "x", [], {}, _MISSING],
    ("layers", 1, "mode", "kind"): ["injected_relu", "truncated_relu"],
    ("layers", 2, "b", "shape"): [[4], _MISSING],
}


def _set_path(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    if value is _MISSING:
        del doc[path[-1]]
    else:
        doc[path[-1]] = value


@pytest.fixture(scope="module")
def fuzz_model(tmp_path_factory):
    """A blobs mlp:16 checkpoint, untrained, and one well-formed slot
    descriptor of every approximate kind."""
    net = nn.build_arch("mlp:16", (2,), 3, seed=0)
    path = tmp_path_factory.mktemp("fuzz") / "model.json"
    path.write_text(json.dumps({"network": nn.network_to_dict(net)}))
    slots = {m.descriptor()["kind"]: m.descriptor() for m in (
        tf.CompositeReLU(build_appsgn(4, bound=5.0)),
        tf.InjectedReLU(6, seed=1).with_slot(0),
        tf.PartialReplaceReLU(c=0.5),
        TruncatedReLU(FixedPointFormat(8)))}
    return path, nn.network_to_dict(net), slots


@st.composite
def _malformed_artefact(draw):
    if draw(st.booleans()):
        path = draw(st.sampled_from(sorted(_CHECKPOINT_BAD_VALUES, key=str)))
        return "checkpoint", None, path, draw(st.sampled_from(
            _CHECKPOINT_BAD_VALUES[path]))
    kind = draw(st.sampled_from(sorted(_SLOT_BAD_VALUES)))
    path = draw(st.sampled_from(sorted(_SLOT_BAD_VALUES[kind], key=str)))
    return "slot", kind, path, draw(st.sampled_from(
        _SLOT_BAD_VALUES[kind][path]))


class TestArtefactFuzz:
    def test_well_formed_artefacts_load(self, tmp_path, capsys, fuzz_model,
                                        train_cfg):
        model, _, slots = fuzz_model
        for slot in slots.values():
            desc = write_config(tmp_path / "d.json", {
                "format": "pannkit-pann-descriptor", "version": 1,
                "slots": [slot]})
            assert run(capsys, "eval-pann", "--model", model, "--config",
                       train_cfg, "--pann", desc)[0] == 0

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_malformed_artefact())
    # a removed overflow policy is rejected, never run as another policy
    @example(case=("slot", "composite_relu", ("policy",),
                   "widen_and_recertify"))
    def test_malformed_artefacts_exit_2(self, tmp_path, capsys, no_training,
                                        fuzz_model, train_cfg, case):
        what, kind, path, value = case
        model, checkpoint, slots = fuzz_model
        argv = ["eval-pann", "--model", str(model), "--config",
                str(train_cfg)]
        if what == "checkpoint":
            doc = json.loads(json.dumps(checkpoint))
            _set_path(doc, path, value)
            argv[2] = str(write_config(tmp_path / "m.json", doc))
            named = path[0] if len(path) == 1 else f"layers[{path[1]}]"
        else:
            slot = json.loads(json.dumps(slots[kind]))
            _set_path(slot, path, value)
            argv += ["--pann", str(write_config(tmp_path / "d.json", {
                "format": "pannkit-pann-descriptor", "version": 1,
                "slots": [slot]}))]
            named = "slots[0]"
        assert cli.main(argv) == 2, (case, capsys.readouterr())
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err, (case, err)


class TestCheckpointIsBackbone:
    """A checkpoint holds exact-ReLU slots and valid convolutions; a PANN
    is a backbone checkpoint plus a descriptor."""

    def test_pann_slot_in_checkpoint_exits_2(self, tmp_path, capsys,
                                             fuzz_model, train_cfg):
        _, checkpoint, slots = fuzz_model
        doc = json.loads(json.dumps(checkpoint))
        doc["layers"][1]["mode"] = slots["injected_relu"]
        model = write_config(tmp_path / "m.json", {"network": doc})
        for argv in (["transform", "--model", model, "--out",
                      tmp_path / "d.json", "--mode", "truncated"],
                     ["eval-pann", "--model", model, "--config", train_cfg]):
            assert cli.main([str(a) for a in argv]) == 2, argv
            err = capsys.readouterr().err
            assert "layers[1]" in err and "backbone" in err, err
            assert "Traceback" not in err, err

    def test_same_padding_exits_2(self, tmp_path, capsys):
        doc = nn.network_to_dict(nn.build_arch("cnn:2", (1, 8, 8), 3))
        doc["layers"][0]["padding"] = "same"
        model = write_config(tmp_path / "m.json", {"network": doc})
        assert cli.main(["transform", "--model", str(model), "--out",
                         str(tmp_path / "d.json"), "--mode", "exact"]) == 2
        err = capsys.readouterr().err
        assert "layers[0]: padding" in err and "Traceback" not in err, err


class TestValidateTheorems:
    def test_closed_form_suite_passes(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, doc = run(capsys, "validate-theorems", "--out", report)
        assert code == 0
        assert doc["all_passed"]
        assert len(doc["checks"]) == 6
        assert json.loads(report.read_text()) == doc


class TestAttackCli:
    @pytest.fixture
    def moons_cfg(self, tmp_path):
        return write_config(tmp_path / "moons.json", {
            "arch": "mlp:16", "seed": 1, "epochs": 12, "batch_size": 32,
            "lr": 0.1, "momentum": 0.9,
            "dataset": {"source": "synthetic_moons", "n": 400,
                        "noise": 0.2, "seed": 5}})

    def test_verified_success_and_delta_dump(self, tmp_path, capsys,
                                             moons_cfg):
        model = tmp_path / "model.json"
        run(capsys, "train", "--config", moons_cfg, "--out", model)
        desc = tmp_path / "pann.json"
        run(capsys, "transform", "--model", model, "--out", desc,
            "--mode", "injected", "--beta", 4, "--seed", 0)
        dump = tmp_path / "deltas.npz"
        code, doc = run(capsys, "attack", "--model", model, "--pann", desc,
                        "--config", moons_cfg, "--samples", 1,
                        "--seeds", 10, "--alpha", 0.1, "--eps", 0.4,
                        "--eps-atk", 1e-9, "--eps-lim", 10,
                        "--radius", 0.2, "--draws", 24,
                        "--max-iters", 120, "--dump-delta", dump)
        assert code == 0
        sample = doc["samples"][0]
        assert sample["success"] and sample["verified"]
        assert sample["delta_max"] <= 0.4
        delta = np.load(dump)[f"delta_{sample['index']}"]
        assert np.max(np.abs(delta)) == pytest.approx(sample["delta_max"])

    def test_unreachable_sample_exits_nonzero(self, tmp_path, capsys,
                                              moons_cfg):
        model = tmp_path / "model.json"
        run(capsys, "train", "--config", moons_cfg, "--out", model)
        desc = tmp_path / "pann.json"
        run(capsys, "transform", "--model", model, "--out", desc,
            "--mode", "injected", "--beta", 4, "--seed", 0)
        # a zero-iteration budget cannot move any clean sample
        code, doc = run(capsys, "attack", "--model", model, "--pann", desc,
                        "--config", moons_cfg, "--samples", 2,
                        "--seeds", 1, "--max-iters", 0)
        assert code == 1
        assert not all(s["success"] for s in doc["samples"])


class TestImports:
    # what a command that neither sweeps nor attacks must not load; nor
    # must loading and certifying a stored chain need the Remez helpers
    UNUSED = ["pannkit.sturdiness", "pannkit.records", "pannkit.attack",
              "concurrent.futures", "numpy.polynomial"]
    # prints, after importing the CLI and after each command, which of the
    # modules in argv[1] are loaded
    SCRIPT = """if True:
        import json, sys
        from pannkit import cli
        unused, commands = json.loads(sys.argv[1])
        loaded = [[m for m in unused if m in sys.modules]]
        for argv in commands:
            assert cli.main(argv) == 0, argv
            loaded.append([m for m in unused if m in sys.modules])
        print(json.dumps(loaded))
        """

    def test_light_commands_load_no_engine(self, tmp_path, train_cfg):
        net = nn.build_arch("mlp:16", (2,), 3, seed=0)
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"network": nn.network_to_dict(net)}))
        desc = tmp_path / "pann.json"
        desc.write_text(json.dumps(tf.pann_descriptor(tf.transform(
            net, tf.CompositeReLU(build_appsgn(6, bound=5.0))))))
        commands = [
            ["eval-pann", "--model", model, "--config", train_cfg,
             "--pann", desc],
            ["transform", "--model", model, "--out", tmp_path / "t.json",
             "--mode", "truncated"]]
        argv = json.dumps([self.UNUSED, [list(map(str, c))
                                         for c in commands]])
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, argv],
                              env=env, capture_output=True, text=True,
                              check=True)
        loaded = json.loads(proc.stdout.strip().splitlines()[-1])
        assert loaded == [[], [], []]


class TestTracer:
    def test_traced_sweep_writes_spans(self, tmp_path):
        """The benchmark's tracer wraps pannkit names at start-up, so a
        renamed or deleted name fails here rather than in a benchmark
        run."""
        root = Path(cli.__file__).parents[2]
        cfg = write_config(tmp_path / "s.json", {
            "arch": "mlp:8", "dataset": BLOBS, "sweep": {
                "wds": [0.0], "seeds": [0], "betas": [6], "epochs": 1}})
        trace = tmp_path / "trace.jsonl"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(root / "src"), os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "traced_cli.py"),
             "t", str(trace), "sweep-wd", "--config", str(cfg),
             "--records", str(tmp_path / "r.csv")],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert any(line.get("name") == "sturdiness.weight_decay_sweep"
                   for line in lines)
        assert "counters" in lines[-1]


class TestDataDirEnv:
    def test_relative_path_resolves_against_env(self, tmp_path, capsys,
                                                monkeypatch):
        write_digit_idx_dataset(tmp_path / "digits", n_train=40, n_test=20)
        monkeypatch.setenv("PANNKIT_DATA_DIR", str(tmp_path))
        cfg = write_config(tmp_path / "c.json", {
            "arch": "mlp:8", "epochs": 1, "lr": 0.05,
            "dataset": {"source": "mnist_idx", "path": "digits"}})
        code, doc = run(capsys, "train", "--config", cfg)
        assert code == 0 and doc["status"] == "ok"


class TestDeterminism:
    def test_byte_identical_records_across_runs(self, tmp_path, capsys,
                                                sweep_cfg, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        for name in ("a", "b"):
            run(capsys, "sweep-wd", "--config", sweep_cfg,
                "--records", tmp_path / f"{name}.csv",
                "--plot", tmp_path / f"{name}_plot.csv")
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a_plot.csv").read_bytes() == \
            (tmp_path / "b_plot.csv").read_bytes()
