"""End-to-end command-line tests: every subcommand, exit codes, idempotent
re-runs, dotted-path config diagnostics, and byte-identical record files."""

import csv
import json

import numpy as np
import pytest

from pannkit import cli, datasets, nn
from pannkit.polyapprox import approx_from_json


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

    def test_grid_points_out_of_range_exits_2(self, tmp_path, capsys):
        out = tmp_path / "appr.json"
        for bad in (1, 10 ** 12):
            assert cli.main(["approx", "--beta", "6", "--out", str(out),
                             "--grid-points", str(bad)]) == 2
            assert "--grid-points" in capsys.readouterr().err
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
                 (infbeta, "slots[0]")]

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
        assert doc["rows"] == 4  # len(betas) rows per seed
        assert set(doc["trend"]) == {"6", "8"}

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


class TestDataDirEnv:
    def test_relative_path_resolves_against_env(self, tmp_path, capsys,
                                                monkeypatch):
        d = tmp_path / "digits"
        d.mkdir()
        img, lab = datasets.synthetic_digits(60, seed=0)
        datasets.write_idx(d / datasets.MNIST_FILES["train_images"],
                           img[:40])
        datasets.write_idx(d / datasets.MNIST_FILES["train_labels"],
                           lab[:40])
        datasets.write_idx(d / datasets.MNIST_FILES["test_images"], img[40:])
        datasets.write_idx(d / datasets.MNIST_FILES["test_labels"], lab[40:])
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
