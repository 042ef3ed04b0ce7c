"""End-to-end command-line tests: every subcommand, exit codes, idempotent
re-runs, dotted-path config diagnostics, and byte-identical record files."""

import csv
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pannkit import cli, datasets, nn, records, training
from pannkit import sturdiness as sd
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
        assert not desc.exists()

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
            ("sweep-beta", dict(base, sweep=dict(sweep, wds=[0.0, 0.1])),
             "config.sweep.wds"),
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

    def test_records_of_another_command(self, tmp_path, capsys,
                                        no_training):
        recs = tmp_path / "r.csv"
        records.RecordStore(recs, columns=records.SWEEP_COLUMNS)
        cfg = write_config(tmp_path / "p.json", {
            "arch": "mlp:8", "dataset": BLOBS, "wds": [0.0], "betas": [8]})
        self._expect(capsys, ["perturb-exp", "--config", cfg, "--records",
                              recs], "--records", "does not match schema")

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


# one well-formed config per experiment command, with its required fields;
# the fuzz test breaks one thing in it at a time
_FUZZ_BASES = {
    "sweep-wd": (sd.SweepSpec, "sweep", ("wds", "seeds", "betas"),
                 {"wds": [0.0], "seeds": [0], "betas": [6], "epochs": 2,
                  "calib_samples": 8}),
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
    "t_primes": [[]], "lr": ["fast", float("nan"), float("inf")],
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
