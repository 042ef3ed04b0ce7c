"""The three benchmark workloads: inputs, commands and correctness gates.

Each workload is a closed loop of ``pannkit`` CLI commands, run one after
another, each in a fresh process. Inputs come from the workload seed, which
feeds the dataset and training seeds. Sizes are scaled down from the
acceptance cells so that several iterations fit in one run; see README.md.

A workload has three parts:

- ``setup(run, cwd)``: one set-up; the benchmark repeats it and times each.
- ``iteration(run, cwd)``: the timed commands; returns their JSON outputs.
- ``check(run, cwd, docs)``: correctness gates on one iteration's outputs,
  returning the result figures (accuracies and the like) for the report.
"""

import csv
import json
from pathlib import Path

CNN = "cnn:4,8+32"
MLP = "mlp:256,256"


def digits(n: int, n_train: int, seed: int) -> dict:
    return {"source": "synthetic_digits", "n": n, "seed": seed,
            "noise": 0.25, "train_fraction": n_train / n}


def smoke_config(arch: str, dataset: dict, seed: int) -> dict:
    """One short epoch on a 64-sample prefix of the workload's dataset: the
    cold start of a command (imports, dataset generation, a checkpoint-sized
    network) without the workload's own work."""
    return {"arch": arch, "dataset": dict(dataset, limit_train=64,
                                          limit_test=64),
            "seed": seed, "epochs": 1, "batch_size": 32, "lr": 0.05,
            "momentum": 0.9}


def _read_csv(path: Path) -> list:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


class SweepWdCnn:
    """The acceptance NGNV cell through ``sweep-wd``, then the cached re-run.

    Acceptance cell: cnn:4,8+32, digits 1500/2000, wd 1e-3, 12 epochs, batch
    32, beta 6, calib 256, NGNV r=0.3 scale 0.05. Here: 500/500 samples.
    """

    name = "sweep_wd_cnn"
    wd = 1e-3

    def __init__(self, seed: int):
        self.dataset = digits(1000, 500, seed)
        self.configs = {
            "smoke.json": smoke_config(CNN, self.dataset, seed),
            "sweep.json": {
                "arch": CNN, "dataset": self.dataset,
                "sweep": {"wds": [self.wd], "seeds": [seed], "betas": [6],
                          "t_primes": [0], "epochs": 12, "lr": 0.05,
                          "momentum": 0.9, "batch_size": 32,
                          "calib_samples": 256, "method": "ngnv",
                          "ngnv_r": 0.3, "ngnv_scale": 0.05}}}

    def setup(self, run, cwd):
        run.pannkit(["train", "--config", "../smoke.json"], cwd)

    def iteration(self, run, cwd):
        sweep = ["sweep-wd", "--config", "../sweep.json", "--records",
                 "sweep.csv", "--workers", "1", "--plot"]
        return {"fresh": run.pannkit(sweep + ["trend.csv"], cwd),
                "cached": run.pannkit(sweep + ["trend_cached.csv"], cwd)}

    def check(self, run, cwd, docs):
        fresh, cached = docs["fresh"], docs["cached"]
        if not run.check(fresh is not None and cached is not None,
                         "sweep-wd gave no JSON output"):
            return {}
        run.check(all(c["status"] == "ok" for c in fresh["cells"]),
                  f"fresh sweep cells not all ok: {fresh['cells']}")
        run.check(all(c["status"] == "cached" for c in cached["cells"])
                  and cached["rows_written"] == 0
                  and cached["trend"] == fresh["trend"],
                  "cached sweep-wd re-run recomputed or changed the trend")
        run.check((cwd / "trend.csv").read_bytes()
                  == (cwd / "trend_cached.csv").read_bytes(),
                  "cached sweep-wd re-run wrote a different trend CSV")
        rows = _read_csv(cwd / "sweep.csv")
        return {
            "backbone_accuracy": next(float(r["value"]) for r in rows
                                      if r["metric"] == "backbone_accuracy"),
            "pann_accuracy": fresh["trend"]["6"][str(self.wd)]}


class PerturbMlp:
    """The acceptance MLP injection cell through ``perturb-exp``.

    Acceptance cell: mlp:256,256, digits 10k/2.5k, wd 1e-3, 20 epochs, batch
    64, beta 10, injection seeds 0-2, neg_only and pos_only. Here: 2000/500.
    """

    name = "perturb_mlp"

    def __init__(self, seed: int):
        self.dataset = digits(2500, 2000, seed)
        self.configs = {
            "smoke.json": smoke_config(MLP, self.dataset, seed),
            "perturb.json": {
                "arch": MLP, "dataset": self.dataset, "wds": [1e-3],
                "betas": [10], "seeds": [0, 1, 2],
                "sign_filters": ["neg_only", "pos_only"],
                "train_seed": seed, "epochs": 20, "batch_size": 64,
                "lr": 0.05, "momentum": 0.9}}

    def setup(self, run, cwd):
        run.pannkit(["train", "--config", "../smoke.json"], cwd)

    def iteration(self, run, cwd):
        return {"perturb": run.pannkit(
            ["perturb-exp", "--config", "../perturb.json", "--records",
             "perturb.csv", "--plot", "perturb_plot.csv"], cwd)}

    def check(self, run, cwd, docs):
        doc = docs["perturb"]
        if not run.check(doc is not None, "perturb-exp gave no JSON output"):
            return {}
        # 2 sign filters x (3 injection seeds + their mean) at one beta
        run.check(all(c["status"] == "ok" for c in doc["cells"])
                  and doc["rows"] == 8 and doc["rows_written"] == 8,
                  f"perturb-exp cells or row counts wrong: {doc}")
        return {f"mean_delta_loss_{r['sign_filter']}":
                float(r["mean_delta_loss"])
                for r in _read_csv(cwd / "perturb_plot.csv")}


class SurrogateCnn:
    """Composite and truncated surrogates of a trained CNN, then the attack.

    Set-up trains a short cnn:4,8+32 backbone (4 epochs). The timed part
    transforms and evaluates it at four betas and two fixed-point widths and
    attacks the beta=6 descriptor. Scaled from 1500/2000 samples, widths
    6-16 in steps of 2 and 10 attacked samples to 1500/300 samples, widths
    6 and 16 and 3 attacked samples.
    """

    name = "surrogate_cnn"
    betas = (6, 8, 10, 12)
    l_xs = (6, 16)
    attack_samples = 3

    def __init__(self, seed: int):
        self.dataset = digits(1800, 1500, seed)
        self.configs = {"train.json": {
            "arch": CNN, "dataset": self.dataset, "seed": seed, "epochs": 4,
            "batch_size": 32, "lr": 0.05, "momentum": 0.9, "wd": 1e-3}}

    def setup(self, run, cwd):
        run.pannkit(["train", "--config", "../train.json", "--out",
                     "backbone.json"], cwd)

    def iteration(self, run, cwd):
        model = ["--model", "../backbone.json"]
        docs = {}

        def evaluate(desc):
            docs[desc] = run.pannkit(
                ["eval-pann", *model, "--pann", desc, "--config",
                 "../train.json", "--out", f"eval_{desc}"], cwd)

        for beta in self.betas:
            desc = f"composite_b{beta}.json"
            run.pannkit(["transform", *model, "--mode", "composite",
                         "--beta", str(beta), "--config", "../train.json",
                         "--calib-samples", "256", "--out", desc], cwd)
            evaluate(desc)
        for l_x in self.l_xs:
            desc = f"truncated_l{l_x}.json"
            run.pannkit(["transform", *model, "--mode", "truncated",
                         "--bits", str(l_x), "--out", desc], cwd)
            evaluate(desc)
        # exit 1 means some sample found no perturbation: an outcome
        docs["attack"] = run.pannkit(
            ["attack", *model, "--pann", "composite_b6.json", "--config",
             "../train.json", "--samples", str(self.attack_samples),
             "--seeds", "1", "--max-iters", "40", "--out", "attack.json",
             "--dump-delta", "attack_delta.npz"], cwd, exit1_is_outcome=True)
        return docs

    def check(self, run, cwd, docs):
        import numpy as np
        from pannkit import attack, datasets, nn, polyapprox
        from pannkit import transform as tf

        evals = [d for k, d in docs.items() if k != "attack"]
        if not run.check(all(d is not None for d in docs.values()),
                         "a surrogate command gave no JSON output"):
            return {}
        run.check(len({d["backbone_accuracy"] for d in evals}) == 1,
                  "eval-pann runs disagree on the backbone accuracy")

        # re-certify every composite descriptor from outside; the CLI loads
        # descriptors without re-certification
        backbone = nn.network_from_dict(
            json.loads((cwd.parent / "backbone.json").read_text())["network"])
        panns = {}
        for beta in self.betas:
            desc = json.loads((cwd / f"composite_b{beta}.json").read_text())
            pann = backbone
            for slot, layer in zip(desc["slots"],
                                   backbone.activation_indices()):
                try:
                    approx = polyapprox.approx_from_json(slot["approx"],
                                                         recertify=True)
                except ValueError as exc:
                    run.check(False, f"beta={beta} descriptor: {exc}")
                    break
                run.check(approx.beta == beta and approx.certificate.max_error
                          <= 2.0 ** -beta,
                          f"beta={beta} descriptor re-certified at "
                          f"{approx.certificate.max_error:.3e}")
                pann = pann.replace_layer(layer, nn.Activation(
                    tf.CompositeReLU(approx, tf.IntervalPolicy(
                        slot["policy"]))))
            else:
                panns[beta] = pann

        # re-verify every attack success on its dumped perturbation
        out = docs["attack"]
        wins = [s for s in out["samples"] if s["success"]]
        verified = 0
        if wins and run.check(6 in panns, "no certified beta=6 surrogate to "
                                          "verify the attack against"):
            data = datasets.load_dataset(datasets.DatasetSpec(**self.dataset))
            with np.load(cwd / "attack_delta.npz") as deltas:
                for s in wins:
                    i = s["index"]
                    verified += run.check(
                        f"delta_{i}" in deltas.files and attack.verify_outcome(
                            data.x_test[i], data.y_test[i],
                            deltas[f"delta_{i}"], backbone, panns[6],
                            out["eps"]),
                        f"attack success on test sample {i} does not verify")
        return {
            "backbone_accuracy": evals[0]["backbone_accuracy"],
            "pann_accuracy": float(np.mean(
                [docs[f"composite_b{b}.json"]["pann_accuracy"]
                 for b in self.betas])),
            "trunc_accuracy": float(np.mean(
                [docs[f"truncated_l{l}.json"]["pann_accuracy"]
                 for l in self.l_xs])),
            "attack_success_rate": verified / max(len(out["samples"]), 1)}


WORKLOADS = {w.name: w for w in (SweepWdCnn, PerturbMlp, SurrogateCnn)}
