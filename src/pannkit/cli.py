"""Command-line front end: training, approximation, sweeps, validation, attack.

Experiment configs are JSON files; tabular metrics land in append-only CSVs
keyed by config hash, so re-running a finished config writes nothing new
unless --force. Relative dataset paths resolve against $PANNKIT_DATA_DIR.
Exit codes: 0 success, 1 partial or complete experiment failure, 2 bad
configuration or input files.
"""

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import attack as atk
from . import datasets
from . import nn
from . import records
from . import sturdiness as sd
from . import training
from . import transform as tf
from .fixedpoint import FixedPointFormat, TruncatedReLU
from .polyapprox import MAX_GRID_POINTS, approx_to_json, build_appsgn

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    """Configuration problem, reported with a dotted field path."""


_MISSING = object()


def _load_json(path, what="config"):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}")


def _field(cfg, name, kind, default=_MISSING, check=None, where="config"):
    """Fetch cfg[name] with a type check; dotted-path error messages."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: expected an object")
    if name not in cfg:
        if default is not _MISSING:
            return default
        raise ConfigError(f"{where}.{name}: required field missing")
    value = cfg[name]
    if kind is float and isinstance(value, int) and not isinstance(value,
                                                                   bool):
        value = float(value)
    if not isinstance(value, kind) or (isinstance(value, bool)
                                       and kind is not bool):
        raise ConfigError(f"{where}.{name}: expected {kind.__name__}, "
                          f"got {type(value).__name__} ({value!r})")
    if check is not None and not check(value):
        raise ConfigError(f"{where}.{name}: invalid value {value!r}")
    return value


def _tuple_of(cfg, name, kind, where="config", default=_MISSING):
    raw = _field(cfg, name, list, default=None if default is not _MISSING
                 else _MISSING, where=where)
    if raw is None:
        return tuple(default)
    out = []
    for i, v in enumerate(raw):
        if kind is float and isinstance(v, int) and not isinstance(v, bool):
            v = float(v)
        if not isinstance(v, kind) or isinstance(v, bool):
            raise ConfigError(f"{where}.{name}[{i}]: expected "
                              f"{kind.__name__}, got {v!r}")
        out.append(v)
    return tuple(out)


_DATASET_FIELDS = {"source", "path", "n", "classes", "dim", "noise", "seed",
                   "train_fraction", "limit_train", "limit_test",
                   "normalize_mean", "normalize_std"}


def _dataset_spec(cfg) -> datasets.DatasetSpec:
    d = _field(cfg, "dataset", dict)
    w = "config.dataset"
    for key in d:
        if key not in _DATASET_FIELDS:
            raise ConfigError(f"{w}.{key}: unknown field")
    kw = {"source": _field(d, "source", str, where=w)}
    path = _field(d, "path", str, default=None, where=w)
    if path is not None:
        base = os.environ.get("PANNKIT_DATA_DIR", "")
        if base and not os.path.isabs(path):
            path = os.path.join(base, path)
        kw["path"] = path
    for name in ("n", "classes", "dim", "seed", "limit_train", "limit_test"):
        v = _field(d, name, int, default=None, where=w)
        if v is not None:
            kw[name] = v
    for name in ("noise", "train_fraction", "normalize_mean",
                 "normalize_std"):
        v = _field(d, name, float, default=None, where=w)
        if v is not None:
            kw[name] = v
    try:
        return datasets.DatasetSpec(**kw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{w}: {exc}")


def _train_options(cfg):
    mixup = None
    m = _field(cfg, "mixup", dict, default=None)
    if m is not None:
        w = "config.mixup"
        mixup = training.MixupConfig(
            enabled=_field(m, "enabled", bool, default=True, where=w),
            alpha=_field(m, "alpha", float, default=0.5, where=w),
            fixed_lambda=_field(m, "fixed_lambda", float, default=None,
                                where=w))
    ngnv = None
    g = _field(cfg, "ngnv", dict, default=None)
    if g is not None:
        w = "config.ngnv"
        ngnv = training.NgnvConfig(
            r=_field(g, "r", float, default=0.0, where=w),
            noise_scale=_field(g, "noise_scale", float, default=0.05,
                               where=w),
            fixed_sign=_field(g, "fixed_sign", bool, default=False, where=w))
    return mixup, ngnv


def _sgd_from(cfg) -> nn.SgdState:
    return nn.SgdState(
        lr=_field(cfg, "lr", float, default=0.05),
        momentum=_field(cfg, "momentum", float, default=0.9),
        weight_decay=_field(cfg, "wd", float, default=0.0),
        milestones=_tuple_of(cfg, "milestones", int, default=()),
        gamma=_field(cfg, "gamma", float, default=0.1))


def _method_label(mixup, ngnv) -> str:
    parts = []
    if mixup is not None and mixup.enabled:
        parts.append("mixup")
    if ngnv is not None and ngnv.enabled:
        parts.append("ngnv")
    return "+".join(parts) or "vanilla"


def _load_network(path) -> nn.Network:
    doc = _load_json(path, what="model")
    if isinstance(doc, dict) and "network" in doc:
        doc = doc["network"]
    try:
        return nn.network_from_dict(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: not a model checkpoint: {exc}")


def _load_pann(backbone: nn.Network, path) -> nn.Network:
    desc = _load_json(path, what="descriptor")
    try:
        return tf.apply_descriptor(backbone, desc)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


def _sweep_spec(cfg) -> sd.SweepSpec:
    s = _field(cfg, "sweep", dict)
    w = "config.sweep"
    try:
        return sd.SweepSpec(
            wds=_tuple_of(s, "wds", float, where=w),
            seeds=_tuple_of(s, "seeds", int, where=w),
            betas=_tuple_of(s, "betas", int, where=w),
            t_primes=_tuple_of(s, "t_primes", int, where=w, default=(0,)),
            epochs=_field(s, "epochs", int, default=20, where=w),
            lr=_field(s, "lr", float, default=0.05, where=w),
            momentum=_field(s, "momentum", float, default=0.9, where=w),
            batch_size=_field(s, "batch_size", int, default=64, where=w),
            method=_field(s, "method", str, default="vanilla", where=w),
            mixup_alpha=_field(s, "mixup_alpha", float, default=0.5,
                               where=w),
            ngnv_r=_field(s, "ngnv_r", float, default=0.3, where=w),
            ngnv_scale=_field(s, "ngnv_scale", float, default=0.05, where=w),
            bound_safety=_field(s, "bound_safety", float, default=1.2,
                                where=w),
            max_stage_degree=_field(s, "max_stage_degree", int, default=15,
                                    where=w),
            calib_samples=_field(s, "calib_samples", int, default=512,
                                 where=w))
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{w}: {exc}")


def _plot_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cell_statuses(rows, known_hashes) -> list:
    """Per (wd, seed) cell status from result rows: failed beats cached."""
    cells = {}
    for r in rows:
        key = (float(r["wd"]), int(r["seed"]))
        st = cells.setdefault(key, {"wd": key[0], "seed": key[1],
                                    "status": "ok"})
        if r["config_hash"] in known_hashes and st["status"] == "ok":
            st["status"] = "cached"
        if r["metric"] == "failed":
            st["status"] = "failed"
            st["diverged_at_epoch"] = int(float(r["value"]))
    return [cells[k] for k in sorted(cells)]


def _emit(doc, out_path=None) -> None:
    blob = json.dumps(doc, indent=2)
    if out_path:
        Path(out_path).write_text(blob + "\n")
    print(blob)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_train(args) -> int:
    cfg = _load_json(args.config)
    data = datasets.load_dataset(_dataset_spec(cfg))
    arch = _field(cfg, "arch", str)
    seed = _field(cfg, "seed", int, default=0)
    epochs = _field(cfg, "epochs", int, check=lambda v: v >= 1)
    batch = _field(cfg, "batch_size", int, default=64,
                   check=lambda v: v >= 1)
    loss_kind = _field(cfg, "loss", str, default="cross_entropy")
    mixup, ngnv = _train_options(cfg)
    sgd = _sgd_from(cfg)
    chash = records.config_hash(cfg)
    net0 = nn.build_arch(arch, data.sample_shape, data.n_classes, seed)
    try:
        result = training.train(net0, data, sgd, epochs=epochs,
                                batch_size=batch, mixup=mixup, ngnv=ngnv,
                                seed=seed, loss_kind=loss_kind,
                                epoch_metrics=False)
    except training.TrainingDiverged as exc:
        _emit({"config_hash": chash, "status": "failed",
               "diverged_at_epoch": exc.epoch})
        return 1
    # only the final network is reported, so evaluate it once
    train_loss, _ = training.evaluate(result.net, data.x_train, data.y_train,
                                      loss_kind=loss_kind)
    test_loss, test_acc = training.evaluate(result.net, data.x_test,
                                            data.y_test, loss_kind=loss_kind)
    if args.out:
        doc = {"config_hash": chash, "arch": arch,
               "dataset": data.name or "dataset",
               "network": nn.network_to_dict(result.net)}
        Path(args.out).write_text(json.dumps(doc))
    written = 0
    if args.records:
        store = records.RecordStore(args.records,
                                    columns=records.RECORD_COLUMNS)
        if args.force or not store.has(chash):
            base = {"config_hash": chash, "timestamp": records.timestamp(),
                    "arch": arch, "dataset": data.name or "dataset",
                    "method": _method_label(mixup, ngnv),
                    "wd": sgd.weight_decay, "precision": "", "seed": seed}
            rows = [dict(base, metric="train_loss", value=train_loss),
                    dict(base, metric="test_loss", value=test_loss),
                    dict(base, metric="test_accuracy", value=test_acc)]
            written = store.append_rows(rows, force=args.force)
    _emit({"config_hash": chash, "status": "ok", "epochs": epochs,
           "train_loss": train_loss, "test_accuracy": test_acc,
           "rows_written": written})
    return 0


def _cmd_transform(args) -> int:
    backbone = _load_network(args.model)
    if args.mode == "composite":
        if args.beta is None:
            raise ConfigError("--beta is required for composite mode")
        if args.bound is not None:
            bound = args.bound
        else:
            if not args.config:
                raise ConfigError("composite mode needs --bound or "
                                  "--config with a calibration dataset")
            cfg = _load_json(args.config)
            data = datasets.load_dataset(_dataset_spec(cfg))
            bound = tf.calibrate_bound(backbone,
                                       data.x_train[:args.calib_samples],
                                       safety=args.safety)
        approx = build_appsgn(beta=args.beta, bound=bound,
                              max_stage_degree=args.max_stage_degree)
        pann = tf.transform(backbone, tf.CompositeReLU(
            approx, tf.IntervalPolicy(args.overflow)))
    elif args.mode == "injected":
        if args.beta is None:
            raise ConfigError("--beta is required for injected mode")
        pann = tf.transform(backbone, tf.InjectedReLU(
            args.beta, args.sign_filter, args.inj_mode, args.seed))
    elif args.mode == "partial":
        pann = tf.transform(backbone, tf.PartialReplaceReLU(
            c=args.mix_c, binarized=args.binarized))
    elif args.mode == "truncated":
        pann = tf.transform(backbone,
                            TruncatedReLU(FixedPointFormat(args.bits)))
    else:  # exact: descriptor of the unchanged backbone
        pann = backbone
    tf.save_pann_descriptor(pann, args.out)
    _emit({"mode": args.mode, "out": str(args.out)})
    return 0


def _cmd_eval_pann(args) -> int:
    backbone = _load_network(args.model)
    cfg = _load_json(args.config)
    data = datasets.load_dataset(_dataset_spec(cfg))
    bb_loss, bb_acc = training.evaluate(backbone, data.x_test, data.y_test,
                                        batch_size=args.batch_size)
    doc = {"backbone_accuracy": bb_acc, "backbone_loss": bb_loss}
    if args.pann:
        pann = _load_pann(backbone, args.pann)
        p_loss, p_acc = training.evaluate(pann, data.x_test, data.y_test,
                                          batch_size=args.batch_size)
        doc.update(pann_accuracy=p_acc, pann_loss=p_loss,
                   accuracy_drop=bb_acc - p_acc)
    _emit(doc, args.out)
    return 0


def _run_sweep(args, driver_name) -> int:
    cfg = _load_json(args.config)
    data = datasets.load_dataset(_dataset_spec(cfg))
    arch = _field(cfg, "arch", str)
    store = records.RecordStore(args.records,
                                columns=records.SWEEP_COLUMNS)
    before = store.hashes()
    if driver_name == "trunc":
        s = _field(cfg, "sweep", dict)
        w = "config.sweep"
        try:
            res = sd.truncation_sweep(
                arch, data,
                l_xs=_tuple_of(s, "l_xs", int, where=w),
                seeds=_tuple_of(s, "seeds", int, where=w),
                epochs=_field(s, "epochs", int, default=20, where=w),
                lr=_field(s, "lr", float, default=0.05, where=w),
                momentum=_field(s, "momentum", float, default=0.9, where=w),
                batch_size=_field(s, "batch_size", int, default=64,
                                  where=w),
                wd=_field(s, "wd", float, default=0.0, where=w),
                store=store, dataset_name=data.name, force=args.force,
                workers=args.workers)
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"{w}: {exc}")
        plot_rows = [(l_x, acc) for l_x, acc in sorted(res.trend.items())]
        plot_header = ("l_x", "mean_accuracy")
    else:
        spec = _sweep_spec(cfg)
        if driver_name == "beta":
            res = sd.beta_sweep(spec, arch, data, store=store,
                                dataset_name=data.name, force=args.force,
                                workers=args.workers)
            plot_rows = [(b, acc) for b, acc in sorted(res.trend.items())]
            plot_header = ("beta", "mean_pann_accuracy")
        else:
            res = sd.weight_decay_sweep(spec, arch, data, store=store,
                                        dataset_name=data.name,
                                        force=args.force,
                                        workers=args.workers)
            plot_rows = [(b, wd, acc)
                         for b, by_wd in sorted(res.trend.items())
                         for wd, acc in sorted(by_wd.items())]
            plot_header = ("beta", "wd", "mean_pann_accuracy")
    if args.plot:
        _plot_csv(args.plot, plot_header, plot_rows)
    cells = _cell_statuses(res.rows, before)
    _emit({"rows": len(res.rows), "rows_written": res.n_written,
           "cells": cells, "trend": res.trend})
    return 1 if any(c["status"] == "failed" for c in cells) else 0


def _cmd_sweep_wd(args) -> int:
    return _run_sweep(args, "wd")


def _cmd_sweep_beta(args) -> int:
    return _run_sweep(args, "beta")


def _cmd_trunc_sweep(args) -> int:
    return _run_sweep(args, "trunc")


def _cmd_perturb_exp(args) -> int:
    cfg = _load_json(args.config)
    data = datasets.load_dataset(_dataset_spec(cfg))
    arch = _field(cfg, "arch", str)
    wds = _tuple_of(cfg, "wds", float)
    betas = _tuple_of(cfg, "betas", int)
    seeds = _tuple_of(cfg, "seeds", int, default=(0, 1, 2))
    filters = _tuple_of(cfg, "sign_filters", str,
                        default=("neg_only", "pos_only"))
    inj_mode = _field(cfg, "mode", str, default="worst_case_fixed")
    train_seed = _field(cfg, "train_seed", int, default=0)
    epochs = _field(cfg, "epochs", int, default=20)
    lr = _field(cfg, "lr", float, default=0.05)
    momentum = _field(cfg, "momentum", float, default=0.9)
    batch = _field(cfg, "batch_size", int, default=64)
    loss_kind = _field(cfg, "loss", str, default="cross_entropy")
    store = records.RecordStore(args.records,
                                columns=records.RECORD_COLUMNS) \
        if args.records else None
    dataset_name = data.name or "dataset"
    statuses, all_rows, written = [], [], 0
    for wd in wds:
        cell_cfg = {"experiment": "perturb", "arch": arch,
                    "dataset": dataset_name, "wd": wd,
                    "train_seed": train_seed, "epochs": epochs, "lr": lr,
                    "momentum": momentum, "batch_size": batch,
                    "betas": list(betas), "seeds": list(seeds),
                    "sign_filters": list(filters), "mode": inj_mode}
        chash = records.config_hash(cell_cfg)
        if store is not None and not args.force and store.has(chash):
            status = {"wd": wd, "status": "cached"}
            for r in store.read_rows():
                if r["config_hash"] == chash:
                    all_rows.append(r)
                    if r["metric"] == "failed":
                        status["status"] = "failed"
            statuses.append(status)
            continue
        base = {"config_hash": chash, "timestamp": records.timestamp(),
                "arch": arch, "dataset": dataset_name, "method": "perturb",
                "wd": wd}
        net0 = nn.build_arch(arch, data.sample_shape, data.n_classes,
                             train_seed)
        sgd = nn.SgdState(lr=lr, momentum=momentum, weight_decay=wd)
        try:
            result = training.train(net0, data, sgd, epochs=epochs,
                                    batch_size=batch, seed=train_seed,
                                    loss_kind=loss_kind, epoch_metrics=False)
        except training.TrainingDiverged as exc:
            rows = [dict(base, precision="", seed=train_seed,
                         metric="failed", value=float(exc.epoch))]
            if store is not None:
                written += store.append_rows(rows, force=args.force)
            all_rows.extend(rows)
            statuses.append({"wd": wd, "status": "failed",
                             "diverged_at_epoch": exc.epoch})
            continue
        exp_rows = sd.perturbation_loss_experiment(
            result.net, data.x_test, data.y_test, betas=betas,
            sign_filters=filters, mode=inj_mode, seeds=seeds,
            loss_kind=loss_kind)
        rows = [dict(base, precision=f"beta={int(er['beta'])}",
                     seed=er["seed"],
                     metric=f"delta_loss_{er['sign_filter']}",
                     value=er["delta_loss"])
                for er in exp_rows]
        if store is not None:
            written += store.append_rows(rows, force=args.force)
        all_rows.extend(rows)
        statuses.append({"wd": wd, "status": "ok"})
    if args.plot:
        plot_rows = [(r["wd"], str(r["precision"]).removeprefix("beta="),
                      r["metric"].removeprefix("delta_loss_"), r["value"])
                     for r in all_rows
                     if str(r["seed"]) == "mean"]
        _plot_csv(args.plot,
                  ("wd", "beta", "sign_filter", "mean_delta_loss"),
                  plot_rows)
    _emit({"rows": len(all_rows), "rows_written": written,
           "cells": statuses})
    return 1 if any(s["status"] == "failed" for s in statuses) else 0


def _cmd_validate_theorems(args) -> int:
    checks = []
    rep = sd.validate_theorem1(sd.quadratic_probe(-1.0),
                               sd.quadratic_probe(1.0))
    checks.append({
        "name": "increment_gap_equal_curvature",
        "passed": rep.limit == 2.0 and abs(rep.ratio_at(1e-4) - 2.0) <= 1e-3,
        "limit": rep.limit, "ratio_at_1e-4": rep.ratio_at(1e-4),
        "slope": rep.slope})
    rep = sd.validate_theorem1(sd.quadratic_probe(-1.0),
                               sd.quadratic_probe(1.0, scale=2.0))
    checks.append({
        "name": "increment_gap_convergence_rate",
        "passed": (rep.slope is not None and rep.slope >= 0.9
                   and abs(rep.ratio_at(1e-4) - 2.0) <= 1e-3),
        "limit": rep.limit, "ratio_at_1e-4": rep.ratio_at(1e-4),
        "slope": rep.slope})
    rep = sd.validate_theorem1(sd.abs_plus_quadratic_probe(),
                               sd.quadratic_probe(1.0, scale=2.0))
    checks.append({
        "name": "increment_gap_kinked_probe",
        "passed": rep.limit == 1.0 and abs(rep.ratio_at(1e-4) - 1.0) <= 1e-3,
        "limit": rep.limit, "ratio_at_1e-4": rep.ratio_at(1e-4),
        "slope": rep.slope})
    for i, probe in enumerate(sd.default_lemma_probes(), start=1):
        lb = sd.validate_lemma_bound(probe)
        checks.append({
            "name": f"lower_bound_probe_{i}", "probe": probe.name,
            "passed": lb.passed, "violations": lb.violations,
            "min_margin": lb.min_margin, "n_eps": len(lb.epsilons)})
    all_passed = all(c["passed"] for c in checks)
    _emit({"all_passed": all_passed, "checks": checks}, args.out)
    return 0 if all_passed else 1


def _cmd_attack(args) -> int:
    backbone = _load_network(args.model)
    pann = _load_pann(backbone, args.pann)
    cfg = _load_json(args.config)
    data = datasets.load_dataset(_dataset_spec(cfg))
    acfg = atk.AttackConfig(
        alpha=args.alpha, eps=args.eps, eps_atk=args.eps_atk,
        eps_lim=args.eps_lim, search_radius=args.radius,
        search_draws=args.draws, max_iters=args.max_iters,
        backtrack_depth=args.backtrack_depth)
    preds = nn.predict(backbone, data.x_test)
    picked = [i for i in range(len(data.y_test))
              if preds[i] == data.y_test[i]][:args.samples]
    results, dumps = [], {}
    for i in picked:
        x, y = data.x_test[i], int(data.y_test[i])
        entry = {"index": int(i), "label": y, "success": False,
                 "attempts": 0}
        for s in range(args.seeds):
            out = atk.attack_pann(x, y, backbone, pann, acfg, seed=s)
            entry["attempts"] = s + 1
            if out.success and atk.verify_outcome(x, y, out.delta, backbone,
                                                  pann, acfg.eps):
                entry.update(
                    success=True, seed=s, iterations=out.iterations,
                    verified=True,
                    delta_max=float(np.max(np.abs(out.delta))),
                    delta_l2=float(np.linalg.norm(out.delta.ravel())))
                dumps[f"delta_{i}"] = out.delta
                break
        results.append(entry)
    _emit({"eps": acfg.eps, "samples": results}, args.out)
    if args.dump_delta and dumps:
        np.savez(args.dump_delta, **dumps)
    return 0 if results and all(r["success"] for r in results) else 1


def _cmd_approx(args) -> int:
    if not 2 <= args.grid_points <= MAX_GRID_POINTS:
        raise ConfigError(f"--grid-points: expected an integer in "
                          f"[2, {MAX_GRID_POINTS}], got {args.grid_points}")
    approx = build_appsgn(beta=args.beta, eps0=args.eps0, bound=args.bound,
                          max_stage_degree=args.max_stage_degree,
                          grid_points=args.grid_points)
    Path(args.out).write_text(json.dumps(approx_to_json(approx)))
    if args.plot:
        z = np.linspace(-approx.bound, approx.bound, args.plot_points)
        p = approx.eval(z)
        err = p - np.sign(z)
        _plot_csv(args.plot, ("z", "p_z", "error"),
                  ((repr(float(a)), repr(float(b)), repr(float(c)))
                   for a, b, c in zip(z, p, err)))
    cert = approx.certificate
    _emit({"beta": approx.beta, "bound": approx.bound,
           "eps0": approx.eps0, "stages": len(approx.chain),
           "max_error": cert.max_error,
           "band_max_error": cert.band_max_error, "passed": cert.passed})
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_records_args(p, plot_help):
    p.add_argument("--records", required=True,
                   help="append-only metrics CSV")
    p.add_argument("--plot", help=plot_help)
    p.add_argument("--force", action="store_true",
                   help="recompute cells whose config hash is already "
                        "stored")
    p.add_argument("--workers", type=int, default=1,
                   help="bounded pool size for independent cells")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pannkit",
        description="Polynomial-approximated network toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a backbone from a JSON config")
    t.add_argument("--config", required=True)
    t.add_argument("--out", help="checkpoint JSON path")
    t.add_argument("--records", help="append final metrics to this CSV")
    t.add_argument("--force", action="store_true")
    t.set_defaults(handler=_cmd_train)

    tr_ = sub.add_parser("transform",
                         help="swap activation slots, save a descriptor")
    tr_.add_argument("--model", required=True)
    tr_.add_argument("--out", required=True)
    tr_.add_argument("--mode", required=True,
                     choices=("composite", "injected", "partial",
                              "truncated", "exact"))
    tr_.add_argument("--beta", type=int)
    tr_.add_argument("--bound", type=float,
                     help="composite: skip calibration, use this bound")
    tr_.add_argument("--config", help="composite: calibration dataset")
    tr_.add_argument("--calib-samples", type=int, default=512)
    tr_.add_argument("--safety", type=float, default=1.2)
    tr_.add_argument("--max-stage-degree", type=int, default=15)
    tr_.add_argument("--overflow", default="clamp_to_B",
                     choices=("clamp_to_B", "widen_and_recertify", "error"))
    tr_.add_argument("--sign-filter", default="all",
                     choices=("all", "neg_only", "pos_only"))
    tr_.add_argument("--inj-mode", default="uniform_random",
                     choices=("uniform_random", "worst_case_fixed"))
    tr_.add_argument("--seed", type=int, default=0)
    tr_.add_argument("--mix-c", type=float, default=0.5)
    tr_.add_argument("--binarized", action="store_true")
    tr_.add_argument("--bits", type=int, default=16,
                     help="truncated: total fixed-point bits")
    tr_.set_defaults(handler=_cmd_transform)

    e = sub.add_parser("eval-pann",
                       help="accuracy of a backbone and optional descriptor")
    e.add_argument("--model", required=True)
    e.add_argument("--config", required=True)
    e.add_argument("--pann", help="descriptor JSON; omit for backbone only")
    e.add_argument("--batch-size", type=int, default=512)
    e.add_argument("--out")
    e.set_defaults(handler=_cmd_eval_pann)

    for name, handler, plot_help in (
            ("sweep-wd", _cmd_sweep_wd,
             "CSV of beta, wd, mean pann accuracy"),
            ("sweep-beta", _cmd_sweep_beta,
             "CSV of beta, mean pann accuracy"),
            ("trunc-sweep", _cmd_trunc_sweep,
             "CSV of l_x, mean accuracy")):
        s = sub.add_parser(name)
        s.add_argument("--config", required=True)
        _add_records_args(s, plot_help)
        s.set_defaults(handler=handler)

    pe = sub.add_parser("perturb-exp",
                        help="sign-filtered error injection loss deltas")
    pe.add_argument("--config", required=True)
    pe.add_argument("--records")
    pe.add_argument("--plot",
                    help="CSV of wd, beta, sign filter, mean delta loss")
    pe.add_argument("--force", action="store_true")
    pe.set_defaults(handler=_cmd_perturb_exp)

    v = sub.add_parser("validate-theorems",
                       help="closed-form convexity check suite")
    v.add_argument("--out", help="JSON report path")
    v.set_defaults(handler=_cmd_validate_theorems)

    a = sub.add_parser("attack",
                       help="search perturbations flipping only the "
                            "approximated net")
    a.add_argument("--model", required=True)
    a.add_argument("--pann", required=True)
    a.add_argument("--config", required=True, help="dataset config")
    a.add_argument("--samples", type=int, default=5)
    a.add_argument("--seeds", type=int, default=20,
                   help="attempts per sample")
    a.add_argument("--alpha", type=float, default=0.05)
    a.add_argument("--eps", type=float, default=0.3)
    a.add_argument("--eps-atk", type=float, default=1e-6)
    a.add_argument("--eps-lim", type=float, default=1.0)
    a.add_argument("--radius", type=float, default=0.02)
    a.add_argument("--draws", type=int, default=16)
    a.add_argument("--max-iters", type=int, default=200)
    a.add_argument("--backtrack-depth", type=int, default=8)
    a.add_argument("--out")
    a.add_argument("--dump-delta", help="npz of successful perturbations")
    a.set_defaults(handler=_cmd_attack)

    ap = sub.add_parser("approx",
                        help="build and certify a sign approximant")
    ap.add_argument("--beta", type=int, required=True)
    ap.add_argument("--bound", type=float, default=1.0)
    ap.add_argument("--eps0", type=float)
    ap.add_argument("--max-stage-degree", type=int, default=15)
    ap.add_argument("--grid-points", type=int, default=100_000)
    ap.add_argument("--out", required=True)
    ap.add_argument("--plot", help="CSV of z, p(z), p(z) - sgn(z)")
    ap.add_argument("--plot-points", type=int, default=2001)
    ap.set_defaults(handler=_cmd_approx)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except datasets.DatasetFormatError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
