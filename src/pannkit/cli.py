"""Command-line front end: training, approximation, sweeps, validation, attack.

Experiment configs are JSON files; tabular metrics land in append-only CSVs
keyed by config hash, so re-running a finished config writes nothing new
unless --force. Relative dataset paths resolve against $PANNKIT_DATA_DIR.
Exit codes: 0 success, 1 partial or complete experiment failure, 2 bad
configuration or input files. Each command is its own process, so a
handler imports what only it runs.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import threading
import typing
from pathlib import Path

import numpy as np

from . import datasets
from . import nn
from . import transform as tf
from .fixedpoint import FixedPointFormat, TruncatedReLU
from .polyapprox import PrecisionInfeasible, approx_to_json, build_appsgn

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    """Configuration problem, reported with a dotted field path."""


def _load_json(path, what="config"):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}")


def _value(value, kind, where):
    """Check one JSON value against a field type: ints stand in for floats,
    lists become tuples, objects become nested config dataclasses, and None
    fills an optional field."""
    args = typing.get_args(kind)
    if type(None) in args:
        return None if value is None else _value(value, args[0], where)
    if dataclasses.is_dataclass(kind):
        return _parse(kind, value, where)
    if typing.get_origin(kind) is tuple:
        return tuple(_value(v, args[0], f"{where}[{i}]")
                     for i, v in enumerate(_value(value, list, where)))
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:  # an integer beyond float range
            value = math.inf
    if type(value) is not kind:  # bool is no number, int no float
        raise ConfigError(f"{where}: expected {kind.__name__}, got "
                          f"{type(value).__name__} ({value!r})")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value}")
    return value


def _parse(cls, obj, where):
    """Build the config dataclass cls from a JSON object, field by field:
    an absent field takes the dataclass default, and every error names its
    dotted path."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    kinds = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    kw = {}
    for key, value in obj.items():
        if key not in names:
            raise ConfigError(f"{where}.{key}: unknown field")
        kw[key] = _value(value, kinds[key], f"{where}.{key}")
    for f in dataclasses.fields(cls):
        if f.name not in kw and f.default is dataclasses.MISSING:
            raise ConfigError(f"{where}.{f.name}: required field missing")
    try:
        return cls(**kw)
    except nn.FieldError as exc:
        raise ConfigError(f"{where}.{exc}")
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}")


def _field(cfg, name, kind):
    """One required top-level config field, type-checked."""
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected an object")
    if name not in cfg:
        raise ConfigError(f"config.{name}: required field missing")
    return _value(cfg[name], kind, f"config.{name}")


def _dataset_spec(cfg) -> datasets.DatasetSpec:
    spec = _parse(datasets.DatasetSpec, _field(cfg, "dataset", dict),
                  "config.dataset")
    base = os.environ.get("PANNKIT_DATA_DIR", "")
    if spec.path is not None and base and not os.path.isabs(spec.path):
        spec = dataclasses.replace(spec, path=os.path.join(base, spec.path))
    return spec


def _spec(cfg, cls, section):
    """(arch, spec): the spec is parsed from the config object named by
    section, or from the top level less arch and dataset when it is ""."""
    arch = _field(cfg, "arch", str)
    try:
        nn.parse_arch(arch)
    except ValueError as exc:
        raise ConfigError(f"config.arch: {exc}")
    if section:
        return arch, _parse(cls, _field(cfg, section, dict),
                            f"config.{section}")
    return arch, _parse(cls, {k: v for k, v in cfg.items()
                              if k not in ("arch", "dataset")}, "config")


class _DataOnDemand:
    """A dataset loaded at the first use of anything but its spec."""

    def __init__(self, spec: datasets.DatasetSpec, arch: str):
        self.spec, self._arch, self._data = spec, arch, None
        self._lock = threading.Lock()  # cells may train on a thread pool

    def load(self) -> datasets.Dataset:
        """Load once; exit 2 if a cnn arch cannot take the samples."""
        with self._lock:
            if self._data is None:
                data = datasets.load_dataset(self.spec)
                if nn.parse_arch(self._arch)[0] == "cnn":
                    try:
                        nn.build_arch(self._arch, data.sample_shape,
                                      data.n_classes)
                    except ValueError as exc:
                        raise ConfigError(f"config.arch: {exc}")
                self._data = data
        return self._data

    def __getattr__(self, name):  # the names __init__ did not set
        return getattr(self.load(), name)


def _load_network(path) -> nn.Network:
    doc = _load_json(path, what="model")
    if isinstance(doc, dict) and "network" in doc:
        doc = doc["network"]
    try:
        return nn.network_from_dict(doc)
    except ValueError as exc:
        raise ConfigError(f"{path}: not a model checkpoint: {exc}")


def _data_for(net: nn.Network, path, labels: bool = True):
    """The config's dataset; exit 2 unless the model takes its samples and,
    when labels are scored, its labels."""
    data = datasets.load_dataset(_dataset_spec(_load_json(path)))
    if data.sample_shape != net.input_shape:
        raise ConfigError(f"config.dataset: samples {data.sample_shape} do "
                          f"not fit the model's input {net.input_shape}")
    if labels and data.y_test.max() >= net.n_classes:
        raise ConfigError(f"config.dataset: label {data.y_test.max()} is "
                          f"outside the model's {net.n_classes} classes")
    return data


def _load_pann(backbone: nn.Network, path) -> nn.Network:
    desc = _load_json(path, what="descriptor")
    try:
        return tf.apply_descriptor(backbone, desc)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


def _open_store(path, columns) -> "records.RecordStore":
    from . import records
    try:
        return records.RecordStore(path, columns=columns)
    except ValueError as exc:  # a file written by another command
        raise ConfigError(f"--records: {exc}")


def _check_timestamp() -> None:
    """Exit 2 naming SOURCE_DATE_EPOCH when it pins no time, before a
    command that records rows trains anything."""
    from . import records
    try:
        records.timestamp()
    except ValueError as exc:
        raise ConfigError(exc)


def _plot_csv(path, header, rows) -> None:
    import csv
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _finite(v):
    """v with every float that is not finite as None, so that the JSON
    holds null where a bare NaN or Infinity would not be JSON."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _finite(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite(x) for x in v]
    return v


def _emit(doc, out_path=None) -> None:
    blob = json.dumps(_finite(doc), indent=2)
    if out_path:
        Path(out_path).write_text(blob + "\n")
    print(blob)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_train(args) -> int:
    from . import sturdiness as sd, training
    _check_timestamp()
    cfg = _load_json(args.config)
    arch, spec = _spec(cfg, sd.TrainSpec, "")
    data = _DataOnDemand(_dataset_spec(cfg), arch)
    store = _open_store(args.records, spec.columns) if args.records else None
    # --out needs the trained network, so it trains even on a stored hash
    cache = None if args.out else store

    def evaluation(train, base):
        net = train()
        # only the final network is reported, so evaluate it once
        train_loss, _ = training.evaluate(net, data.x_train, data.y_train,
                                          loss_kind=spec.loss)
        test_loss, test_acc = training.evaluate(
            net, data.x_test, data.y_test, loss_kind=spec.loss)
        if args.out:
            Path(args.out).write_text(json.dumps({
                "config_hash": base["config_hash"], "arch": arch,
                "dataset": data.spec.source,
                "network": nn.network_to_dict(net)}))
        return [dict(base, metric="train_loss", value=train_loss),
                dict(base, metric="test_loss", value=test_loss),
                dict(base, metric="test_accuracy", value=test_acc)]

    rows, written, (cell,) = sd.run_cells("train", spec, arch, data,
                                          evaluation, store=cache,
                                          force=args.force)
    chash = rows[0]["config_hash"]
    if cell["status"] == "failed":
        _emit({"config_hash": chash, "status": "failed",
               "diverged_at_epoch": cell["diverged_at_epoch"]})
        return 1
    train_loss, _, test_acc = (r["value"] for r in rows)
    if store is not None and cache is None:
        written = store.append_rows(rows, force=args.force)
    _emit({"config_hash": chash, "status": "ok", "epochs": spec.epochs,
           "train_loss": train_loss, "test_accuracy": test_acc,
           "rows_written": written})
    return 0


_COUNT = (lambda v: v >= 1, "an integer >= 1")
_POSITIVE = (lambda v: 0 < v < math.inf, "a positive number")
MAX_PLOT_POINTS = 1_000_000
_POINTS = (lambda v: 2 <= v <= MAX_PLOT_POINTS,
           f"an integer in [2, {MAX_PLOT_POINTS}]")
# numeric flag (argparse dest) -> (check, what it expects); a flag that a
# command lacks or leaves unset is skipped
_FLAG_RANGES = {
    "beta": _COUNT, "bound": _POSITIVE, "safety": _POSITIVE,
    "calib_samples": _COUNT, "samples": _COUNT,
    "seeds": _COUNT, "workers": _COUNT, "plot_points": _POINTS,
    "alpha": _POSITIVE, "eps": _POSITIVE, "eps_atk": _POSITIVE,
    "eps_lim": _POSITIVE, "radius": _POSITIVE, "draws": _COUNT,
    "max_iters": (lambda v: v >= 0, "an integer >= 0"),
    "backtrack_depth": _COUNT}


def _check_flags(args) -> None:
    """Exit 2 naming the first numeric flag outside its range."""
    for dest, (ok, wanted) in _FLAG_RANGES.items():
        value = getattr(args, dest, None)
        if value is not None and not ok(value):
            raise ConfigError(f"--{dest.replace('_', '-')}: expected "
                              f"{wanted}, got {value}")


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
            data = _data_for(backbone, args.config, labels=False)
            try:
                bound = tf.calibrate_bound(backbone,
                                           data.x_train[:args.calib_samples],
                                           safety=args.safety)
            except ValueError as exc:
                raise ConfigError(f"--config: {exc}")
        try:
            approx = build_appsgn(beta=args.beta, bound=bound)
        except ValueError as exc:  # a bound the chain cannot be scaled to
            raise ConfigError(f"bound: {exc}")
        pann = tf.transform(backbone, tf.CompositeReLU(
            approx, tf.IntervalPolicy(args.overflow)))
    elif args.mode == "injected":
        if args.beta is None:
            raise ConfigError("--beta is required for injected mode")
        pann = tf.transform(backbone, tf.InjectedReLU(
            args.beta, args.sign_filter, args.inj_mode, args.seed))
    elif args.mode == "partial":
        try:
            mode = tf.PartialReplaceReLU(c=args.mix_c)
        except ValueError as exc:
            raise ConfigError(f"--mix-c: {exc}")
        pann = tf.transform(backbone, mode)
    elif args.mode == "truncated":
        try:
            fmt = FixedPointFormat(args.bits)
        except ValueError as exc:
            raise ConfigError(f"--bits: {exc}")
        pann = tf.transform(backbone, TruncatedReLU(fmt))
    else:  # exact: descriptor of the unchanged backbone
        pann = backbone
    Path(args.out).write_text(json.dumps(tf.pann_descriptor(pann)))
    _emit({"mode": args.mode, "out": str(args.out)})
    return 0


def _cmd_eval_pann(args) -> int:
    from . import training
    backbone = _load_network(args.model)
    data = _data_for(backbone, args.config)
    pann = _load_pann(backbone, args.pann) if args.pann else None
    # a loss that is not finite is reported below, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        bb_loss, bb_acc = training.evaluate(backbone, data.x_test,
                                            data.y_test)
        doc = {"backbone_accuracy": bb_acc, "backbone_loss": bb_loss}
        if pann is not None:
            p_loss, p_acc = training.evaluate(pann, data.x_test, data.y_test)
            doc.update(pann_accuracy=p_acc, pann_loss=p_loss,
                       accuracy_drop=bb_acc - p_acc)
    _emit(doc, args.out)
    lost = [k for k in ("backbone_loss", "pann_loss")
            if k in doc and not math.isfinite(doc[k])]
    if lost:
        print(f"numeric error: not finite: {', '.join(lost)}",
              file=sys.stderr)
    return 1 if lost else 0


# command -> sturdiness spec class, the config object holding it ("" for
# the top level), the sturdiness preset that runs it, and its plot CSV
# header; sweep-beta is sweep-wd with every t' at the final epoch
_EXPERIMENTS = {
    "sweep-wd": ("SweepSpec", "sweep", "weight_decay_sweep",
                 ("beta", "wd", "mean_pann_accuracy")),
    "sweep-beta": ("SweepSpec", "sweep", "weight_decay_sweep",
                   ("beta", "wd", "mean_pann_accuracy")),
    "trunc-sweep": ("TruncSpec", "sweep", "truncation_sweep",
                    ("l_x", "mean_accuracy")),
    "perturb-exp": ("PerturbSpec", "", "perturbation_sweep",
                    ("wd", "beta", "sign_filter", "mean_delta_loss")),
}


def _plot_rows(res) -> list:
    if res.trend is None:  # one mean row per (wd, beta, sign filter)
        return [(r["wd"], r["precision"].removeprefix("beta="),
                 r["metric"].removeprefix("delta_loss_"), r["value"])
                for r in res.rows if r["seed"] == "mean"]
    rows = []
    for key, mean in sorted(res.trend.items()):  # the wd sweeps: beta -> wd
        rows += ([(key, *sub) for sub in sorted(mean.items())]
                 if isinstance(mean, dict) else [(key, mean)])
    return rows


def _cmd_experiment(args) -> int:
    from . import sturdiness as sd
    _check_timestamp()
    spec_cls, section, preset, plot_header = _EXPERIMENTS[args.command]
    cfg = _load_json(args.config)
    arch, spec = _spec(cfg, getattr(sd, spec_cls), section)
    if args.command == "sweep-beta":
        if "t_primes" in cfg[section]:
            raise ConfigError("config.sweep.t_primes: sweep-beta evaluates "
                              "the final epoch; use sweep-wd to set t'")
        spec = dataclasses.replace(spec, t_primes=(spec.epochs,))
    data = _DataOnDemand(_dataset_spec(cfg), arch)
    store = _open_store(args.records, spec.columns) if args.records else None
    run = dict(store=store, force=args.force, workers=args.workers)
    # looked up by name per call, so that wrappers installed on the module
    # (the benchmark's tracer) see it
    res = getattr(sd, preset)(spec, arch, data, **run)
    if args.plot:
        _plot_csv(args.plot, plot_header, _plot_rows(res))
    doc = {"rows": len(res.rows), "rows_written": res.n_written,
           "cells": list(res.cells)}
    if res.trend is not None:
        doc["trend"] = res.trend
    _emit(doc)
    return 1 if any(c["status"] == "failed" for c in res.cells) else 0


def _cmd_validate_theorems(args) -> int:
    from . import sturdiness as sd
    checks = []
    # (name, negative probe, positive probe, expected limit, whether the
    # gap must converge at a log-log slope >= 0.9)
    for name, neg, pos, limit, rate in (
            ("equal_curvature", sd.quadratic_probe(-1.0),
             sd.quadratic_probe(1.0), 2.0, False),
            ("convergence_rate", sd.quadratic_probe(-1.0),
             sd.quadratic_probe(1.0, scale=2.0), 2.0, True),
            ("kinked_probe", sd.abs_plus_quadratic_probe(),
             sd.quadratic_probe(1.0, scale=2.0), 1.0, False)):
        rep = sd.validate_theorem1(neg, pos)
        ratio = rep.ratio_at(1e-4)
        checks.append({
            "name": f"increment_gap_{name}",
            "passed": (rep.limit == limit and abs(ratio - limit) <= 1e-3
                       and (not rate or rep.slope is not None
                            and rep.slope >= 0.9)),
            "limit": rep.limit, "ratio_at_1e-4": ratio, "slope": rep.slope})
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
    from . import attack as atk
    acfg = atk.AttackConfig(
        alpha=args.alpha, eps=args.eps, eps_atk=args.eps_atk,
        eps_lim=args.eps_lim, search_radius=args.radius,
        search_draws=args.draws, max_iters=args.max_iters,
        backtrack_depth=args.backtrack_depth)
    backbone = _load_network(args.model)
    pann = _load_pann(backbone, args.pann)
    data = _data_for(backbone, args.config)
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
    approx = build_appsgn(beta=args.beta, bound=args.bound)
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
    tr_.add_argument("--overflow", default="clamp_to_B",
                     choices=tf.OVERFLOW_POLICIES)
    tr_.add_argument("--sign-filter", default="all", choices=tf.SIGN_FILTERS)
    tr_.add_argument("--inj-mode", default="uniform_random",
                     choices=tf.INJECTION_MODES)
    tr_.add_argument("--seed", type=int, default=0)
    tr_.add_argument("--mix-c", type=float, default=0.5)
    tr_.add_argument("--bits", type=int, default=16,
                     help="truncated: total fixed-point bits")
    tr_.set_defaults(handler=_cmd_transform)

    e = sub.add_parser("eval-pann",
                       help="accuracy of a backbone and optional descriptor")
    e.add_argument("--model", required=True)
    e.add_argument("--config", required=True)
    e.add_argument("--pann", help="descriptor JSON; omit for backbone only")
    e.add_argument("--out")
    e.set_defaults(handler=_cmd_eval_pann)

    for name, plot_help in (
            ("sweep-wd", "CSV of beta, wd, mean pann accuracy"),
            ("sweep-beta", "CSV of beta, wd, mean pann accuracy at the "
                           "final epoch"),
            ("trunc-sweep", "CSV of l_x, mean accuracy")):
        s = sub.add_parser(name)
        s.add_argument("--config", required=True)
        s.add_argument("--records", required=True,
                       help="append-only metrics CSV")
        s.add_argument("--plot", help=plot_help)
        s.add_argument("--force", action="store_true",
                       help="recompute cells whose config hash is already "
                            "stored")
        s.add_argument("--workers", type=int, default=1,
                       help="bounded pool size for independent cells")
        s.set_defaults(handler=_cmd_experiment)

    pe = sub.add_parser("perturb-exp",
                        help="sign-filtered error injection loss deltas")
    pe.add_argument("--config", required=True)
    pe.add_argument("--records")
    pe.add_argument("--plot",
                    help="CSV of wd, beta, sign filter, mean delta loss")
    pe.add_argument("--force", action="store_true")
    pe.set_defaults(handler=_cmd_experiment, workers=1)

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
    ap.add_argument("--out", required=True)
    ap.add_argument("--plot", help="CSV of z, p(z), p(z) - sgn(z)")
    ap.add_argument("--plot-points", type=int, default=2001)
    ap.set_defaults(handler=_cmd_approx)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except datasets.DatasetFormatError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return 2
    except tf.IntervalOverflowError as exc:  # a slot left its certified B
        print(f"overflow error: {exc}", file=sys.stderr)
        return 2
    except PrecisionInfeasible as exc:  # its message names the beta asked for
        print(f"precision error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
