"""Machine checks of the convex-analysis claims behind activation-error
sensitivity, plus the perturbation and weight-decay experiment drivers.

The validators work on one-dimensional convex probes with closed-form
one-sided derivatives. Two results are checked numerically: the limit of the
loss-increment gap between a probe minimized at a negative point and one
minimized at a positive point, and the lower bound eps * h'_+(a) <=
h(a + eps) - h(a), which is an exact consequence of convexity and must hold
without a single violation.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import nn
from . import records
from . import transform as tf
from .datasets import Dataset
from .fixedpoint import FixedPointFormat, TruncatedReLU
from .training import (MixupConfig, NgnvConfig, TrainingDiverged, evaluate,
                       train)


@dataclass(frozen=True)
class ConvexProbe:
    """One-dimensional convex test function with explicit one-sided slopes.

    ``zbar`` is the pre-activation anchor; validators evaluate increments at
    a = max(zbar, 0). For the limit-gap validator zbar must be the probe's
    minimizer; the lower-bound validator accepts any anchor.
    """

    name: str
    h: object  # vectorized callable
    d_minus: object
    d_plus: object
    zbar: float

    @property
    def a(self) -> float:
        return max(self.zbar, 0.0)

    def midpoint_convex(self, lo: float = -3.0, hi: float = 3.0,
                        n: int = 41, tol: float = 1e-9) -> bool:
        """h((x+y)/2) <= (h(x)+h(y))/2 on an n x n grid, up to tol."""
        pts = np.linspace(lo, hi, n)
        x = pts[:, None]
        y = pts[None, :]
        lhs = self.h((x + y) / 2.0)
        rhs = (self.h(x) + self.h(y)) / 2.0
        scale = max(1.0, float(np.max(np.abs(rhs))))
        return bool(np.all(lhs <= rhs + tol * scale))


def quadratic_probe(center: float, scale: float = 1.0) -> ConvexProbe:
    """h(u) = scale * (u - center)^2, minimized at center."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return ConvexProbe(
        name=f"quadratic(center={center}, scale={scale})",
        h=lambda u: scale * (np.asarray(u, dtype=float) - center) ** 2,
        d_minus=lambda u: 2.0 * scale * (u - center),
        d_plus=lambda u: 2.0 * scale * (u - center),
        zbar=float(center))


def abs_plus_quadratic_probe() -> ConvexProbe:
    """h(u) = |u + 0.5| + u^2: kink at -0.5, right slope 1 at the origin."""
    def h(u):
        u = np.asarray(u, dtype=float)
        return np.abs(u + 0.5) + u ** 2

    return ConvexProbe(
        name="abs(u+0.5)+u^2",
        h=h,
        d_minus=lambda u: 2.0 * u + (1.0 if u > -0.5 else -1.0),
        d_plus=lambda u: 2.0 * u + (1.0 if u >= -0.5 else -1.0),
        zbar=-0.5)


def exp_probe() -> ConvexProbe:
    """h(u) = e^u anchored at 0; convex but nowhere stationary."""
    return ConvexProbe(name="exp", h=lambda u: np.exp(np.asarray(u, float)),
                       d_minus=math.exp, d_plus=math.exp, zbar=0.0)


def default_lemma_probes() -> tuple:
    return (quadratic_probe(1.0), quadratic_probe(-1.0), exp_probe())


# ---------------------------------------------------------------------------
# the two validators


def _require_convex(probe: ConvexProbe) -> None:
    if not probe.midpoint_convex():
        raise ValueError(f"probe {probe.name} fails the midpoint convexity "
                         "test; rejected")


def _loglog_slope(eps: np.ndarray, residuals: np.ndarray,
                  floor: float = 1e-10):
    """Least-squares slope of log(residual) vs log(eps); None when the
    residuals sit below the floor (exact agreement, no rate to measure)."""
    m = residuals > floor
    if int(m.sum()) < 2:
        return None
    return float(np.polyfit(np.log(eps[m]), np.log(residuals[m]), 1)[0])


@dataclass(frozen=True)
class GapLimitReport:
    epsilons: np.ndarray
    ratios: np.ndarray      # (dh_neg - dh_pos) / eps
    limit: float            # h'_+(0) of the negative-anchored probe
    residuals: np.ndarray
    slope: float | None     # log-log convergence rate, None if exact

    def ratio_at(self, eps: float) -> float:
        i = int(np.argmin(np.abs(self.epsilons - eps)))
        if not np.isclose(self.epsilons[i], eps, rtol=1e-9):
            raise ValueError(f"eps {eps} not in the evaluated sequence")
        return float(self.ratios[i])


def validate_theorem1(probe_neg: ConvexProbe, probe_pos: ConvexProbe,
                      epsilons=None) -> GapLimitReport:
    """Check the loss-increment gap limit on a closed-form probe pair.

    probe_neg is minimized at zbar < 0 (so its increment is taken at a = 0),
    probe_pos at zbar > 0. For each eps the gap (dh_neg - dh_pos) / eps is
    compared against h'_+(0) of the negative probe, which the limit equals;
    the report carries the observed convergence rate.
    """
    if epsilons is None:
        epsilons = np.geomspace(1e-1, 1e-6, 26)
    epsilons = np.asarray(epsilons, dtype=float)
    if np.any(epsilons <= 0):
        raise ValueError("epsilons must be positive")
    if probe_neg.zbar >= 0:
        raise ValueError("probe_neg must be anchored at a negative minimizer")
    if probe_pos.zbar <= 0:
        raise ValueError("probe_pos must be anchored at a positive minimizer")
    for probe in (probe_neg, probe_pos):
        _require_convex(probe)
        if not (probe.d_minus(probe.zbar) <= 0.0 <= probe.d_plus(probe.zbar)):
            raise ValueError(
                f"probe {probe.name} is not stationary at zbar={probe.zbar}")
    a_pos = probe_pos.zbar
    dh_neg = probe_neg.h(epsilons) - probe_neg.h(0.0)
    dh_pos = probe_pos.h(a_pos + epsilons) - probe_pos.h(a_pos)
    ratios = (dh_neg - dh_pos) / epsilons
    limit = float(probe_neg.d_plus(0.0))
    residuals = np.abs(ratios - limit)
    return GapLimitReport(epsilons=epsilons, ratios=ratios, limit=limit,
                          residuals=residuals,
                          slope=_loglog_slope(epsilons, residuals))


@dataclass(frozen=True)
class LowerBoundReport:
    name: str
    epsilons: np.ndarray
    lhs: np.ndarray         # eps * h'_+(a)
    rhs: np.ndarray         # h(a + eps) - h(a)
    violations: int
    min_margin: float       # min(rhs - lhs); >= 0 when the bound holds

    @property
    def passed(self) -> bool:
        return self.violations == 0


def validate_lemma_bound(probe: ConvexProbe,
                         epsilons=None) -> LowerBoundReport:
    """eps * h'_+(a) <= h(a + eps) - h(a) for every eps; a = max(zbar, 0)."""
    if epsilons is None:
        epsilons = np.geomspace(1e-6, 1.0, 50)
    epsilons = np.asarray(epsilons, dtype=float)
    if np.any(epsilons <= 0):
        raise ValueError("epsilons must be positive")
    _require_convex(probe)
    a = probe.a
    lhs = epsilons * probe.d_plus(a)
    rhs = probe.h(a + epsilons) - probe.h(a)
    margins = rhs - lhs
    return LowerBoundReport(name=probe.name, epsilons=epsilons, lhs=lhs,
                            rhs=rhs, violations=int(np.sum(margins < 0)),
                            min_margin=float(np.min(margins)))


# ---------------------------------------------------------------------------
# perturbation experiment: loss increment under sign-filtered injection


def perturbation_loss_experiment(net: nn.Network, x: np.ndarray,
                                 y: np.ndarray, betas, *,
                                 sign_filters=("neg_only", "pos_only"),
                                 mode: str = "worst_case_fixed",
                                 seeds=(0, 1, 2),
                                 loss_kind: str = "cross_entropy") -> list:
    """Test-loss increment when only one sign class of activation inputs is
    perturbed. The same seeds are used for every sign filter, so the neg/pos
    comparison shares its noise draws. Returns per-seed rows plus one
    aggregate row (seed='mean') per (beta, filter).
    """
    base_loss, base_acc = evaluate(net, x, y, loss_kind=loss_kind)
    rows = []
    for beta in betas:
        for filt in sign_filters:
            deltas = []
            for seed in seeds:
                probe = tf.transform(
                    net, tf.InjectedReLU(beta=beta, sign_filter=filt,
                                         mode=mode, seed=seed))
                loss, acc = evaluate(probe, x, y, loss_kind=loss_kind)
                deltas.append(loss - base_loss)
                rows.append({"beta": int(beta), "sign_filter": filt,
                             "seed": int(seed), "delta_loss": loss - base_loss,
                             "loss": loss, "accuracy": acc})
            rows.append({"beta": int(beta), "sign_filter": filt,
                         "seed": "mean",
                         "delta_loss": float(np.mean(deltas)),
                         "loss": base_loss + float(np.mean(deltas)),
                         "accuracy": base_acc})
    return rows


# ---------------------------------------------------------------------------
# weight-decay sweep


def detect_plateau(train_losses, rel_tol: float = 1e-4,
                   window: int = 5):
    """First 1-based epoch whose loss improved relatively less than rel_tol
    over the preceding ``window`` epochs; None if training never plateaued."""
    losses = list(train_losses)
    for e in range(window + 1, len(losses) + 1):
        ref = losses[e - 1 - window]
        rel = (ref - losses[e - 1]) / max(abs(ref), 1e-12)
        if rel < rel_tol:
            return e
    return None


SWEEP_METHODS = ("vanilla", "mixup", "ngnv", "mixup+ngnv")


@dataclass(frozen=True)
class SweepSpec:
    """Grid for the weight-decay experiment.

    t_primes are epochs past the detected train-loss plateau at which the
    model is snapshotted and approximated; betas are approximant precisions.
    """

    wds: tuple
    seeds: tuple
    betas: tuple
    t_primes: tuple = (0,)
    epochs: int = 20
    lr: float = 0.05
    momentum: float = 0.9
    batch_size: int = 64
    method: str = "vanilla"
    mixup_alpha: float = 0.5
    ngnv_r: float = 0.3
    ngnv_scale: float = 0.05
    bound_safety: float = 1.2
    max_stage_degree: int = 15
    calib_samples: int = 512

    def __post_init__(self):
        for grid in ("wds", "seeds", "betas", "t_primes"):
            if not getattr(self, grid):
                raise ValueError(f"{grid} grid must be non-empty")
        if self.method not in SWEEP_METHODS:
            raise ValueError(f"method must be one of {SWEEP_METHODS}")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")

    def options(self):
        mixup = MixupConfig(enabled="mixup" in self.method,
                            alpha=self.mixup_alpha)
        ngnv = NgnvConfig(r=self.ngnv_r if "ngnv" in self.method else 0.0,
                          noise_scale=self.ngnv_scale)
        return mixup, ngnv


@dataclass(frozen=True)
class SweepResult:
    rows: tuple          # dict rows matching records.SWEEP_COLUMNS
    trend: dict          # per-beta mean pann accuracy keyed by wd
    n_written: int


def _cell_config(spec: SweepSpec, arch: str, dataset: str, wd: float,
                 seed: int) -> dict:
    return {"experiment": "wd_sweep", "arch": arch, "dataset": dataset,
            "method": spec.method, "wd": wd, "seed": seed,
            "epochs": spec.epochs, "lr": spec.lr,
            "momentum": spec.momentum, "batch_size": spec.batch_size,
            "t_primes": list(spec.t_primes), "betas": list(spec.betas),
            "mixup_alpha": spec.mixup_alpha, "ngnv_r": spec.ngnv_r,
            "ngnv_scale": spec.ngnv_scale,
            "bound_safety": spec.bound_safety,
            "max_stage_degree": spec.max_stage_degree,
            "calib_samples": spec.calib_samples}


def _run_cell(spec: SweepSpec, arch: str, data: Dataset, wd: float,
              seed: int, chash: str, dataset_name: str) -> list:
    base = {"config_hash": chash, "timestamp": records.timestamp(),
            "arch": arch, "dataset": dataset_name, "method": spec.method,
            "wd": wd, "epochs": spec.epochs, "seed": seed}
    mixup, ngnv = spec.options()
    net0 = nn.build_arch(arch, data.sample_shape, data.n_classes, seed)
    sgd = nn.SgdState(lr=spec.lr, momentum=spec.momentum, weight_decay=wd)
    try:
        result = train(net0, data, sgd, epochs=spec.epochs,
                       batch_size=spec.batch_size, mixup=mixup, ngnv=ngnv,
                       seed=seed, epoch_metrics=False,
                       snapshot_epochs=range(1, spec.epochs + 1))
    except TrainingDiverged as exc:
        return [dict(base, t_prime="", beta="", metric="failed",
                     value=float(exc.epoch))]
    plateau = detect_plateau(
        [evaluate(result.snapshots[e], data.x_train, data.y_train)[0]
         for e in range(1, spec.epochs + 1)])
    if plateau is None:
        plateau = spec.epochs
    calib = data.x_train[:spec.calib_samples]
    rows = [dict(base, t_prime="", beta="", metric="plateau_epoch",
                 value=float(plateau))]
    for t_prime in spec.t_primes:
        epoch = min(plateau + int(t_prime), spec.epochs)
        net = result.snapshots[epoch]
        bb_loss, bb_acc = evaluate(net, data.x_test, data.y_test)
        rows.append(dict(base, t_prime=t_prime, beta="",
                         metric="backbone_accuracy", value=bb_acc))
        for beta in spec.betas:
            pann = tf.build_composite_pann(
                net, calib, beta, safety=spec.bound_safety,
                max_stage_degree=spec.max_stage_degree)
            p_loss, p_acc = evaluate(pann, data.x_test, data.y_test)
            rows.append(dict(base, t_prime=t_prime, beta=int(beta),
                             metric="pann_accuracy", value=p_acc))
            rows.append(dict(base, t_prime=t_prime, beta=int(beta),
                             metric="delta_test_loss",
                             value=p_loss - bb_loss))
    return rows


def _sweep_cells(cells, chash, runner, store, force, workers):
    """Shared cell harness: skip cells whose hash is stored, run the rest
    (optionally on a bounded thread pool), then append rows in deterministic
    cell order from this single writer. Returns (rows, n_written)."""
    cached = set()
    if store is not None and not force:
        have = store.hashes()
        cached = {c for c in cells if chash[c] in have}
    to_run = [c for c in cells if c not in cached]
    results = {}
    if workers > 1 and len(to_run) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futs = [(c, pool.submit(runner, c)) for c in to_run]
        for c, fut in futs:
            results[c] = fut.result()
    else:
        for c in to_run:
            results[c] = runner(c)
    all_rows = []
    n_written = 0
    stored = store.read_rows() if cached else []
    for c in cells:
        if c in cached:
            for r in stored:
                if r["config_hash"] == chash[c]:
                    all_rows.append(dict(r, wd=float(r["wd"]),
                                         seed=int(r["seed"]),
                                         value=float(r["value"])))
        else:
            if store is not None:
                n_written += store.append_rows(results[c], force=force)
            all_rows.extend(results[c])
    return all_rows, n_written


def weight_decay_sweep(spec: SweepSpec, arch: str, data: Dataset, *,
                       store: records.RecordStore | None = None,
                       dataset_name: str | None = None,
                       force: bool = False, workers: int = 1) -> SweepResult:
    """Train per (wd, seed) cell, snapshot past the plateau, approximate at
    each beta, and persist accuracy/loss rows. Cells already present in the
    store are read back instead of recomputed (unless force)."""
    dataset_name = dataset_name or data.name or "dataset"
    cells = [(wd, seed) for wd in spec.wds for seed in spec.seeds]
    chash = {c: records.config_hash(
        _cell_config(spec, arch, dataset_name, c[0], c[1])) for c in cells}
    all_rows, n_written = _sweep_cells(
        cells, chash,
        lambda c: _run_cell(spec, arch, data, c[0], c[1], chash[c],
                            dataset_name),
        store, force, workers)
    trend = {}
    t_max = max(spec.t_primes)
    for beta in spec.betas:
        by_wd = {}
        for wd in spec.wds:
            vals = [float(r["value"]) for r in all_rows
                    if r["metric"] == "pann_accuracy"
                    and float(r["wd"]) == float(wd)
                    and str(r["beta"]) == str(int(beta))
                    and str(r["t_prime"]) == str(t_max)]
            if vals:
                by_wd[wd] = float(np.mean(vals))
        trend[int(beta)] = by_wd
    return SweepResult(rows=tuple(all_rows), trend=trend,
                       n_written=n_written)


def _run_beta_cell(spec: SweepSpec, arch: str, data: Dataset, wd: float,
                   seed: int, chash: str, dataset_name: str) -> list:
    base = {"config_hash": chash, "timestamp": records.timestamp(),
            "arch": arch, "dataset": dataset_name, "method": spec.method,
            "wd": wd, "epochs": spec.epochs, "seed": seed, "t_prime": ""}
    mixup, ngnv = spec.options()
    net0 = nn.build_arch(arch, data.sample_shape, data.n_classes, seed)
    sgd = nn.SgdState(lr=spec.lr, momentum=spec.momentum, weight_decay=wd)
    try:
        result = train(net0, data, sgd, epochs=spec.epochs,
                       batch_size=spec.batch_size, mixup=mixup, ngnv=ngnv,
                       seed=seed, epoch_metrics=False)
    except TrainingDiverged as exc:
        return [dict(base, beta="", metric="failed",
                     value=float(exc.epoch))]
    calib = data.x_train[:spec.calib_samples]
    rows = []
    for beta in spec.betas:
        pann = tf.build_composite_pann(
            result.net, calib, beta, safety=spec.bound_safety,
            max_stage_degree=spec.max_stage_degree)
        _, acc = evaluate(pann, data.x_test, data.y_test)
        rows.append(dict(base, beta=int(beta), metric="pann_accuracy",
                         value=acc))
    return rows


def beta_sweep(spec: SweepSpec, arch: str, data: Dataset, *,
               store: records.RecordStore | None = None,
               dataset_name: str | None = None,
               force: bool = False, workers: int = 1) -> SweepResult:
    """Fully train one model per seed at a single weight decay, then report
    its approximated accuracy at every precision in spec.betas: exactly
    len(betas) rows per seed. trend maps beta -> mean accuracy."""
    if len(spec.wds) != 1:
        raise ValueError(f"beta sweep expects exactly one wd, got "
                         f"{spec.wds}")
    dataset_name = dataset_name or data.name or "dataset"
    wd = spec.wds[0]
    cells = [(wd, seed) for seed in spec.seeds]
    chash = {c: records.config_hash(dict(
        _cell_config(spec, arch, dataset_name, wd, c[1]),
        experiment="beta_sweep")) for c in cells}
    all_rows, n_written = _sweep_cells(
        cells, chash,
        lambda c: _run_beta_cell(spec, arch, data, wd, c[1], chash[c],
                                 dataset_name),
        store, force, workers)
    trend = {}
    for beta in spec.betas:
        vals = [float(r["value"]) for r in all_rows
                if r["metric"] == "pann_accuracy"
                and str(r["beta"]) == str(int(beta))]
        if vals:
            trend[int(beta)] = float(np.mean(vals))
    return SweepResult(rows=tuple(all_rows), trend=trend,
                       n_written=n_written)


def _run_trunc_cell(arch: str, data: Dataset, l_xs, seed: int, *, epochs,
                    lr, momentum, batch_size, wd, chash, dataset_name):
    base = {"config_hash": chash, "timestamp": records.timestamp(),
            "arch": arch, "dataset": dataset_name, "method": "truncation",
            "wd": wd, "epochs": epochs, "seed": seed, "t_prime": ""}
    net0 = nn.build_arch(arch, data.sample_shape, data.n_classes, seed)
    sgd = nn.SgdState(lr=lr, momentum=momentum, weight_decay=wd)
    try:
        result = train(net0, data, sgd, epochs=epochs,
                       batch_size=batch_size, seed=seed, epoch_metrics=False)
    except TrainingDiverged as exc:
        return [dict(base, beta="", metric="failed",
                     value=float(exc.epoch))]
    rows = []
    for l_x in l_xs:
        swapped = tf.transform(result.net,
                               TruncatedReLU(FixedPointFormat(int(l_x))))
        _, acc = evaluate(swapped, data.x_test, data.y_test)
        # the beta column doubles as the bit width for truncation rows
        rows.append(dict(base, beta=int(l_x), metric="trunc_accuracy",
                         value=acc))
    return rows


def truncation_sweep(arch: str, data: Dataset, *, l_xs, seeds,
                     epochs: int = 20, lr: float = 0.05,
                     momentum: float = 0.9, batch_size: int = 64,
                     wd: float = 0.0,
                     store: records.RecordStore | None = None,
                     dataset_name: str | None = None,
                     force: bool = False, workers: int = 1) -> SweepResult:
    """Train once per seed, then evaluate the net with every ReLU replaced
    by the truncation-protocol activation at each total bit width l_x.
    trend maps l_x -> mean accuracy."""
    if not l_xs or not seeds:
        raise ValueError("l_xs and seeds grids must be non-empty")
    if any(int(l) < 2 for l in l_xs):
        raise ValueError(f"bit widths must be >= 2, got {l_xs}")
    dataset_name = dataset_name or data.name or "dataset"
    cells = [(wd, seed) for seed in seeds]
    chash = {c: records.config_hash(
        {"experiment": "trunc_sweep", "arch": arch, "dataset": dataset_name,
         "wd": wd, "seed": c[1], "epochs": epochs, "lr": lr,
         "momentum": momentum, "batch_size": batch_size,
         "l_xs": [int(l) for l in l_xs]}) for c in cells}
    all_rows, n_written = _sweep_cells(
        cells, chash,
        lambda c: _run_trunc_cell(arch, data, l_xs, c[1], epochs=epochs,
                                  lr=lr, momentum=momentum,
                                  batch_size=batch_size, wd=wd,
                                  chash=chash[c], dataset_name=dataset_name),
        store, force, workers)
    trend = {}
    for l_x in l_xs:
        vals = [float(r["value"]) for r in all_rows
                if r["metric"] == "trunc_accuracy"
                and str(r["beta"]) == str(int(l_x))]
        if vals:
            trend[int(l_x)] = float(np.mean(vals))
    return SweepResult(rows=tuple(all_rows), trend=trend,
                       n_written=n_written)
