"""Machine checks of the convex-analysis claims behind activation-error
sensitivity, plus the experiment-cell engine and its three presets.

The validators work on one-dimensional convex probes with closed-form
one-sided derivatives. Two results are checked numerically: the limit of the
loss-increment gap between a probe minimized at a negative point and one
minimized at a positive point, and the lower bound eps * h'_+(a) <=
h(a + eps) - h(a), which is an exact consequence of convexity and must hold
without a single violation.

Every experiment is a grid of cells. A cell trains one network at one (wd,
seed), turns a divergence into its single ``failed`` row, and otherwise
evaluates the trained network: at composite precisions past the loss
plateau (weight-decay sweep; the CLI's precision sweep is this preset at
the final epoch), at fixed-point widths (truncation sweep), or under
sign-filtered injection (perturbation sweep). The weight-decay sweep finds
the plateau as training runs, keeps only the networks its t' pick, and
calibrates each once; t' values that cap to one epoch share its measurement.
``run_cells`` is the one engine; a cell whose hash is already stored is
read back instead of trained.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import nn
from . import records
from . import training
from . import transform as tf
from .datasets import Dataset
from .fixedpoint import FixedPointFormat, TruncatedReLU
from .polyapprox import build_appsgn
from .training import MixupConfig, NgnvConfig, TrainingDiverged, evaluate


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

    def midpoint_convex(self) -> bool:
        """h((x+y)/2) <= (h(x)+h(y))/2 on a 41 x 41 grid over [-3, 3]."""
        pts = np.linspace(-3.0, 3.0, 41)
        x, y = pts[:, None], pts[None, :]
        lhs = self.h((x + y) / 2.0)
        rhs = (self.h(x) + self.h(y)) / 2.0
        scale = max(1.0, float(np.max(np.abs(rhs))))
        return bool(np.all(lhs <= rhs + 1e-9 * scale))  # rounding slack


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


def _loglog_slope(eps: np.ndarray, residuals: np.ndarray):
    """Least-squares slope of log(residual) vs log(eps); None when the
    residuals sit below 1e-10 (exact agreement, no rate to measure)."""
    m = residuals > 1e-10
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
    comparison shares its noise draws. Returns per-seed rows of beta,
    sign_filter, seed and delta_loss, plus one aggregate row (seed='mean')
    per (beta, filter).
    """
    base_loss, _ = evaluate(net, x, y, loss_kind=loss_kind)
    rows = []
    for beta in betas:
        for filt in sign_filters:
            deltas = []
            for seed in seeds:
                probe = tf.transform(
                    net, tf.InjectedReLU(beta=beta, sign_filter=filt,
                                         mode=mode, seed=seed))
                loss, _ = evaluate(probe, x, y, loss_kind=loss_kind)
                deltas.append(loss - base_loss)
                rows.append({"beta": int(beta), "sign_filter": filt,
                             "seed": int(seed), "delta_loss": loss - base_loss})
            rows.append({"beta": int(beta), "sign_filter": filt,
                         "seed": "mean", "delta_loss": float(np.mean(deltas))})
    return rows


def detect_plateau(train_losses):
    """First 1-based epoch whose loss improved relatively less than 1e-4
    over the preceding 5 epochs; None if training never plateaued."""
    losses = list(train_losses)
    for e in range(6, len(losses) + 1):
        ref = losses[e - 6]
        rel = (ref - losses[e - 1]) / max(abs(ref), 1e-12)
        if rel < 1e-4:
            return e
    return None


# ---------------------------------------------------------------------------
# experiment specs: a grid of (wd, seed) cells, each trained once


SWEEP_METHODS = ("vanilla", "mixup", "ngnv", "mixup+ngnv")


@dataclass(frozen=True, kw_only=True)
class _CellSpec:
    """The training settings every spec shares, each default stated once,
    and what the cell engine reads from a spec. ``grid`` names the fields a
    cell takes its (wd, seed) from; they stay out of the cell's hash, so
    growing a grid keeps the cells already cached."""

    epochs: int = 20
    lr: float = 0.05
    momentum: float = 0.9
    batch_size: int = 64
    # a spec without these as fields trains with them fixed; a mixup or
    # ngnv config of None trains without that option
    loss = "cross_entropy"
    milestones = ()
    gamma = 0.1
    mixup = ngnv = None
    columns = records.SWEEP_COLUMNS
    grid = ()  # a spec without a grid is one run

    def _check(self, **checks):
        """Raise nn.FieldError for the first field whose (ok, wanted) check
        fails; every grid needs distinct values and every spec must train."""
        shared = [(name, (0 < len(v) == len(set(v)),
                          "a non-empty grid of distinct values"))
                  for name, v in vars(self).items()
                  if name != "milestones"  # a schedule, not a grid
                  and isinstance(v, (tuple, list))]
        decay = "wds" if "wds" in self.grid else "wd"
        shared += [("epochs", (self.epochs >= 1, "an integer >= 1")),
                   ("batch_size", (self.batch_size >= 1, "an integer >= 1")),
                   ("loss", (self.loss in nn.LOSS_KINDS,
                             f"one of {nn.LOSS_KINDS}")),
                   ("lr", (self.lr > 0, "a positive number")),
                   ("momentum", (0 <= self.momentum < 1,
                                 "a number in [0, 1)")),
                   ("gamma", (self.gamma > 0, "a positive number")),
                   (decay, (np.all(np.asarray(getattr(self, decay)) >= 0),
                            "nonnegative weight decay"))]
        for name, (ok, wanted) in shared + list(checks.items()):
            if not ok:
                raise nn.FieldError(f"{name}: expected {wanted}, got "
                                    f"{getattr(self, name)!r}")


@dataclass(frozen=True, kw_only=True)
class SweepSpec(_CellSpec):
    """Grid for the weight-decay and precision experiments.

    t_primes are epochs past the detected train-loss plateau at which the
    model is kept and approximated, each capped at the final epoch;
    betas are approximant precisions. A spec whose t' are all >= epochs
    only ever evaluates the final network, so it skips the plateau pass.
    """

    wds: tuple[float, ...]
    seeds: tuple[int, ...]
    betas: tuple[int, ...]
    t_primes: tuple[int, ...] = (0,)
    method: str = "vanilla"
    mixup_alpha: float = 0.5
    ngnv_r: float = 0.3
    ngnv_scale: float = 0.05
    bound_safety: float = 1.2
    calib_samples: int = 512

    grid = ("wds", "seeds")

    def __post_init__(self):
        self._check(
            method=(self.method in SWEEP_METHODS, f"one of {SWEEP_METHODS}"),
            betas=(all(b >= 1 for b in self.betas), "integers >= 1"),
            t_primes=(all(t >= 0 for t in self.t_primes), "integers >= 0"),
            calib_samples=(self.calib_samples >= 1, "an integer >= 1"),
            bound_safety=(self.bound_safety > 0, "a positive number"),
            mixup_alpha=(self.mixup_alpha > 0, "a positive number"),
            ngnv_r=(0 <= self.ngnv_r <= 1, "a number in [0, 1]"),
            ngnv_scale=(self.ngnv_scale >= 0, "a nonnegative number"))

    def cells(self):
        return [(wd, seed) for wd in self.wds for seed in self.seeds]

    @property
    def mixup(self):
        return (MixupConfig(alpha=self.mixup_alpha) if "mixup" in self.method
                else None)

    @property
    def ngnv(self):
        return NgnvConfig(r=self.ngnv_r if "ngnv" in self.method else 0.0,
                          noise_scale=self.ngnv_scale)


@dataclass(frozen=True, kw_only=True)
class TruncSpec(_CellSpec):
    """Grid for the truncation experiment: one cell per seed at weight decay
    wd, evaluated at every total fixed-point bit width in l_xs."""

    l_xs: tuple[int, ...]
    seeds: tuple[int, ...]
    wd: float = 0.0

    grid = ("seeds",)
    method = "truncation"

    def __post_init__(self):
        self._check()
        for l_x in self.l_xs:
            try:
                FixedPointFormat(l_x)
            except ValueError as exc:
                raise nn.FieldError(f"l_xs: {l_x!r} is no width: {exc}")

    def cells(self):
        return [(self.wd, seed) for seed in self.seeds]


@dataclass(frozen=True, kw_only=True)
class PerturbSpec(_CellSpec):
    """Grid for the sign-filtered injection experiment: one cell per wd,
    trained at train_seed, then probed at every beta, sign filter and
    injection seed."""

    wds: tuple[float, ...]
    betas: tuple[int, ...]
    seeds: tuple[int, ...] = (0, 1, 2)
    sign_filters: tuple[str, ...] = ("neg_only", "pos_only")
    mode: str = "worst_case_fixed"
    train_seed: int = 0
    loss: str = _CellSpec.loss

    grid = ("wds",)
    method = "perturb"
    columns = records.RECORD_COLUMNS

    def __post_init__(self):
        self._check(
            betas=(all(b >= 1 for b in self.betas), "integers >= 1"),
            sign_filters=(set(self.sign_filters) <= set(tf.SIGN_FILTERS),
                          f"filters from {tf.SIGN_FILTERS}"),
            mode=(self.mode in tf.INJECTION_MODES,
                  f"one of {tf.INJECTION_MODES}"))

    def cells(self):
        return [(wd, self.train_seed) for wd in self.wds]


@dataclass(frozen=True, kw_only=True)
class TrainSpec(_CellSpec):
    """One training run, as ``pannkit train`` reads it; a run without a
    mixup or ngnv config trains without that option."""

    epochs: int = field()  # no default: a run states its length
    seed: int = 0
    loss: str = _CellSpec.loss
    wd: float = 0.0
    milestones: tuple[int, ...] = _CellSpec.milestones
    gamma: float = _CellSpec.gamma
    mixup: MixupConfig | None = None
    ngnv: NgnvConfig | None = None

    columns = records.RECORD_COLUMNS

    def __post_init__(self):
        self._check()

    def cells(self):
        return [(self.wd, self.seed)]

    @property
    def method(self) -> str:
        """The records' label: the options that are on, or vanilla."""
        return "+".join(name for name, on in (
            ("mixup", self.mixup is not None),
            ("ngnv", self.ngnv is not None and self.ngnv.enabled))
            if on) or "vanilla"


def train_cell(spec: _CellSpec, arch: str, data: Dataset, wd: float,
               seed: int, on_epoch=None) -> nn.Network:
    """The network arch, initialised from seed, trained under the spec's
    settings at weight decay wd, with ``on_epoch`` as ``training.train``
    takes it. Raises TrainingDiverged on a non-finite loss.
    No name here holds the initial network, so its parameters are freed
    at the first SGD step."""
    sgd = nn.SgdState(lr=spec.lr, momentum=spec.momentum, weight_decay=wd,
                      milestones=spec.milestones, gamma=spec.gamma)
    return training.train(nn.build_arch(arch, data.sample_shape,
                                        data.n_classes, seed),
                          data, sgd, epochs=spec.epochs,
                          batch_size=spec.batch_size, mixup=spec.mixup,
                          ngnv=spec.ngnv, seed=seed, loss_kind=spec.loss,
                          on_epoch=on_epoch)


@dataclass(frozen=True)
class SweepResult:
    rows: tuple          # dict rows matching the spec's record columns
    trend: dict | None   # per-preset means; None for the perturbation sweep
    n_written: int
    cells: tuple         # per-cell status dicts


# ---------------------------------------------------------------------------
# the cell engine and its cache harness


def _sweep_cells(cells, chash, runner, store, force, workers):
    """The cache harness: skip cells whose hash is stored, run the rest
    (optionally on a bounded thread pool), then append rows in deterministic
    cell order from this single writer. Returns (rows per cell, rows
    written, cached cells)."""
    cached = set()
    if store is not None and not force:
        cached = {c for c in cells if chash[c] in store.rows}
    to_run = [c for c in cells if c not in cached]
    if workers > 1 and len(to_run) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = dict(zip(to_run, pool.map(runner, to_run)))
    else:
        results = {c: runner(c) for c in to_run}
    n_written = 0
    for c in cells:
        if c in cached:
            results[c] = store.rows[chash[c]]
        elif store is not None:
            n_written += store.append_rows(results[c], force=force)
    return results, n_written, cached


def run_cells(experiment: str, spec, arch: str, data: Dataset, evaluation,
              *, store: records.RecordStore | None = None,
              force: bool = False, workers: int = 1):
    """The one experiment-cell engine.

    A cell's hash covers the experiment, the arch, the dataset's spec, every
    non-grid spec field and the cell's (wd, seed). A cell not in the store
    runs ``evaluation(train, base)``, which trains once with
    ``train(on_epoch=None) -> Network`` and returns rows that extend
    ``base``; a divergence becomes the cell's single ``failed`` row.
    Returns (rows, rows written, statuses) by cell."""
    key = {k: v for k, v in asdict(spec).items() if k not in spec.grid}
    key.update(experiment=experiment, arch=arch, dataset=data.spec.key())
    cells = spec.cells()
    chash = {c: records.config_hash(dict(key, wd=c[0], seed=c[1]))
             for c in cells}

    def runner(cell):
        wd, seed = cell
        known = {"config_hash": chash[cell], "timestamp": records.timestamp(),
                 "arch": arch, "dataset": data.spec.source,
                 "method": spec.method, "wd": wd, "epochs": spec.epochs,
                 "seed": seed}
        base = {k: known.get(k, "") for k in spec.columns}
        try:
            return evaluation(lambda on_epoch=None: train_cell(
                spec, arch, data, wd, seed, on_epoch), base)
        except TrainingDiverged as exc:
            return [dict(base, metric="failed", value=float(exc.epoch))]

    results, n_written, cached = _sweep_cells(cells, chash, runner, store,
                                              force, workers)
    statuses = {}
    for c in cells:
        st = {"wd": c[0], "seed": c[1],
              "status": "cached" if c in cached else "ok"}
        for r in results[c]:
            if r["metric"] == "failed":
                st.update(status="failed",
                          diverged_at_epoch=int(r["value"]))
        statuses[c] = st
    return ([r for c in cells for r in results[c]], n_written,
            tuple(statuses.values()))


# ---------------------------------------------------------------------------
# presets: what each experiment evaluates on a trained cell


def _trend(rows, metric: str, keys) -> dict:
    """int(key) -> mean value of the metric's rows whose beta column holds
    the key (the bit width for truncation rows); keys without rows are
    left out."""
    trend = {}
    for key in keys:
        vals = [r["value"] for r in rows
                if r["metric"] == metric and r["beta"] == key]
        if vals:
            trend[int(key)] = float(np.mean(vals))
    return trend


def _result(rows, trend, n_written, cells) -> SweepResult:
    return SweepResult(tuple(rows), trend, n_written,
                       tuple(sorted(cells, key=lambda c: (c["wd"],
                                                          c["seed"]))))


def weight_decay_sweep(spec: SweepSpec, arch: str, data: Dataset, *,
                       store: records.RecordStore | None = None,
                       force: bool = False, workers: int = 1) -> SweepResult:
    """Train per (wd, seed) cell, keep the networks t' epochs past the
    train-loss plateau, approximate them at each beta, and persist
    accuracy/loss rows, with a plateau_epoch row unless every t' >= epochs.
    Each kept network is calibrated once; t' values that cap to the same
    epoch repeat its rows' values. Cells already present in the store are
    read back instead of recomputed (unless force). trend maps beta -> wd ->
    mean accuracy at the last t'."""

    # every t' caps at the final epoch: no plateau to find, one network
    final_only = min(spec.t_primes) >= spec.epochs

    def evaluation(train, base):
        # the first use of the data loads it and checks the arch; then an
        # unreachable beta fails before training. The calibrated builds
        # below share these chains, which depend on beta alone
        x_train = data.x_train
        for beta in spec.betas:
            build_appsgn(beta)
        plateau, losses, kept = None, [], {}  # kept: epoch -> network

        def on_epoch(epoch, net):
            nonlocal plateau  # found at its own epoch: a t' picks no earlier
            if plateau is None:
                losses.append(evaluate(net, x_train, data.y_train)[0])
                plateau = detect_plateau(losses)
            if plateau is not None and epoch - plateau in spec.t_primes:
                kept[epoch] = net

        kept[spec.epochs] = train(on_epoch=None if final_only else on_epoch)
        plateau = plateau or spec.epochs
        rows = [] if final_only else [dict(base, metric="plateau_epoch",
                                           value=float(plateau))]
        measured = {}  # kept epoch -> backbone and per-beta (loss, acc)
        for t_prime in spec.t_primes:
            epoch = min(plateau + int(t_prime), spec.epochs)
            if epoch not in measured:  # one calibration per network
                net = kept[epoch]
                backbone = evaluate(net, data.x_test, data.y_test)
                bound = tf.calibrate_bound(
                    net, x_train[:spec.calib_samples],
                    safety=spec.bound_safety)
                measured[epoch] = backbone, [evaluate(tf.transform(
                    net, tf.CompositeReLU(build_appsgn(beta, bound))),
                    data.x_test, data.y_test) for beta in spec.betas]
            (bb_loss, bb_acc), panns = measured[epoch]
            rows.append(dict(base, t_prime=t_prime,
                             metric="backbone_accuracy", value=bb_acc))
            for beta, (p_loss, p_acc) in zip(spec.betas, panns):
                rows.append(dict(base, t_prime=t_prime, beta=int(beta),
                                 metric="pann_accuracy", value=p_acc))
                rows.append(dict(base, t_prime=t_prime, beta=int(beta),
                                 metric="delta_test_loss",
                                 value=p_loss - bb_loss))
        return rows

    rows, n_written, cells = run_cells(
        "wd_sweep", spec, arch, data, evaluation, store=store,
        force=force, workers=workers)
    t_max = max(spec.t_primes)
    trend = {int(beta): {} for beta in spec.betas}
    for wd in spec.wds:
        at_wd = [r for r in rows if r["wd"] == wd and r["t_prime"] == t_max]
        for beta, mean in _trend(at_wd, "pann_accuracy", spec.betas).items():
            trend[beta][wd] = mean
    return _result(rows, trend, n_written, cells)


def truncation_sweep(spec: TruncSpec, arch: str, data: Dataset, *,
                     store: records.RecordStore | None = None,
                     force: bool = False, workers: int = 1) -> SweepResult:
    """Train once per seed, then evaluate the net with every ReLU replaced
    by the truncation-protocol activation at each total bit width l_x.
    trend maps l_x -> mean accuracy."""

    def evaluation(train, base):
        net = train()
        # the beta column doubles as the bit width for truncation rows
        return [dict(base, beta=int(l_x), metric="trunc_accuracy",
                     value=evaluate(tf.transform(net, TruncatedReLU(
                         FixedPointFormat(l_x))), data.x_test,
                         data.y_test)[1])
                for l_x in spec.l_xs]

    rows, n_written, cells = run_cells(
        "trunc_sweep", spec, arch, data, evaluation, store=store,
        force=force, workers=workers)
    return _result(rows, _trend(rows, "trunc_accuracy", spec.l_xs),
                   n_written, cells)


def perturbation_sweep(spec: PerturbSpec, arch: str, data: Dataset, *,
                       store: records.RecordStore | None = None,
                       force: bool = False, workers: int = 1) -> SweepResult:
    """Train one model per wd, then record the test-loss increment of every
    (beta, sign filter, injection seed) probe and of each probe set's mean.
    Cells report wd and status in spec.wds order; there is no trend."""

    def evaluation(train, base):
        net = train()
        return [dict(base, precision=f"beta={int(r['beta'])}",
                     seed=r["seed"], metric=f"delta_loss_{r['sign_filter']}",
                     value=r["delta_loss"])
                for r in perturbation_loss_experiment(
                    net, data.x_test, data.y_test, betas=spec.betas,
                    sign_filters=spec.sign_filters, mode=spec.mode,
                    seeds=spec.seeds, loss_kind=spec.loss)]

    rows, n_written, cells = run_cells(
        "perturb", spec, arch, data, evaluation, store=store,
        force=force, workers=workers)
    cells = tuple({k: v for k, v in c.items() if k != "seed"} for c in cells)
    return SweepResult(tuple(rows), None, n_written, cells)
