"""End-to-end acceptance checks, one test per numbered criterion.

Every test prints a single ``criterion NN: PASS|FAIL`` verdict with its
measured values and asserts the same condition, so a ``pytest -v`` run
carries exactly one result line per criterion. All seeds are pinned and
SOURCE_DATE_EPOCH is fixed for the module, which makes every record CSV
produced here byte-reproducible; criterion 13 re-runs those pipelines
from scratch and compares the files.

The image tasks run on the bundled synthetic digit generator (the IDX
loader accepts real MNIST files, but none ship with the repository).

Known result: criterion 9 fails at this scale and is left failing on
purpose. NGNV training measurably shrinks the approximation-induced
logit perturbation, but a beta=6 approximant built at desk scale leaves
errors far below any class margin, so the vanilla model loses nothing
and there is nothing for NGNV to recover. The README's acceptance
section and the repository notes carry the full analysis.
"""

import time

import numpy as np
import pytest

from pannkit import attack, datasets, nn, records, training
from pannkit import polyapprox as pa
from pannkit import sturdiness as sd
from pannkit import transform as tf
from pannkit.fixedpoint import FixedPointFormat, _nonneg_by_shifts
from pannkit.training import MixupConfig, NgnvConfig

from oracles import count_alternations, discrepancy_grid

BETAS = (6, 8, 10, 12)
SLACK = 0.005               # 0.5pp slack on accuracy-trend comparisons

CNN_ARCH = "cnn:4,8+32"
MLP_ARCH = "mlp:256,256"
TRUNC_ARCH = "mlp:32"
L_XS = (6, 8, 10, 12, 14, 16)

SWEEP_BASE = dict(seeds=(0, 1, 2), betas=(6,), t_primes=(0,), epochs=12,
                  lr=0.05, momentum=0.9, batch_size=32, calib_samples=256)
VAN_SPEC = sd.SweepSpec(method="vanilla", wds=(0.0, 1e-3, 5e-3), **SWEEP_BASE)
NGN_SPEC = sd.SweepSpec(method="ngnv", wds=(1e-3,), ngnv_r=0.3,
                        ngnv_scale=0.05, **SWEEP_BASE)
TRUNC_KW = dict(l_xs=L_XS, seeds=(0, 1, 2), epochs=8, lr=0.05, momentum=0.9,
                batch_size=32)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def _pinned_clock(tmp_path_factory):
    """Freeze record timestamps so CSV bytes depend only on the seeds."""
    import os
    old = os.environ.get("SOURCE_DATE_EPOCH")
    os.environ["SOURCE_DATE_EPOCH"] = "1700000000"
    yield
    if old is None:
        os.environ.pop("SOURCE_DATE_EPOCH", None)
    else:
        os.environ["SOURCE_DATE_EPOCH"] = old


# ---------------------------------------------------------------------------
# shared artifacts


@pytest.fixture(scope="module")
def certs():
    """One certified approximant per precision, with its build time."""
    out = {}
    for beta in BETAS:
        t0 = time.perf_counter()
        ap = pa.build_appsgn(beta=beta)
        out[beta] = (ap, time.perf_counter() - t0)
    return out


def _cert_grid(ap):
    # 1e5 points split evenly across the two certified branches
    half = np.linspace(ap.eps0, 1.0, 50_000)
    return np.concatenate([-half[::-1], half])


@pytest.fixture(scope="module")
def digits_small():
    # 1500 train / 2000 test; the pixel noise overlaps classes a little
    return datasets.load_dataset(datasets.DatasetSpec(
        source="synthetic_digits", n=3500, seed=0, noise=0.25,
        train_fraction=1500 / 3500))


@pytest.fixture(scope="module")
def digits_10k():
    return datasets.load_dataset(datasets.DatasetSpec(
        source="synthetic_digits", n=12500, seed=0, noise=0.25,
        train_fraction=0.8))


@pytest.fixture(scope="module")
def sweep_store_path(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance") / "wd_sweep.csv"


@pytest.fixture(scope="module")
def wd_sweeps(digits_small, sweep_store_path):
    """Vanilla wd grid plus the NGNV cell, persisted to one store."""
    store = records.RecordStore(sweep_store_path, records.SWEEP_COLUMNS)
    vanilla = sd.weight_decay_sweep(VAN_SPEC, CNN_ARCH, digits_small,
                                    store=store, workers=2)
    ngnv = sd.weight_decay_sweep(NGN_SPEC, CNN_ARCH, digits_small,
                                 store=store, workers=2)
    return vanilla, ngnv


@pytest.fixture(scope="module")
def trunc_store_path(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance_trunc") / "trunc.csv"


@pytest.fixture(scope="module")
def trunc_sweep(digits_small, trunc_store_path):
    store = records.RecordStore(trunc_store_path, records.SWEEP_COLUMNS)
    return sd.truncation_sweep(sd.TruncSpec(**TRUNC_KW), TRUNC_ARCH,
                               digits_small, store=store, workers=2)


def _run_mlp_cell(data, wd: float, seed: int) -> list:
    """Train the 2x256 net and measure sign-filtered injection deltas."""
    net0 = nn.build_arch(MLP_ARCH, data.sample_shape, data.n_classes, seed)
    sgd = nn.SgdState(lr=0.05, momentum=0.9, weight_decay=wd)
    net = training.train(net0, data, sgd, epochs=20, batch_size=64,
                         seed=seed)
    return sd.perturbation_loss_experiment(
        net, data.x_test, data.y_test, betas=(10,), seeds=(0, 1, 2))


@pytest.fixture(scope="module")
def mlp_cells(digits_10k):
    t0 = time.perf_counter()
    cells = {(wd, seed): _run_mlp_cell(digits_10k, wd, seed)
             for wd in (0.0, 1e-3) for seed in (0, 1, 2)}
    return cells, time.perf_counter() - t0


def _mean_backbone(rows, wd: float) -> float:
    vals = [float(r["value"]) for r in rows
            if r["metric"] == "backbone_accuracy"
            and float(r["wd"]) == float(wd)]
    return float(np.mean(vals))


def _mean_delta(cells, wd: float, sign_filter: str) -> float:
    vals = []
    for (cell_wd, _), rows in cells.items():
        if cell_wd != wd:
            continue
        vals.extend(r["delta_loss"] for r in rows
                    if r["seed"] == "mean" and r["sign_filter"] == sign_filter)
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_sign_certificates(certs):
    worst = []
    for beta in BETAS:
        ap, dt = certs[beta]
        err = float(np.max(np.abs(ap.eval(_cert_grid(ap)) -
                                  np.sign(_cert_grid(ap)))))
        worst.append((beta, err, dt))
    ok = all(err <= 2.0 ** -beta and dt <= 60.0 for beta, err, dt in worst)
    detail = "; ".join(f"beta={b}: err {e:.2e} <= {2.0**-b:.2e} in {t:.2f}s"
                       for b, e, t in worst)
    _report(1, ok, detail)


def test_criterion_02_smooth_relu_bounds(certs):
    viol = {}
    for beta in BETAS:
        ap, _ = certs[beta]
        z = _cert_grid(ap)
        err = np.abs(tf.CompositeReLU(ap).apply(z) - np.maximum(z, 0.0))
        bad = int(np.sum(err > 2.0 ** -beta * np.abs(z)))
        bad += int(np.sum(err > 2.0 ** -beta * np.abs(z) / 2.0))
        viol[beta] = bad
    ok = all(v == 0 for v in viol.values())
    _report(2, ok, f"dual-bound violations per beta: {viol} (need all zero)")


def test_criterion_03_equioscillation():
    targets = [
        (np.exp, (0.0, 1.0), 3),
        (np.sin, (0.0, 1.5), 4),
        (np.cos, (-1.0, 1.0), 4),
        (lambda x: 1.0 / (2.0 + x), (-1.0, 1.0), 4),
        (lambda x: np.sqrt(x + 1.5), (-1.0, 1.0), 3),
    ]
    counts = []
    for f, interval, degree in targets:
        p, err = pa.remez_minimax(f, interval, degree)
        counts.append((degree,
                       count_alternations(p, f, interval, err, tol=1e-6)))
    alt_ok = all(c >= d + 2 for d, c in counts)

    closed_ok = True
    for eps in (0.25, 0.1):
        p, err = pa.remez_minimax(pa.SGN_POSITIVE_BRANCH, (eps, 1.0), 1)
        closed_ok &= abs(p.coeffs[1] - 2.0 / (1 + eps)) <= 1e-10
        closed_ok &= abs(err - (1 - eps) / (1 + eps)) <= 1e-10
    _report(3, alt_ok and closed_ok,
            f"alternations (degree, count) {counts}; degree-1 slope/error "
            f"match closed form within 1e-10: {closed_ok}")


def _fd_param_grads(net, x, y, kind, h=1e-5):
    """Central-difference oracle; touches no backprop code."""
    def loss_at():
        logits, _ = nn.forward(net, x)
        return nn.loss_and_logit_grad(logits, y, kind)[0]

    out = []
    for layer in net.layers:
        pg = {}
        for name, w in layer.params().items():
            flat = w.reshape(-1)
            g = np.zeros(flat.size)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                lp = loss_at()
                flat[j] = orig - h
                lm = loss_at()
                flat[j] = orig
                g[j] = (lp - lm) / (2.0 * h)
            pg[name] = g.reshape(w.shape)
        out.append(pg)
    return out


def test_criterion_04_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(20):
        if i % 2:
            arch = f"mlp:{int(rng.integers(4, 10))}"
            shape = (int(rng.integers(3, 8)),)
        elif i % 4:
            arch, shape = "cnn:2", (1, 6, 6)
        else:
            arch, shape = "cnn:2,3+6", (1, 16, 16)
        net = nn.build_arch(arch, shape, 3, seed=int(rng.integers(1000)))
        x = rng.standard_normal((2, *shape))
        kind = "cross_entropy" if i % 3 else "mse"
        y = (rng.integers(0, 3, 2) if kind == "cross_entropy"
             else rng.standard_normal((2, 3)))
        grads, _ = nn.backward(net, x, y, kind)
        want = _fd_param_grads(net, x, y, kind)
        for g, w in zip(grads, want):
            for name in g:
                den = np.maximum(np.maximum(np.abs(g[name]),
                                            np.abs(w[name])), 1e-8)
                worst = max(worst, float(np.max(
                    np.abs(g[name] - w[name]) / den)))
    dt = time.perf_counter() - t0
    _report(4, worst <= 1e-4 and dt <= 10.0,
            f"max relative error {worst:.2e} over 20 nets in {dt:.2f}s")


def test_criterion_05_gap_ratio_limit():
    # unequal curvatures keep the first-order residual nonzero, so the
    # convergence slope is measurable; the limit is still exactly 2
    rep = sd.validate_theorem1(sd.quadratic_probe(-1.0),
                               sd.quadratic_probe(1.0, scale=2.0))
    ratio = rep.ratio_at(1e-4)
    ok = abs(ratio - 2.0) <= 1e-3 and rep.slope is not None \
        and rep.slope >= 0.9
    _report(5, ok, f"gap ratio at eps=1e-4 is {ratio:.6f} (limit "
            f"{rep.limit}), convergence slope {rep.slope}")


def test_criterion_06_lower_bound():
    results = [(p.name, sd.validate_lemma_bound(p))
               for p in sd.default_lemma_probes()]
    ok = all(rep.violations == 0 for _, rep in results)
    detail = "; ".join(
        f"{name}: {rep.violations} violations over {rep.epsilons.size} eps"
        for name, rep in results)
    _report(6, ok, detail)


def test_criterion_07_negative_side_dominates(mlp_cells):
    cells, elapsed = mlp_cells
    neg = _mean_delta(cells, 1e-3, "neg_only")
    pos = _mean_delta(cells, 1e-3, "pos_only")
    neg0 = _mean_delta(cells, 0.0, "neg_only")
    pos0 = _mean_delta(cells, 0.0, "pos_only")
    ok = neg >= pos and elapsed <= 900.0
    _report(7, ok,
            f"wd=1e-3: mean dloss neg {neg:.3e} vs pos {pos:.3e} "
            f"(wd=0 context: {neg0:.3e} vs {pos0:.3e}); {elapsed:.0f}s")


def test_criterion_08_decay_ordering(wd_sweeps):
    # full-scale reference ordering for this sweep: 86.84 / 65.70 / 12.07
    # (direction only; not reachable at this scale)
    vanilla, _ = wd_sweeps
    acc = vanilla.trend[6]
    wds = sorted(acc)
    ok = all(acc[wds[i + 1]] <= acc[wds[i]] + SLACK
             for i in range(len(wds) - 1))
    detail = "approximated accuracy by wd: " + ", ".join(
        f"{w:g}: {acc[w]:.4f}" for w in wds) + " (weakly decreasing, 0.5pp slack)"
    _report(8, ok, detail)


def test_criterion_09_ngnv_benefit(wd_sweeps):
    vanilla, ngnv = wd_sweeps
    v_pann = vanilla.trend[6][1e-3]
    n_pann = ngnv.trend[6][1e-3]
    v_bb = _mean_backbone(vanilla.rows, 1e-3)
    n_bb = _mean_backbone(ngnv.rows, 1e-3)
    gain = n_pann - v_pann
    ok = gain >= 0.01 and abs(n_bb - v_bb) <= 0.01
    _report(9, ok,
            f"approximated-accuracy gain {100 * gain:+.2f}pp (need >= +1pp), "
            f"backbone diff {100 * (n_bb - v_bb):+.2f}pp (need within 1pp); "
            f"vanilla {v_bb:.4f}/{v_pann:.4f}, ngnv {n_bb:.4f}/{n_pann:.4f}")


def test_criterion_10_option_identities(digits_small):
    data = datasets.load_dataset(datasets.DatasetSpec(
        source="synthetic_blobs", n=240, classes=3, dim=2, seed=5))
    net0 = nn.build_arch("mlp:8", data.sample_shape, data.n_classes, 0)
    sgd = nn.SgdState(lr=0.05, momentum=0.9, weight_decay=1e-3)

    def run(**options):  # the final network and every epoch's network
        snaps = {}
        net = training.train(net0, data, sgd, epochs=3, batch_size=32,
                             seed=4, on_epoch=snaps.__setitem__, **options)
        return net, snaps

    plain = run()
    mixed = run(mixup=MixupConfig(fixed_lambda=1.0))
    noisy = run(ngnv=NgnvConfig(r=0.0))

    def same(a, b):
        return all(
            ga[name].tobytes() == gb[name].tobytes()
            for la, lb in zip(a.layers, b.layers)
            for ga, gb in [(la.params(), lb.params())]
            for name in ga)

    def metrics(snaps):  # per-epoch train and test (loss, accuracy)
        return [(training.evaluate(net, data.x_train, data.y_train),
                 training.evaluate(net, data.x_test, data.y_test))
                for _, net in sorted(snaps.items())]

    ok = same(plain[0], mixed[0]) and same(plain[0], noisy[0]) \
        and metrics(plain[1]) == metrics(mixed[1]) == metrics(noisy[1])
    _report(10, ok, "lambda=1 interpolation and r=0 noise runs are "
            f"bit-identical to vanilla: {ok}")


def test_criterion_11_truncation(trunc_sweep):
    # every raw value through the sign test that TruncatedReLU runs
    mismatches = 0
    for bits in L_XS:
        fmt = FixedPointFormat(bits)
        raw = np.arange(fmt.raw_min, fmt.raw_max + 1)
        mismatches += int(np.sum(_nonneg_by_shifts(raw, fmt) != (raw >= 0)))
    acc = trunc_sweep.trend
    ls = sorted(acc)
    trend_ok = all(acc[ls[i + 1]] >= acc[ls[i]] - SLACK
                   for i in range(len(ls) - 1))
    ok = mismatches == 0 and trend_ok
    _report(11, ok,
            f"{mismatches} sign mismatches over all raws at l_x in {L_XS}; "
            "accuracy by l_x " + ", ".join(f"{l}: {acc[l]:.4f}" for l in ls))


TOY_ANCHOR = np.array([-0.95, -2.8])
TOY_LABEL = 0
TOY_EPS = 0.3


def _toy_pair():
    backbone = nn.Network((
        nn.Dense(W=np.array([[1.0, 0.7], [-0.5, 1.1],
                             [0.8, -0.6], [-1.2, 0.4]]),
                 b=np.array([0.1, -0.2, 0.05, 0.3])),
        nn.Activation(nn.ExactReLU()),
        nn.Dense(W=np.array([[1.2, -0.7, 0.5, -0.8],
                             [-0.9, 1.0, -0.4, 1.1]]),
                 b=np.array([0.0, 0.1])),
    ), input_shape=(2,), n_classes=2)
    return backbone, tf.transform(backbone, tf.InjectedReLU(beta=4, seed=0))


def test_criterion_12_attack_validity():
    backbone, pann = _toy_pair()
    cfg = attack.AttackConfig(alpha=0.05, eps=TOY_EPS, eps_atk=1e-9,
                              eps_lim=10.0, search_radius=0.15,
                              search_draws=24, max_iters=120)
    wins = unverified = 0
    for seed in range(100):
        out = attack.attack_pann(TOY_ANCHOR, TOY_LABEL, backbone, pann, cfg,
                                 seed=seed)
        if out.success:
            wins += 1
            if not attack.verify_outcome(TOY_ANCHOR, TOY_LABEL, out.delta,
                                         backbone, pann, TOY_EPS):
                unverified += 1
    _, mask = discrepancy_grid(TOY_ANCHOR, TOY_LABEL, backbone, pann,
                               TOY_EPS, steps=60)
    region = int(mask.sum())
    ok = wins >= 1 and unverified == 0 and region > 0
    _report(12, ok, f"{wins}/100 successes, {unverified} failed "
            f"re-verification, grid oracle found {region} discrepancy cells")


def _injection_records(rows, wd: float) -> list:
    chash = records.config_hash({"experiment": "perturb", "arch": MLP_ARCH,
                                 "dataset": "synthetic_digits", "wd": wd,
                                 "betas": [10], "seeds": [0, 1, 2]})
    return [{"config_hash": chash, "timestamp": records.timestamp(),
             "arch": MLP_ARCH, "dataset": "synthetic_digits",
             "method": "vanilla", "wd": wd,
             "precision": f"beta={r['beta']}", "seed": r["seed"],
             "metric": f"delta_loss_{r['sign_filter']}",
             "value": r["delta_loss"]} for r in rows]


def test_criterion_13_determinism(digits_small, digits_10k, wd_sweeps,
                                  sweep_store_path, trunc_sweep,
                                  trunc_store_path, mlp_cells, tmp_path):
    # 1: the full decay/NGNV sweep, retrained from scratch
    store_b = records.RecordStore(tmp_path / "wd_sweep.csv",
                                  records.SWEEP_COLUMNS)
    sd.weight_decay_sweep(VAN_SPEC, CNN_ARCH, digits_small, store=store_b,
                          workers=2)
    sd.weight_decay_sweep(NGN_SPEC, CNN_ARCH, digits_small, store=store_b,
                          workers=2)
    same_sweep = (sweep_store_path.read_bytes()
                  == (tmp_path / "wd_sweep.csv").read_bytes())

    # 2: the truncation sweep
    store_t = records.RecordStore(tmp_path / "trunc.csv",
                                  records.SWEEP_COLUMNS)
    sd.truncation_sweep(sd.TruncSpec(**TRUNC_KW), TRUNC_ARCH, digits_small,
                        store=store_t, workers=2)
    same_trunc = (trunc_store_path.read_bytes()
                  == (tmp_path / "trunc.csv").read_bytes())

    # 3: one full train-plus-injection cell against its first run
    cells, _ = mlp_cells
    again = _run_mlp_cell(digits_10k, 1e-3, 0)
    pa_a, pa_b = tmp_path / "inj_a.csv", tmp_path / "inj_b.csv"
    records.RecordStore(pa_a, records.RECORD_COLUMNS).append_rows(
        _injection_records(cells[(1e-3, 0)], 1e-3))
    records.RecordStore(pa_b, records.RECORD_COLUMNS).append_rows(
        _injection_records(again, 1e-3))
    same_inj = pa_a.read_bytes() == pa_b.read_bytes()

    ok = same_sweep and same_trunc and same_inj
    _report(13, ok, f"byte-identical re-runs: decay sweep {same_sweep}, "
            f"truncation sweep {same_trunc}, injection records {same_inj}")
