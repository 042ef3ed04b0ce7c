"""Validator and experiment-driver tests.

The probe oracles are closed forms: the equal-curvature quadratic pair makes
the increment gap 2*eps exactly, the unequal pair makes the ratio 2 - eps
(first-order rate), and the kinked probe has right slope 1 at the origin.
"""

import gc
import weakref

import numpy as np
import pytest

from pannkit import datasets as pd
from pannkit import nn
from pannkit import records as rec
from pannkit import sturdiness as sd
from pannkit import transform as tf
from pannkit import training as tr

from oracles import posthoc_sweep_rows, traced_peak


class TestProbes:
    def test_quadratic_probe_values(self):
        p = sd.quadratic_probe(1.0)
        assert p.h(3.0) == 4.0
        assert p.d_plus(2.0) == 2.0
        assert p.a == 1.0
        assert p.midpoint_convex()

    def test_negative_anchor_evaluates_at_zero(self):
        p = sd.quadratic_probe(-1.0)
        assert p.a == 0.0

    def test_kinked_probe_one_sided_slopes(self):
        p = sd.abs_plus_quadratic_probe()
        assert p.d_minus(-0.5) == -2.0  # 2*(-0.5) - 1
        assert p.d_plus(-0.5) == 0.0    # 2*(-0.5) + 1
        assert p.d_plus(0.0) == 1.0
        assert p.midpoint_convex()

    def test_midpoint_test_rejects_concave(self):
        bad = sd.ConvexProbe("neg-square", lambda u: -np.asarray(u) ** 2,
                             lambda u: -2 * u, lambda u: -2 * u, zbar=0.0)
        assert not bad.midpoint_convex()


class TestGapLimit:
    def test_equal_curvature_pair_is_exact(self):
        rep = sd.validate_theorem1(sd.quadratic_probe(-1.0),
                                   sd.quadratic_probe(1.0))
        assert rep.limit == 2.0
        assert np.all(rep.residuals < 1e-9)
        assert rep.slope is None  # residuals below the rate floor

    def test_unequal_curvature_first_order_rate(self):
        rep = sd.validate_theorem1(sd.quadratic_probe(-1.0),
                                   sd.quadratic_probe(1.0, scale=2.0))
        # closed form: ratio = 2 - eps
        assert abs(rep.ratio_at(1e-4) - 2.0) <= 1e-3
        assert rep.slope is not None and rep.slope >= 0.9

    def test_kinked_probe_limit_one(self):
        rep = sd.validate_theorem1(sd.abs_plus_quadratic_probe(),
                                   sd.quadratic_probe(1.0, scale=2.0))
        assert rep.limit == 1.0
        assert abs(rep.ratio_at(1e-4) - 1.0) <= 1e-3
        assert rep.slope >= 0.9

    def test_ratio_at_requires_member(self):
        rep = sd.validate_theorem1(sd.quadratic_probe(-1.0),
                                   sd.quadratic_probe(1.0))
        with pytest.raises(ValueError, match="not in the evaluated"):
            rep.ratio_at(0.123)

    def test_rejects_wrong_anchor_signs(self):
        with pytest.raises(ValueError, match="negative minimizer"):
            sd.validate_theorem1(sd.quadratic_probe(1.0),
                                 sd.quadratic_probe(1.0))
        with pytest.raises(ValueError, match="positive minimizer"):
            sd.validate_theorem1(sd.quadratic_probe(-1.0),
                                 sd.quadratic_probe(-1.0))

    def test_rejects_concave_probe(self):
        bad = sd.ConvexProbe("neg-square", lambda u: -np.asarray(u) ** 2,
                             lambda u: -2 * u, lambda u: -2 * u, zbar=-1.0)
        with pytest.raises(ValueError, match="convexity"):
            sd.validate_theorem1(bad, sd.quadratic_probe(1.0))

    def test_rejects_non_stationary_anchor(self):
        shifted = sd.ConvexProbe(
            "off-center", lambda u: (np.asarray(u, float) + 1.0) ** 2,
            lambda u: 2.0 * (u + 1.0), lambda u: 2.0 * (u + 1.0), zbar=-0.5)
        with pytest.raises(ValueError, match="not stationary"):
            sd.validate_theorem1(shifted, sd.quadratic_probe(1.0))

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError, match="positive"):
            sd.validate_theorem1(sd.quadratic_probe(-1.0),
                                 sd.quadratic_probe(1.0),
                                 epsilons=[0.1, 0.0])


class TestLowerBound:
    def test_default_probes_zero_violations(self):
        for probe in sd.default_lemma_probes():
            rep = sd.validate_lemma_bound(probe)
            assert rep.passed and rep.violations == 0
            assert rep.min_margin >= 0.0
            assert len(rep.epsilons) == 50

    def test_stationary_point_example(self):
        rep = sd.validate_lemma_bound(sd.quadratic_probe(1.0),
                                      epsilons=[0.1])
        assert rep.lhs[0] == 0.0
        assert rep.rhs[0] == pytest.approx(0.01)

    def test_slope_two_example(self):
        rep = sd.validate_lemma_bound(sd.quadratic_probe(-1.0),
                                      epsilons=[0.1])
        # a = 0, h'(0) = 2: lhs 0.2, rhs 0.21
        assert rep.lhs[0] == pytest.approx(0.2)
        assert rep.rhs[0] == pytest.approx(0.21)

    def test_exp_example(self):
        rep = sd.validate_lemma_bound(sd.exp_probe(), epsilons=[0.5])
        assert rep.lhs[0] == pytest.approx(0.5)
        assert rep.rhs[0] == pytest.approx(np.exp(0.5) - 1.0)


@pytest.fixture(scope="module")
def blobs():
    return pd.load_dataset(pd.DatasetSpec(
        source="synthetic_blobs", n=400, classes=2, dim=2, seed=3))


@pytest.fixture(scope="module")
def trained(blobs):
    net = nn.build_mlp((2,), (12,), 2, seed=0)
    sgd = nn.SgdState(lr=0.05, momentum=0.9, weight_decay=1e-3)
    return tr.train(net, blobs, sgd, epochs=12, seed=1)


class TestPerturbationExperiment:
    def test_row_layout(self, trained, blobs):
        rows = sd.perturbation_loss_experiment(
            trained, blobs.x_test, blobs.y_test, betas=(8,), seeds=(0, 1))
        assert len(rows) == 2 * 3  # 2 filters x (2 seeds + mean)
        means = [r for r in rows if r["seed"] == "mean"]
        assert {m["sign_filter"] for m in means} == {"neg_only", "pos_only"}

    def test_huge_beta_vanishes(self, trained, blobs):
        rows = sd.perturbation_loss_experiment(
            trained, blobs.x_test, blobs.y_test, betas=(52,), seeds=(0,))
        assert all(abs(r["delta_loss"]) < 1e-9 for r in rows)

    def test_neg_only_is_noop_on_positive_preactivations(self, blobs):
        # bias +30 makes every pre-activation positive on this input range
        net = nn.Network(
            (nn.Dense(W=np.eye(2), b=np.array([30.0, 30.0])),
             nn.Activation(nn.ExactReLU()),
             nn.Dense(W=np.array([[1.0, -1.0], [-0.5, 2.0]]),
                      b=np.zeros(2))),
            input_shape=(2,), n_classes=2)
        rows = sd.perturbation_loss_experiment(
            net, blobs.x_test, blobs.y_test, betas=(6,),
            sign_filters=("neg_only",), seeds=(0,))
        assert all(r["delta_loss"] == 0.0 for r in rows)


class TestPlateau:
    def test_flat_tail_detected(self):
        losses = [1.0, 0.9, 0.8, 0.7, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6]
        assert sd.detect_plateau(losses) == 10

    def test_steady_decrease_never_plateaus(self):
        losses = [1.0 * 0.8 ** k for k in range(20)]
        assert sd.detect_plateau(losses) is None

    def test_immediate_plateau(self):
        assert sd.detect_plateau([0.5] * 8) == 6

    def test_short_curve(self):
        assert sd.detect_plateau([1.0, 0.9]) is None


class TestTrainCell:
    def test_initial_network_is_freed_at_the_first_step(self):
        # a step holds the network, its gradients, the velocities and the
        # stepped network: four parameter sets of mlp:256,256 (2.15 MB
        # each); keeping the initial network alive made that five
        data = pd.load_dataset(pd.DatasetSpec(
            source="synthetic_digits", n=128, seed=0, noise=0.25))
        net = nn.build_arch("mlp:256,256", data.sample_shape, 10)
        param_bytes = sum(w.nbytes for layer in net.layers
                          for w in layer.params().values())
        spec = sd.TrainSpec(epochs=1, batch_size=64)  # 102 samples: 2 steps
        peak = traced_peak(lambda: sd.train_cell(spec, "mlp:256,256", data,
                                                 1e-3, 0))
        assert peak < 5 * param_bytes, (peak, param_bytes)


class TestSweep:
    def _spec(self, **kw):
        base = dict(wds=(0.0, 1e-2), seeds=(0,), betas=(6,), t_primes=(0, 2),
                    epochs=6, lr=0.05, batch_size=64)
        base.update(kw)
        return sd.SweepSpec(**base)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="wds"):
            sd.SweepSpec(wds=(), seeds=(0,), betas=(6,))
        with pytest.raises(ValueError, match="method"):
            self._spec(method="distill")

    def test_rows_and_trend(self, blobs, tmp_path):
        store = rec.RecordStore(tmp_path / "sweep.csv",
                                columns=rec.SWEEP_COLUMNS)
        res = sd.weight_decay_sweep(self._spec(), "mlp:8", blobs, store=store)
        metrics = [r["metric"] for r in res.rows]
        # per cell: plateau_epoch + 2 t' x (backbone + pann + delta)
        assert metrics.count("plateau_epoch") == 2
        assert metrics.count("backbone_accuracy") == 4
        assert metrics.count("pann_accuracy") == 4
        assert res.n_written == len(res.rows)
        assert set(res.trend[6]) == {0.0, 1e-2}
        for acc in res.trend[6].values():
            assert 0.0 <= acc <= 1.0

    @pytest.mark.parametrize("preset", ["weight_decay_sweep",
                                        "truncation_sweep",
                                        "perturbation_sweep"])
    def test_store_resume_skips_recompute(self, blobs, tmp_path, monkeypatch,
                                          preset):
        # a cached cell's rows are its stored rows, typed as fresh ones, and
        # the reopened store reads its file once
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        spec = {"weight_decay_sweep": self._spec(wds=(0.0,), t_primes=(0,)),
                "truncation_sweep": sd.TruncSpec(l_xs=(8, 12), seeds=(0,),
                                                 epochs=3),
                "perturbation_sweep": sd.PerturbSpec(
                    wds=(0.0,), betas=(8,), seeds=(0, 1), epochs=3)}[preset]
        sweep, path = getattr(sd, preset), tmp_path / "sweep.csv"
        first = sweep(spec, "mlp:8", blobs,
                      store=rec.RecordStore(path, columns=spec.columns))
        assert first.n_written > 0
        reads, read_rows = [], rec.RecordStore.read_rows

        def counted(store):
            reads.append(store.path)
            return read_rows(store)

        monkeypatch.setattr(rec.RecordStore, "read_rows", counted)
        again = sweep(spec, "mlp:8", blobs,
                      store=rec.RecordStore(path, columns=spec.columns))
        assert again.n_written == 0
        assert again.rows == first.rows
        assert again.trend == first.trend
        assert reads == [path]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_cell_recorded_not_fatal(self, blobs, tmp_path):
        store = rec.RecordStore(tmp_path / "sweep.csv",
                                columns=rec.SWEEP_COLUMNS)
        spec = self._spec(wds=(0.0,), t_primes=(0,), lr=1e9)
        res = sd.weight_decay_sweep(spec, "mlp:8", blobs, store=store)
        assert [r["metric"] for r in res.rows] == ["failed"]
        assert res.rows[0]["value"] >= 1

    def test_backbone_rows_match_standalone_evaluation(self, blobs, tmp_path):
        spec = self._spec(wds=(0.0,), t_primes=(0,), epochs=4)
        res = sd.weight_decay_sweep(spec, "mlp:8", blobs)
        bb = [r for r in res.rows if r["metric"] == "backbone_accuracy"][0]
        plateau = [r for r in res.rows if r["metric"] == "plateau_epoch"][0]
        net0 = nn.build_arch("mlp:8", blobs.sample_shape, blobs.n_classes, 0)
        sgd = nn.SgdState(lr=0.05, momentum=0.9, weight_decay=0.0)
        redo = tr.train(net0, blobs, sgd, epochs=min(int(plateau["value"]), 4),
                        batch_size=64, seed=0)
        _, acc = tr.evaluate(redo, blobs.x_test, blobs.y_test)
        assert bb["value"] == acc

    @pytest.mark.parametrize("t_prime, plateau_evals", [(6, 0), (0, 6)])
    def test_final_epoch_cell_skips_the_plateau_pass(
            self, blobs, monkeypatch, t_prime, plateau_evals):
        # t' >= epochs picks the final network whatever the plateau, so
        # that cell passes no on_epoch and keeps only the final network
        calls, seen, alive = [], [], []
        real_evaluate, real_train = sd.evaluate, tr.train

        def counted(*args, **kwargs):
            calls.append(args[1] is blobs.x_train)
            return real_evaluate(*args, **kwargs)

        def watched(*args, on_epoch=None, **kwargs):
            refs = {}  # epoch -> weak reference to its network

            def hook(epoch, net):
                refs[epoch] = weakref.ref(net)
                on_epoch(epoch, net)

            net = real_train(*args, on_epoch=on_epoch and hook, **kwargs)
            gc.collect()
            seen.append(sorted(refs))
            alive.append(sorted(e for e, ref in refs.items()
                                if ref() is not None))
            return net

        monkeypatch.setattr(sd, "evaluate", counted)
        monkeypatch.setattr(tr, "train", watched)
        betas = (4, 6)
        spec = self._spec(wds=(0.0,), betas=betas, t_primes=(t_prime,))
        res = sd.weight_decay_sweep(spec, "mlp:8", blobs)
        assert calls.count(True) == plateau_evals
        assert calls.count(False) == 1 + len(betas)
        metrics = [r["metric"] for r in res.rows]
        assert metrics.count("plateau_epoch") == (1 if plateau_evals else 0)
        assert seen == [[] if t_prime else list(range(1, 7))]
        # when training returns, only the final network is alive
        assert alive == [[] if t_prime else [6]]

    def test_online_plateau_pass_matches_the_posthoc_one(self, blobs):
        # lr 1e-9 leaves the loss flat, so the plateau falls at epoch 6 of
        # 10: t' 0 and 2 pick epochs 6 and 8, t' 4 the final epoch, and
        # t' 9 caps there
        spec = self._spec(seeds=(0, 1), betas=(4, 6), t_primes=(0, 2, 4, 9),
                          epochs=10, lr=1e-9)
        res = sd.weight_decay_sweep(spec, "mlp:8", blobs)
        assert [(r["wd"], r["seed"], r["t_prime"], r["beta"], r["metric"],
                 r["value"]) for r in res.rows] == posthoc_sweep_rows(
                     spec, "mlp:8", blobs)
        assert {r["value"] for r in res.rows
                if r["metric"] == "plateau_epoch"} == {6.0}

    def test_plateau_pass_keeps_only_the_networks_a_t_prime_picks(
            self, monkeypatch):
        # every step's input network, the plateau's network and nothing
        # else: a pass that kept every epoch's network until training
        # ended held 2.15 MB per epoch of mlp:256,256
        data = pd.load_dataset(pd.DatasetSpec(
            source="synthetic_digits", n=128, seed=0, noise=0.25))
        made, alive, real_step = [], [], nn.sgd_step

        def step(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in made))
            net = real_step(*args, **kwargs)
            made.append(weakref.ref(net))
            return net

        monkeypatch.setattr(nn, "sgd_step", step)
        spec = self._spec(wds=(1e-3,), betas=(4,), t_primes=(0,), epochs=8,
                          lr=1e-9, calib_samples=64)
        res = sd.weight_decay_sweep(spec, "mlp:256,256", data)
        assert {r["value"] for r in res.rows
                if r["metric"] == "plateau_epoch"} == {6.0}
        assert len(alive) == 16 and max(alive) == 2, alive

    @pytest.mark.parametrize("t_primes, evaluations", [((6, 9), 3),
                                                      ((0,), 6 + 3)])
    def test_one_calibration_and_measurement_per_snapshot(
            self, blobs, monkeypatch, t_primes, evaluations):
        # t' 6 and 9 both cap to the final epoch, so the cell measures one
        # snapshot: one backbone evaluation, one calibration, one evaluation
        # per beta (t'=0 adds its 6 plateau-pass evaluations)
        evaluated, calibrated = [], []
        real_evaluate, real_calibrate = sd.evaluate, tf.calibrate_bound

        def counted_evaluate(*args, **kwargs):
            evaluated.append(1)
            return real_evaluate(*args, **kwargs)

        def counted_calibrate(*args, **kwargs):
            calibrated.append(1)
            return real_calibrate(*args, **kwargs)

        monkeypatch.setattr(sd, "evaluate", counted_evaluate)
        monkeypatch.setattr(tf, "calibrate_bound", counted_calibrate)
        spec = self._spec(wds=(0.0,), betas=(6, 8), t_primes=t_primes)
        res = sd.weight_decay_sweep(spec, "mlp:8", blobs)
        assert (len(evaluated), len(calibrated)) == (evaluations, 1)
        by_t = {t: [(r["metric"], r["beta"], r["value"]) for r in res.rows
                    if r.get("t_prime") == t] for t in t_primes}
        assert all(len(rows) == 1 + 2 * 2 for rows in by_t.values())
        assert by_t[t_primes[0]] == by_t[t_primes[-1]]
