"""Minimax and sign-approximation tests.

Closed-form oracles are frozen first: the odd degree-1 fit of the constant 1
on [eps, 1] has slope 2/(1+eps) and error (1-eps)/(1+eps), derived by
equioscillating the two endpoint deviations by hand.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pannkit import polyapprox as pa
from pannkit import transform as tf

from oracles import count_alternations, traced_peak


class TestPolynomial:
    def test_horner_matches_power_sum(self):
        p = pa.Polynomial((1.0, -2.0, 0.5, 3.0))
        xs = np.linspace(-2, 2, 7)
        want = 1.0 - 2.0 * xs + 0.5 * xs ** 2 + 3.0 * xs ** 3
        np.testing.assert_allclose(p(xs), want, rtol=1e-14)

    def test_scalar_in_scalar_out(self):
        p = pa.Polynomial((0.0, 2.0))
        assert isinstance(p(3.0), float)
        assert p(3.0) == 6.0

    def test_derivative(self):
        p = pa.Polynomial((5.0, 1.0, 4.0))  # 5 + x + 4x^2
        assert pa.Polynomial(p.derivative.coeffs).coeffs == (1.0, 8.0)

    def test_leading_zeros_trimmed(self):
        p = pa.Polynomial((1.0, 2.0, 0.0, 0.0))
        assert p.degree == 1

    @pytest.mark.parametrize("coeffs", [(math.inf,), (1.0, -math.inf),
                                        (0.5, math.nan, 1.0), (1e400,)])
    def test_non_finite_coefficients_rejected(self, coeffs):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            pa.Polynomial(coeffs)

    def test_oddness_flag(self):
        assert pa.Polynomial((0.0, 1.0, 0.0, -2.0)).is_odd()
        assert not pa.Polynomial((0.1, 1.0)).is_odd()

    def test_horner_start_matches_zeros_times_z(self):
        """Horner starts from z * 0.0 and adds the leading coefficient in
        place; the bytes are those of np.zeros_like(z) * z + c."""
        def old_call(p, z):
            z = np.asarray(z, dtype=np.float64)
            acc = np.zeros_like(z) * z + p.coeffs[-1]
            for c in p._horner_adds:
                acc *= z
                if c is not None:
                    acc += c
            return acc if acc.ndim else float(acc)

        rng = np.random.default_rng(11)
        z = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
             1e-310, -2.2e-308],
            rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)])
        tail = (0.0, -0.0, 1.5, -1.5, 5e-324, -5e-324, 1e308, -1e308)
        polys = [(c,) for c in tail] + [(0.0, 2.0, 0.0, c) for c in tail]
        with np.errstate(all="ignore"):  # overflow and inf * 0 on purpose
            for coeffs in polys:
                p = pa.Polynomial(coeffs)
                for zz in [z, z.reshape(5, 10), *(np.asarray(v) for v in z)]:
                    got, want = np.float64(p(zz)), np.float64(old_call(p, zz))
                    assert got.tobytes() == want.tobytes(), (coeffs, zz)

    def test_horner_matches_loop_bitwise(self):
        def loop(coeffs, z):
            z = np.asarray(z, dtype=np.float64)
            acc = np.zeros_like(z)
            for c in reversed(coeffs):
                acc = acc * z + c
            return acc if acc.ndim else float(acc)

        def same(a, b):
            a, b = np.asarray(a), np.asarray(b)
            return (np.array_equal(a, b, equal_nan=True)
                    and np.array_equal(np.signbit(a), np.signbit(b)))

        rng = np.random.default_rng(5)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300,
                            -1e-300, 1e300, -1.0, 0.5])
        polys = [(-0.0, 0.0, -1.0), (-0.0, -0.0, 0.0, 2.0), (0.0, -0.0, 1.0),
                 (3.0,), (0.0,), (-0.0,), (1e308, 0.0, 1.0),
                 (0.0, -1e308, 0.0, 1.0)]
        for trial in range(60):
            deg = int(rng.integers(1, 16))
            c = rng.standard_normal(deg + 1)
            if trial % 2:
                c[0::2] = 0.0  # odd
            else:
                c[1::2] = 0.0  # even
            c[rng.random(deg + 1) < 0.2] = rng.choice([0.0, -0.0])
            polys.append(tuple(c))
        z = np.concatenate([special, rng.standard_normal(30) * 3])
        with np.errstate(all="ignore"):  # overflow and inf * 0 on purpose
            for coeffs in polys:
                p = pa.Polynomial(coeffs)
                assert same(p(z), loop(p.coeffs, z)), coeffs
                assert same(p(z.reshape(4, 10)),
                            loop(p.coeffs, z.reshape(4, 10)))
                for v in special:
                    got, want = p(v), loop(p.coeffs, v)
                    assert isinstance(got, float), (coeffs, v)
                    assert same(got, want), (coeffs, v)
                    assert same(p(np.float64(v)), want)

    def test_derivative_cached(self):
        p = pa.Polynomial((0.0, 3.0, 0.0, -1.0))
        assert p.derivative is p.derivative
        assert p.derivative.coeffs == (3.0, 0.0, -3.0)
        assert pa.Polynomial((2.0,)).derivative.coeffs == (0.0,)


class TestRemez:
    def test_degree1_odd_closed_form(self):
        """Frozen oracle: c = 2/(1+eps), max error (1-eps)/(1+eps)."""
        eps = 0.25
        p, err = pa.remez_minimax(pa.SGN_POSITIVE_BRANCH, (eps, 1.0), 1)
        assert abs(p.coeffs[1] - 2.0 / (1 + eps)) < 1e-10
        assert abs(err - (1 - eps) / (1 + eps)) < 1e-10

    @given(st.floats(min_value=0.05, max_value=0.9))
    @settings(max_examples=20, deadline=None)
    def test_degree1_closed_form_any_eps(self, eps):
        p, err = pa.remez_minimax(pa.SGN_POSITIVE_BRANCH, (eps, 1.0), 1)
        assert abs(p.coeffs[1] - 2.0 / (1 + eps)) < 1e-8
        assert abs(err - (1 - eps) / (1 + eps)) < 1e-8

    def test_degree0_best_constant(self):
        """Best constant for x on [0,1] is 1/2 with error 1/2."""
        p, err = pa.remez_minimax(lambda x: x, (0.0, 1.0), 0)
        assert abs(p.coeffs[0] - 0.5) < 1e-12
        assert abs(err - 0.5) < 1e-12

    def test_exact_fit_returns_tiny_error(self):
        p, err = pa.remez_minimax(lambda x: x * x, (-1.0, 1.0), 2)
        assert err < 1e-12
        np.testing.assert_allclose(p(np.array([0.3, -0.7])),
                                   [0.09, 0.49], atol=1e-12)

    def test_error_never_below_best_and_equioscillates(self):
        """exp on [0,1], d=3: error curve shows d+2 alternations at level."""
        p, err = pa.remez_minimax(np.exp, (0.0, 1.0), 3, tol=1e-9)
        alts = count_alternations(p, np.exp, (0.0, 1.0), err, tol=1e-6)
        assert alts >= 5
        grid = np.linspace(0, 1, 5001)
        assert np.max(np.abs(p(grid) - np.exp(grid))) <= err * (1 + 1e-9)

    def test_interval_errors(self):
        with pytest.raises(ValueError):
            pa.remez_minimax(np.exp, (1.0, 0.0), 3)
        with pytest.raises(ValueError):
            pa.remez_minimax(pa.SGN_POSITIVE_BRANCH, (-0.5, 1.0), 3)

    def test_nonconvergence_carries_last_iterate(self):
        with pytest.raises(pa.RemezNonConvergence) as exc:
            pa.remez_minimax(lambda x: np.abs(x), (-1.0, 1.0), 10,
                             tol=1e-15, max_iter=2)
        assert exc.value.last_polynomial is not None
        assert exc.value.last_max_error is not None

    def test_refinement_matches_loop(self, monkeypatch):
        def refine_one(f, p, x0, x1, x2):
            xs = np.array([x0, x1, x2])
            ys = np.abs(p(xs) - f(xs))
            d0, d1, d2 = ys
            denom = (d0 - 2 * d1 + d2)
            if denom >= 0 or not np.isfinite(denom):
                return x1
            dx = 0.5 * (d0 - d2) / denom
            x_new = x1 + dx * (x2 - x1) if dx > 0 else x1 + dx * (x1 - x0)
            lo, hi = min(x0, x2), max(x0, x2)
            return float(np.clip(x_new, lo, hi))

        def loop(f, p, grid, idx):
            out = []
            for j in idx:
                lo = grid[j - 1] if j > 0 else grid[j]
                hi = grid[j + 1] if j + 1 < len(grid) else grid[j]
                out.append(refine_one(f, p, lo, grid[j], hi))
            return np.array(sorted(set(out)))

        fast = pa._refine_extrema
        seen = []

        def checked(f, p, grid, idx):
            got = fast(f, p, grid, idx)
            seen.append(len(idx))
            assert np.array_equal(np.unique(got), loop(f, p, grid, idx))
            return got

        cases = [(pa.SGN_POSITIVE_BRANCH, (2.0 ** -8, 1.0), 15),
                 (pa.SGN_POSITIVE_BRANCH, (0.5, 1.5), 7),
                 (np.exp, (-1.0, 1.0), 5), (np.exp, (0.0, 2.0), 6)]
        fits = [pa.remez_minimax(t, iv, d) for t, iv, d in cases]
        monkeypatch.setattr(pa, "_refine_extrema", checked)
        assert [pa.remez_minimax(t, iv, d) for t, iv, d in cases] == fits
        monkeypatch.setattr(pa, "_refine_extrema", loop)
        assert [pa.remez_minimax(t, iv, d) for t, iv, d in cases] == fits
        assert len(seen) >= len(cases)

    def test_alternating_extrema_matches_loop(self):
        def loop(err):
            sign = np.sign(err)
            for i in range(1, len(sign)):
                if sign[i] == 0:
                    sign[i] = sign[i - 1]
            if sign[0] == 0:
                sign[0] = 1.0
            idx, start = [], 0
            for i in range(1, len(sign) + 1):
                if i == len(sign) or sign[i] != sign[start]:
                    run = np.arange(start, i)
                    idx.append(run[np.argmax(np.abs(err[run]))])
                    start = i
            return np.array(idx)

        rng = np.random.default_rng(0)
        for trial in range(300):
            n = int(rng.integers(1, 120))
            err = np.round(rng.standard_normal(n), trial % 3)  # ties
            err[rng.random(n) < 0.2] = 0.0
            if trial % 5 == 0:
                err[:int(rng.integers(1, n + 1))] = 0.0  # leading zeros
            got = pa._alternating_extrema(None, err)
            assert np.array_equal(got, loop(err)), err


@pytest.fixture(scope="module")
def ap8():
    return pa.build_appsgn(8)


class TestCompositeSgn:
    def test_certificate_attached_and_passing(self, ap8):
        c = ap8.certificate
        assert c.passed
        assert c.max_error <= 2.0 ** -8
        # beta alone names the chain: the file restates neither eps0, nor a
        # stage degree, nor the audit's size
        doc = pa.approx_to_json(ap8)
        assert doc["version"] == 2
        assert sorted(doc) == ["beta", "bound", "certificate", "chain",
                               "format", "version"]
        assert "grid_points" not in doc["certificate"]
        assert (ap8.eps0, ap8.max_stage_degree) == (2.0 ** -8, 15)

    def test_uncertified_construction_rejected(self, ap8):
        from dataclasses import replace
        bad_cert = replace(ap8.certificate, passed=False)
        with pytest.raises(ValueError, match="uncertified"):
            pa.CompositeSgnApprox(chain=ap8.chain, bound=1.0, beta=8,
                                  certificate=bad_cert)

    def test_oddness_exact(self, ap8):
        """appsgn(-z) == -appsgn(z) bit for bit: zero even coefficients make
        every Horner step sign-symmetric."""
        rng = np.random.default_rng(4)
        z = rng.uniform(0.0, 1.0, 4096)
        left = ap8.eval(-z)
        right = -np.asarray(ap8.eval(z))
        assert np.array_equal(left, right)

    @given(st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_oddness_exact_hypothesis(self, z):
        ap = _cached_ap6()
        assert ap.eval(-z) == -ap.eval(z)

    def test_branch_error_within_bound(self, ap8):
        grid = np.linspace(ap8.eps0, ap8.bound, 50_000)
        err = np.abs(ap8.eval(grid) - 1.0)
        assert err.max() <= 2.0 ** -8

    def test_derivative_matches_fd(self, ap8):
        z = np.linspace(0.05, 0.95, 11)
        _, dz = ap8.eval_with_derivative(z)
        h = 1e-7
        fd = (np.asarray(ap8.eval(z + h)) - np.asarray(ap8.eval(z - h))) / (2 * h)
        np.testing.assert_allclose(dz, fd, rtol=1e-5, atol=1e-5)

    def test_infeasible_precision_raises(self, monkeypatch):
        # the memo is keyed on beta alone and may already hold beta 12 from
        # a build before the patch, or keep one made under it
        pa._unit_chain.cache_clear()
        # one degree-15 stage reaches about 2^-3.7, far short of 2^-12
        monkeypatch.setitem(pa.STAGE_DEGREES, 12, (15,))
        try:
            with pytest.raises(pa.PrecisionInfeasible):
                pa.build_appsgn(12)
        finally:
            pa._unit_chain.cache_clear()

    def test_json_round_trip_bit_exact(self, ap8, tmp_path):
        path = tmp_path / "ap.json"
        path.write_text(json.dumps(pa.approx_to_json(ap8)))
        back = pa.approx_from_json(json.loads(path.read_text()))
        for p, q in zip(ap8.chain, back.chain):
            assert p.coeffs == q.coeffs
        z = np.linspace(-1, 1, 101)
        assert np.array_equal(np.asarray(ap8.eval(z)),
                              np.asarray(back.eval(z)))
        doc = json.loads(path.read_text())
        assert all(isinstance(c, str) for st_ in doc["chain"] for c in st_)

    def test_certificate_matches_loop(self):
        def loop(chain, t0, beta):
            def chain_eval(u):
                v = u
                for p in chain:
                    v = p(v)
                return v

            grid = np.linspace(t0, 1.0, 100_000)
            signed = chain_eval(grid) - 1.0
            err = np.abs(signed)
            max_err = float(err.max())
            arg = int(err.argmax())
            for j in pa._alternating_extrema(grid, signed):
                lo = grid[max(j - 1, 0)]
                hi = grid[min(j + 1, len(grid) - 1)]
                local = (lo + hi) / 2 + (hi - lo) / 2 * pa._cheb_extrema(64)
                lerr = np.abs(chain_eval(local) - 1.0)
                if lerr.max() > max_err:
                    max_err = float(lerr.max())
            lerr = np.abs(chain_eval(np.geomspace(t0, 1.0, 10_000)) - 1.0)
            if lerr.max() > max_err:
                max_err = float(lerr.max())
            band = np.linspace(0.0, t0, 2048)
            band_max_error = float(np.max(np.abs(chain_eval(band) - 1.0)))
            passed = bool(max_err <= 2.0 ** -beta and band_max_error <= 2.0)
            return pa.PrecisionCertificate(
                beta=beta, max_error=max_err, argmax_u=float(grid[arg]),
                band_max_error=band_max_error, passed=passed)

        for beta in range(6, 13):
            chain = pa.build_appsgn(beta).chain
            assert pa._certify_chain(chain, beta) == \
                loop(chain, 2.0 ** -beta, beta)
        # a NaN that only a refinement window sees fails the certificate:
        # |err| peaks at grid[k], and the chain is NaN between grid[k] and
        # grid[k + 1]
        grid = np.linspace(2.0 ** -6, 1.0, pa.AUDIT_POINTS)
        k, h = 50_000, grid[1] - grid[0]

        def spiky(v):
            out = 1.0 + 1e-4 * np.exp(-((v - grid[k]) / h) ** 2)
            return np.where((v > grid[k] + h / 4) & (v < grid[k] + 3 * h / 4),
                            np.nan, out)

        assert not np.isnan(spiky(grid)).any()
        got = pa._certify_chain((spiky,), 6)
        assert not got.passed and np.isnan(got.max_error)

    def test_nan_past_the_first_block_of_windows_fails(self):
        # a ripple with one extremum every 10 grid points has about 10,000
        # extrema; the chain is NaN only inside the refinement window of
        # one past the first AUDIT_BLOCK of them
        t0 = 2.0 ** -6
        grid = np.linspace(t0, 1.0, pa.AUDIT_POINTS)
        h = grid[1] - grid[0]

        def ripple(v):
            return 1.0 + 1e-4 * np.sin(np.pi * (v - t0) / (10 * h))

        ext = pa._alternating_extrema(grid, ripple(grid) - 1.0)
        assert len(ext) > 2 * pa.AUDIT_BLOCK
        k = ext[pa.AUDIT_BLOCK + 500]

        def holed(v):
            return np.where((v > grid[k] + h / 4) & (v < grid[k] + 3 * h / 4),
                            np.nan, ripple(v))

        sweep = np.geomspace(t0, 1.0, pa.AUDIT_POINTS // 10)
        assert not np.isnan(holed(grid)).any()
        assert not np.isnan(holed(sweep)).any()
        assert pa._certify_chain.__wrapped__((ripple,), 6).passed
        got = pa._certify_chain.__wrapped__((holed,), 6)
        assert not got.passed and np.isnan(got.max_error)

    def test_audit_peak_at_beta_12(self):
        # beta=12 has 8,163 extrema; their windows built at once were
        # 4.2 MB a copy, and the audit peaked at 15.2 MB
        ap = pa.build_appsgn(12)
        peak = traced_peak(lambda: pa._certify_chain.__wrapped__(
            ap.chain, ap.beta))
        assert peak < 9e6, peak

    def test_tampered_file_fails_recertification(self, ap8, tmp_path):
        doc = pa.approx_to_json(ap8)
        doc["chain"][0][1] = repr(float(doc["chain"][0][1]) * 1.5)
        with pytest.raises(ValueError, match="re-certification"):
            pa.approx_from_json(doc)


_AP6 = None


def _cached_ap6():
    global _AP6
    if _AP6 is None:
        _AP6 = pa.build_appsgn(6)
    return _AP6


class TestUnitChainMemo:
    def test_one_chain_build_per_key(self, monkeypatch):
        calls = []
        remez = pa.remez_minimax

        def counting(*args, **kwargs):
            calls.append(args[1])
            return remez(*args, **kwargs)

        monkeypatch.setattr(pa, "remez_minimax", counting)
        pa._unit_chain.cache_clear()  # so that beta 6 is built here
        unit = pa.build_appsgn(6, bound=1.0)
        built = len(calls)
        assert calls[0] == (2.0 ** -6, 1.0)
        # one fit per stage, each on the previous stage's [1 - e, 1 + e]
        assert built == len(pa.STAGE_DEGREES[6]) == 3
        assert all(lo + hi == 2.0 for lo, hi in calls[1:])
        scaled = pa.build_appsgn(6, bound=3.7)
        assert len(calls) == built
        assert scaled.chain is unit.chain
        assert (scaled.bound, scaled.eps0) == (3.7, 2.0 ** -6 * 3.7)
        # the certificate is scale-free: re-measured at B = 3.7 it agrees
        assert scaled.certificate == pa._certify_chain.__wrapped__(
            scaled.chain, 6)
        # a float that equals a cached key is still no beta
        with pytest.raises(ValueError, match="beta"):
            pa.build_appsgn(6.0)
        # a beta the stage table does not name fails before any fit
        del calls[:]
        for beta in (15, 64):
            with pytest.raises(pa.PrecisionInfeasible, match=f"^beta {beta}: "):
                pa.build_appsgn(beta)
        assert calls == []


# sha256 of the JSON list of each stage's .17g coefficient strings, first
# 16 hex digits, for build_appsgn(beta); a change of the chain designer
# shows up as a deliberate diff here
CHAIN_PINS = {
    1: "ee6a95fb7d33c8af", 2: "054ab1fa14899816", 3: "677fa895c2a41cfc",
    4: "8fcae3fda14b014f", 5: "21eec3dc194f2f6c", 6: "f6cc3da399c53c35",
    7: "de70d5a7e0ed17ff", 8: "aac60d35b6ec1070", 9: "831938329c00e56b",
    10: "1975232add04b09e", 11: "9efa63f76001388e", 12: "979084f0de62a98e",
    13: "a4641812077d5813", 14: "3de8a8ac71ad18f6"}


@pytest.mark.parametrize("beta", sorted(CHAIN_PINS))
def test_chain_pinned(beta):
    chain = [[f"{c:.17g}" for c in p.coeffs]
             for p in pa.build_appsgn(beta).chain]
    digest = hashlib.sha256(json.dumps(chain).encode()).hexdigest()[:16]
    assert digest == CHAIN_PINS[beta]


class TestAppReLU:
    """The smooth ReLU (z + z * appsgn(z)) / 2 of CompositeReLU.apply."""

    def test_zero_maps_to_zero_exactly(self):
        ap = _cached_ap6()
        assert tf.CompositeReLU(ap).apply(np.zeros(1))[0] == 0.0

    def test_relative_error_bounds_outside_band(self):
        """Certified grid: |err| <= 2^-beta |z| and the halved form too."""
        ap = _cached_ap6()
        z = np.linspace(ap.eps0, ap.bound, 20_000)
        z = np.concatenate([z, -z])
        err = np.abs(tf.CompositeReLU(ap).apply(z) - np.maximum(z, 0.0))
        assert np.all(err <= 2.0 ** -6 * np.abs(z))
        assert np.all(err <= 2.0 ** -6 * np.abs(z) / 2.0)

    def test_coarse_bound_inside_band(self):
        ap = _cached_ap6()
        z = np.linspace(-ap.eps0, ap.eps0, 4001)
        err = np.abs(tf.CompositeReLU(ap).apply(z) - np.maximum(z, 0.0))
        assert np.all(err <= np.abs(z) + 1e-300)


def _injected(z, beta, sign_filter="all", mode="uniform_random", seed=0):
    """InjectedReLU on z laid out as one row, so that every entry of z is
    its own activation unit with its own error draw."""
    row = np.asarray(z, dtype=np.float64)[None, :]
    return tf.InjectedReLU(beta, sign_filter, mode, seed).apply(row)[0]


class TestErrorInjection:
    def test_error_magnitude_bounded(self):
        z = np.random.default_rng(1).normal(size=1000)
        for mode in tf.INJECTION_MODES:
            out = _injected(z, 6, "all", mode, seed=3)
            err = np.abs(out - np.maximum(z, 0.0))
            # worst-case mode sits exactly on the bound; allow roundoff
            assert np.all(err <= 2.0 ** -6 * np.abs(z) / 2.0 * (1 + 1e-12)
                          + 1e-15)

    def test_worst_case_is_pinned_magnitude(self):
        z = np.full(512, 2.0)
        out = _injected(z, 4, "all", "worst_case_fixed", 7)
        err = np.abs(out - 2.0)
        np.testing.assert_allclose(err, 2.0 ** -4 * 2.0 / 2.0, rtol=1e-12)

    def test_filters_touch_only_their_sign(self):
        z = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        base = np.maximum(z, 0.0)
        neg = _injected(z, 4, "neg_only", "worst_case_fixed", 1)
        pos = _injected(z, 4, "pos_only", "worst_case_fixed", 1)
        assert np.array_equal(neg[z >= 0], base[z >= 0])
        assert np.array_equal(pos[z <= 0], base[z <= 0])
        assert np.all(neg[z < 0] != base[z < 0])
        assert np.all(pos[z > 0] != base[z > 0])

    def test_seed_determinism(self):
        z = np.random.default_rng(2).normal(size=100)
        a = _injected(z, 8, "all", "uniform_random", 5)
        b = _injected(z, 8, "all", "uniform_random", 5)
        c = _injected(z, 8, "all", "uniform_random", 6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            _injected(np.zeros(3), 8, "sideways")
        with pytest.raises(ValueError):
            _injected(np.zeros(3), 8, "all", "exactly_wrong")
