"""Minimax polynomial machinery: Remez exchange, composite odd approximations
of sign, the derived smooth ReLU, and the bounded-error ReLU model.

The sign approximant is a chain p_k(...p_1(z/B)...) of odd polynomials. Each
stage is a best L-inf fit of the constant 1 on the current positive interval;
oddness carries the negative branch for free. Stage 1 eats the hard interval
[eps0/B, 1]; every later stage contracts [1-e, 1+e] toward 1. The chain stops
once the stage error clears the 2^-beta target, and the result only ships with
a dense-grid certificate attached.

Precision convention: an approximation is "beta-close" when its absolute
error is at most 2^-beta everywhere on the certified domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _poly

from .seeding import derive_rng

SGN_POSITIVE_BRANCH = "sgn_positive_branch"


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial, coefficients ascending in degree.

    Evaluation uses Horner's scheme on the stored coefficients; that order is
    the definition of this object's arithmetic, so serialized copies evaluate
    bit-identically.
    """

    coeffs: tuple

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        while len(c) > 1 and c[-1] == 0.0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_odd(self) -> bool:
        return all(c == 0.0 for c in self.coeffs[0::2])

    @cached_property
    def _horner_adds(self) -> tuple:
        """Horner's adds below the leading coefficient, None where skipping
        is bit-exact: adding -0.0 is an identity, and adding +0.0 only turns
        -0.0 into +0.0, which the constant term (always added) erases
        unless it is -0.0 itself."""
        c0 = self.coeffs[0]
        skip_plus_zero = c0 != 0.0 or math.copysign(1.0, c0) > 0
        adds = []
        for k in range(self.degree - 1, -1, -1):
            c = self.coeffs[k]
            skip = c == 0.0 and (skip_plus_zero or math.copysign(1.0, c) < 0)
            adds.append(None if k and skip else c)
        return tuple(adds)

    def __call__(self, z):
        z = np.asarray(z, dtype=np.float64)
        # zeros * z keeps inf and NaN inputs propagating as NaN
        acc = np.zeros_like(z) * z + self.coeffs[-1]
        for c in self._horner_adds:
            acc *= z
            if c is not None:
                acc += c
        return acc if acc.ndim else float(acc)

    @cached_property
    def _derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0.0,))
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def derivative(self) -> "Polynomial":
        return self._derivative


def _affine_substitute(coeffs_u, alpha: float, gamma: float):
    """Coefficients of q(alpha*x + gamma) given q's coefficients in u."""
    res = np.array([coeffs_u[-1]])
    line = np.array([gamma, alpha])
    for c in coeffs_u[-2::-1]:
        res = _poly.polymul(res, line)
        res[0] += c
    return res


# ---------------------------------------------------------------------------
# Remez exchange


class RemezNonConvergence(RuntimeError):
    """Exchange failed to equioscillate within the iteration cap.

    Carries the last iterate so callers can inspect how close it got.
    """

    def __init__(self, message, last_polynomial=None, last_max_error=None):
        super().__init__(message)
        self.last_polynomial = last_polynomial
        self.last_max_error = last_max_error


def _cheb_extrema(n: int) -> np.ndarray:
    # n points, extrema of T_{n-1} on [-1, 1], ascending
    return np.cos(np.pi * np.arange(n - 1, -1, -1) / (n - 1))


def _eval_basis(xs: np.ndarray, degree: int, odd: bool, interval) -> np.ndarray:
    """Design matrix of the fitting basis at xs.

    Odd fits use odd Chebyshev polynomials T_1, T_3, ... in x itself (an
    affine map would destroy oddness); generic fits use T_0..T_d in the
    variable mapped onto [-1, 1] for conditioning.
    """
    if odd:
        n = (degree + 1) // 2
        cols = []
        for j in range(n):
            c = np.zeros(2 * j + 2)
            c[2 * j + 1] = 1.0
            cols.append(_cheb.chebval(xs, c))
        return np.stack(cols, axis=1)
    a, b = interval
    u = (2.0 * xs - (a + b)) / (b - a)
    cols = [_cheb.chebval(u, np.eye(degree + 1)[j]) for j in range(degree + 1)]
    return np.stack(cols, axis=1)


def _basis_to_polynomial(gamma: np.ndarray, degree: int, odd: bool,
                         interval) -> Polynomial:
    if odd:
        n = (degree + 1) // 2
        c = np.zeros(2 * n)
        c[1::2] = gamma
        mono = _cheb.cheb2poly(c)
        mono[0::2] = 0.0  # oddness is structural, not numerical
        return Polynomial(tuple(mono))
    a, b = interval
    mono_u = _cheb.cheb2poly(np.asarray(gamma))
    alpha = 2.0 / (b - a)
    gamma0 = -(a + b) / (b - a)
    return Polynomial(tuple(_affine_substitute(mono_u, alpha, gamma0)))


def _fit_grid(interval, odd: bool, size: int) -> np.ndarray:
    """Dense abscissae for locating error extrema during the exchange."""
    a, b = interval
    pieces = [np.linspace(a, b, size)]
    if a > 0:
        # sqrt and log spacing resolve extrema crowding toward the left end
        s = np.linspace(math.sqrt(a), math.sqrt(b), size)
        pieces.append(s * s)
        pieces.append(np.geomspace(a, b, size))
    grid = np.unique(np.concatenate(pieces))
    return grid


def _alternating_extrema(xs: np.ndarray, err: np.ndarray):
    """One argmax of |err| per maximal same-sign run; alternates by design."""
    sign = np.sign(err)
    # zeros inherit the previous sign so they do not split a run: carry each
    # entry forward from the last nonzero one (leading zeros stay zero)
    last = np.where(sign != 0, np.arange(len(sign)), 0)
    np.maximum.accumulate(last, out=last)
    sign = sign[last]
    if sign[0] == 0:
        sign[0] = 1.0
    new_run = np.concatenate(([True], sign[1:] != sign[:-1]))
    run = np.cumsum(new_run) - 1
    mag = np.abs(err)
    peak = np.maximum.reduceat(mag, np.flatnonzero(new_run))
    # the first index per run reaching its maximum (or a NaN, as argmax)
    hit = np.flatnonzero((mag == peak[run]) | np.isnan(mag))
    first = np.concatenate(([True], run[hit][1:] != run[hit][:-1]))
    return hit[first]


def _refine_extrema(f, p, grid, idx):
    """Parabolic sharpening of the grid extrema grid[idx] of |p - f|, each
    through its two grid neighbours; an extremum stays put where the
    parabola does not open downward or is not finite."""
    x0 = grid[np.maximum(idx - 1, 0)]
    x1 = grid[idx]
    x2 = grid[np.minimum(idx + 1, len(grid) - 1)]
    xs = np.concatenate((x0, x1, x2))
    d0, d1, d2 = np.abs(p(xs) - f(xs)).reshape(3, -1)
    denom = (d0 - 2 * d1 + d2)
    keep = (denom >= 0) | ~np.isfinite(denom)
    with np.errstate(divide="ignore", invalid="ignore"):
        dx = 0.5 * (d0 - d2) / denom
        x_new = np.where(dx > 0, x1 + dx * (x2 - x1), x1 + dx * (x1 - x0))
    x_new = np.clip(x_new, np.minimum(x0, x2), np.maximum(x0, x2))
    return np.where(keep, x1, x_new)


def remez_minimax(target, interval, degree: int, tol: float = 1e-10,
                  odd: bool = False, max_iter: int = 100,
                  grid_size: int = 4096):
    """Best uniform polynomial approximation on an interval.

    target: a callable, or the string "sgn_positive_branch" for the odd fit
    of the constant 1 on a positive interval (the sign function's positive
    branch; the negative branch follows from oddness).
    degree: maximum polynomial degree. Odd fits use the odd powers up to it.
    tol: relative equioscillation tolerance, (max - min)/max over the final
    reference deviations.

    Returns (Polynomial, max_error). Raises RemezNonConvergence after
    max_iter exchanges, carrying the last iterate.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError(f"empty interval [{a}, {b}]")
    if target == SGN_POSITIVE_BRANCH:
        odd = True
        f = lambda x: np.ones_like(np.asarray(x, dtype=float))
    elif callable(target):
        f = lambda x: np.asarray(target(np.asarray(x, dtype=float)), dtype=float)
    else:
        raise ValueError(f"target must be callable or {SGN_POSITIVE_BRANCH!r}")
    if odd and a <= 0:
        raise ValueError("odd fits need an interval strictly right of 0")

    n_basis = (degree + 1) // 2 if odd else degree + 1
    if n_basis < 1:
        raise ValueError(f"degree {degree} leaves no basis functions")
    n_ref = n_basis + 1

    if odd:
        s = _cheb_extrema(n_ref)
        sa, sb = math.sqrt(a), math.sqrt(b)
        refs = ((sa + sb) / 2 + (sb - sa) / 2 * s) ** 2
    else:
        refs = (a + b) / 2 + (b - a) / 2 * _cheb_extrema(n_ref)

    grid = _fit_grid((a, b), odd, grid_size)
    fgrid = f(grid)
    fscale = max(1.0, float(np.max(np.abs(fgrid))))

    last_poly, last_err = None, None
    for _ in range(max_iter):
        A = np.concatenate(
            [_eval_basis(refs, degree, odd, (a, b)),
             ((-1.0) ** np.arange(n_ref))[:, None]], axis=1)
        sol = np.linalg.solve(A, f(refs))
        gamma, lev = sol[:-1], sol[-1]
        poly = _basis_to_polynomial(gamma, degree, odd, (a, b))

        err = poly(grid) - fgrid
        # sharpen each extremum, then measure deviations at the refined spots
        ext_x = np.unique(_refine_extrema(
            f, poly, grid, _alternating_extrema(grid, err)))
        ext_err = poly(ext_x) - f(ext_x)

        max_err = float(np.max(np.abs(ext_err)))
        last_poly, last_err = poly, max_err

        if max_err <= 1e-13 * fscale:
            return poly, max_err  # exact fit up to roundoff
        # optimal when the largest true deviation matches the levelled one
        if (max_err - abs(lev)) <= tol * max_err:
            return poly, max_err

        if len(ext_x) >= n_ref:
            refs, _ = _select_reference(ext_x, ext_err, n_ref)
        else:
            i_star = int(np.argmax(np.abs(ext_err)))
            refs = _single_exchange(refs, poly(refs) - f(refs),
                                    float(ext_x[i_star]),
                                    float(ext_err[i_star]))

    raise RemezNonConvergence(
        f"no equioscillation within {max_iter} exchanges "
        f"(last max error {last_err:.3e})",
        last_polynomial=last_poly, last_max_error=last_err)


def _single_exchange(refs: np.ndarray, ref_errs: np.ndarray, x_star: float,
                     e_star: float) -> np.ndarray:
    """Swap the global error maximum into the reference, keeping signs
    alternating. Used when the curve resolves fewer extrema than needed."""
    refs = list(refs)
    errs = list(ref_errs)
    s = math.copysign(1.0, e_star)
    i = int(np.searchsorted(refs, x_star))
    if i == 0:
        if s == math.copysign(1.0, errs[0]):
            refs[0] = x_star
        else:
            refs = [x_star] + refs[:-1]
    elif i == len(refs):
        if s == math.copysign(1.0, errs[-1]):
            refs[-1] = x_star
        else:
            refs = refs[1:] + [x_star]
    else:
        if s == math.copysign(1.0, errs[i - 1]):
            refs[i - 1] = x_star
        else:
            refs[i] = x_star
    return np.array(refs)


def _select_reference(xs: np.ndarray, errs: np.ndarray, n_ref: int):
    """Trim an alternating extrema list to n_ref points, keeping the global
    max and trimming the weaker end first."""
    xs, errs = list(xs), list(errs)
    while len(xs) > n_ref:
        imax = int(np.argmax(np.abs(errs)))
        drop_first = abs(errs[0]) <= abs(errs[-1])
        if imax == 0:
            drop_first = False
        if imax == len(xs) - 1:
            drop_first = True
        if drop_first:
            xs.pop(0)
            errs.pop(0)
        else:
            xs.pop()
            errs.pop()
    return np.array(xs), np.array(errs)


def count_alternations(poly: Polynomial, target, interval, max_error: float,
                       tol: float, grid_size: int = 20001,
                       odd_full_domain: bool = False) -> int:
    """Number of sign-alternating error extrema with |err| within tol of
    max_error. For odd sign fits, counting over both branches reflects the
    symmetric domain the fit really serves."""
    a, b = interval
    if target == SGN_POSITIVE_BRANCH:
        f = lambda x: np.sign(x)
    else:
        f = target
    if odd_full_domain:
        g1 = _fit_grid((a, b), a > 0, grid_size // 2)
        grid = np.concatenate([-g1[::-1], g1])
    else:
        grid = _fit_grid((a, b), a > 0, grid_size)
    err = poly(grid) - np.asarray(f(grid), dtype=float)
    idx = _alternating_extrema(grid, err)
    good = [i for i in idx
            if abs(abs(err[i]) - max_error) <= tol * max(max_error, 1e-300)]
    # count the longest alternating run among qualifying extrema
    count, best, prev_sign = 0, 0, 0.0
    for i in idx:
        s = math.copysign(1.0, err[i])
        qualifies = i in set(good)
        if qualifies:
            count = count + 1 if s != prev_sign else 1
            prev_sign = s
            best = max(best, count)
        else:
            count, prev_sign = 0, 0.0
    return best


# ---------------------------------------------------------------------------
# composite sign approximation


@dataclass(frozen=True)
class PrecisionCertificate:
    """Dense-grid evidence that a sign approximant is beta-close.

    max_error is the largest |p(u) - sgn(u)| observed over grid_points
    uniformly spaced points on the positive certified branch plus local
    refinements around every grid extremum. band_max_error is the largest
    |p(u) - 1| inside the uncertified band (0, eps0/B); the coarse in-band
    ReLU error claim |err| <= |z| needs it to stay at most 2.
    """

    beta: int
    grid_points: int
    max_error: float
    argmax_u: float
    band_max_error: float
    passed: bool


@dataclass(frozen=True)
class CompositeSgnApprox:
    """Odd polynomial chain approximating sign on [-B, -eps0] u [eps0, B].

    eval(z) scales z by 1/B then applies the chain innermost first. Every
    instance carries a passing certificate; construction rejects anything
    else.
    """

    chain: tuple
    bound: float
    eps0: float
    beta: int
    max_stage_degree: int
    certificate: PrecisionCertificate

    def __post_init__(self):
        if not self.certificate.passed:
            raise ValueError("refusing an uncertified sign approximant")
        for p in self.chain:
            if not p.is_odd():
                raise ValueError("chain stages must be odd polynomials")

    def eval(self, z):
        u = np.asarray(z, dtype=np.float64) / self.bound
        for p in self.chain:
            u = p(u)
        return u if np.ndim(z) else float(u)

    def eval_with_derivative(self, z):
        """Chain value and d/dz, both elementwise."""
        u = np.asarray(z, dtype=np.float64) / self.bound
        du = np.full_like(u, 1.0 / self.bound)
        for p in self.chain:
            du = du * p.derivative()(u)
            u = p(u)
        return u, du

    @property
    def total_degree(self) -> int:
        d = 1
        for p in self.chain:
            d *= p.degree
        return d


MAX_GRID_POINTS = 1_000_000


def _certify_chain(chain, bound, eps0, beta, grid_points=100_000):
    """Measure the composite error on the positive branch, refine around
    every local extremum, and inspect band behavior."""
    # checked before any grid is allocated; bool is not a count
    if type(grid_points) is not int or \
            not 2 <= grid_points <= MAX_GRID_POINTS:
        raise ValueError(f"grid_points must be an integer in "
                         f"[2, {MAX_GRID_POINTS}], got {grid_points!r}")

    def chain_eval(u):
        v = u
        for p in chain:
            v = p(v)
        return v

    t0 = eps0 / bound
    grid = np.linspace(t0, 1.0, grid_points)
    signed = chain_eval(grid) - 1.0
    err = np.abs(signed)
    max_err = float(err.max())
    arg = int(err.argmax())

    # local refinement with cosine-clustered nodes around each grid extremum,
    # one row per extremum, plus a log-spaced sweep to resolve crowding
    # toward t0. A row whose maximum is NaN never raises max_err.
    ext = _alternating_extrema(grid, signed)
    lo = grid[np.maximum(ext - 1, 0)][:, None]
    hi = grid[np.minimum(ext + 1, len(grid) - 1)][:, None]
    local = (lo + hi) / 2 + (hi - lo) / 2 * _cheb_extrema(64)
    row_max = np.abs(chain_eval(local) - 1.0).max(axis=1)
    row_max = row_max[~np.isnan(row_max)]
    if row_max.size and row_max.max() > max_err:
        max_err = float(row_max.max())
    lerr = np.abs(chain_eval(
        np.geomspace(t0, 1.0, max(grid_points // 10, 1))) - 1.0)
    if lerr.max() > max_err:
        max_err = float(lerr.max())
    argmax_u = float(grid[arg])

    band = np.linspace(0.0, t0, 2048)
    band_max_error = float(np.max(np.abs(chain_eval(band) - 1.0)))

    passed = bool(max_err <= 2.0 ** -beta and band_max_error <= 2.0)
    return PrecisionCertificate(beta=beta, grid_points=grid_points,
                                max_error=max_err, argmax_u=argmax_u,
                                band_max_error=band_max_error, passed=passed)


class PrecisionInfeasible(RuntimeError):
    """The degree budget cannot reach the requested precision."""


def _stage_depth(degree: int) -> int:
    # multiplications needed to run the odd Horner ladder x * q(x^2)
    return max(1, math.ceil(math.log2(degree + 1)))


# default odd stage degrees; max_stage_degree below the smallest leaves none
STAGE_CANDIDATES = (7, 15)


def build_appsgn(beta: int, eps0: float | None = None, bound: float = 1.0,
                 max_stage_degree: int = 15,
                 stage_candidates=STAGE_CANDIDATES,
                 max_stages: int = 24, grid_points: int = 100_000,
                 tol: float | None = None) -> CompositeSgnApprox:
    """Construct a certified beta-close composite sign approximant.

    eps0 defaults to 2^-beta * bound, which keeps the smooth ReLU's absolute
    error at most 2^-beta * bound even inside the uncertified band.

    Stages are chosen greedily from stage_candidates: if some candidate
    already reaches the target error it takes the cheapest one, otherwise the
    candidate with the best interval contraction per unit of multiplicative
    depth. Raises PrecisionInfeasible when no candidate makes progress.
    """
    if beta < 1:
        raise ValueError("beta must be positive")
    if eps0 is None:
        eps0 = 2.0 ** -beta * bound
    if not 0 < eps0 < bound:
        raise ValueError(f"eps0 must lie in (0, bound), got {eps0}")
    target = 2.0 ** -beta * 0.995  # small slack for grid capture and roundoff
    if tol is None:
        tol = 2.0 ** -(beta + 6)
    cands = sorted(d for d in stage_candidates if d <= max_stage_degree)
    if not cands:
        raise ValueError("no stage candidates within max_stage_degree")

    lo, hi = eps0 / bound, 1.0
    chain: list[Polynomial] = []
    err = 1.0
    for _ in range(max_stages):
        fits = {}
        for d in cands:
            try:
                fits[d] = remez_minimax(SGN_POSITIVE_BRANCH, (lo, hi), d,
                                        tol=tol)
            except RemezNonConvergence as exc:
                if exc.last_polynomial is not None:
                    fits[d] = (exc.last_polynomial, exc.last_max_error)
        if not fits:
            raise PrecisionInfeasible(
                f"no stage fit converged on [{lo:.3e}, {hi:.3e}]")
        finishers = {d: fe for d, fe in fits.items() if fe[1] <= target}
        if finishers:
            d = min(finishers)
            poly, err = finishers[d]
            chain.append(poly)
            break
        t_cur = lo / hi

        def gain(item):
            d, (_, e) = item
            e = min(e, 1.0 - 1e-12)
            t_next = (1.0 - e) / (1.0 + e)
            return (math.log(t_next) - math.log(t_cur)) / _stage_depth(d)

        d, (poly, err) = max(fits.items(), key=gain)
        e = min(err, 1.0 - 1e-12)
        t_next = (1.0 - e) / (1.0 + e)
        if t_next <= t_cur * (1.0 + 1e-9):
            achieved = -math.log2(max(err, 1e-300))
            raise PrecisionInfeasible(
                f"stage degrees {cands} stall at about 2^-{achieved:.1f} "
                f"on [{lo:.3e}, {hi:.3e}]; requested 2^-{beta}")
        chain.append(poly)
        lo, hi = 1.0 - err, 1.0 + err
    else:
        achieved = -math.log2(max(err, 1e-300))
        raise PrecisionInfeasible(
            f"{max_stages} stages reached about 2^-{achieved:.1f}, "
            f"requested 2^-{beta}")

    cert = _certify_chain(chain, bound, eps0, beta, grid_points)
    if not cert.passed:
        raise PrecisionInfeasible(
            f"certification failed: grid error {cert.max_error:.3e} "
            f"vs 2^-{beta} = {2.0 ** -beta:.3e}")
    return CompositeSgnApprox(chain=tuple(chain), bound=float(bound),
                              eps0=float(eps0), beta=int(beta),
                              max_stage_degree=int(max_stage_degree),
                              certificate=cert)


# ---------------------------------------------------------------------------
# smooth ReLU from the sign approximant


def app_relu(z, approx: CompositeSgnApprox):
    """(z + z * appsgn(z)) / 2.

    Exact 0 at z = 0. For eps0 <= |z| <= B the error is at most
    2^-beta * |z| / 2 (certificate bound halved by the z/2 factor); inside
    the band only the coarse |err| <= |z| holds. Callers must keep |z| <= B;
    interval policies for overflowing inputs live with the network transform.
    """
    z = np.asarray(z, dtype=np.float64)
    s = approx.eval(z)
    out = (z + z * s) / 2.0
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# bounded-error ReLU (noise model of the approximation, no polynomials)


SIGN_FILTERS = ("all", "neg_only", "pos_only")
INJECTION_MODES = ("uniform_random", "worst_case_fixed")


def error_injection_relu(z, beta: int, sign_filter: str = "all",
                         mode: str = "uniform_random", rng_seed: int = 0):
    """ReLU plus the approximation-shaped error e * z / 2, |e| <= 2^-beta.

    uniform_random draws e uniformly from [-2^-beta, 2^-beta]; the worst-case
    mode pins |e| = 2^-beta with a per-element sign extracted from the seeded
    gaussian draw. The filter restricts injection to entries of one sign.
    Deterministic in (shape, seed): the draw is re-derived per call.
    """
    check_injection(sign_filter, mode)
    z = np.asarray(z, dtype=np.float64)
    e = _injection_errors(z.shape, beta, mode, rng_seed)
    mask = _filter_mask(z, sign_filter)
    return np.maximum(z, 0.0) + np.where(mask, e * z / 2.0, 0.0)


def check_injection(sign_filter: str, mode: str) -> None:
    if sign_filter not in SIGN_FILTERS:
        raise ValueError(f"sign_filter must be one of {SIGN_FILTERS}, got "
                         f"{sign_filter!r}")
    if mode not in INJECTION_MODES:
        raise ValueError(f"mode must be one of {INJECTION_MODES}, got "
                         f"{mode!r}")


def _injection_errors(shape, beta, mode, rng_seed):
    rng = derive_rng(rng_seed, "inject")
    bound = 2.0 ** -beta
    if mode == "uniform_random":
        return rng.uniform(-bound, bound, size=shape)
    g = rng.standard_normal(size=shape)
    return np.where(g >= 0, bound, -bound)


def _filter_mask(z, sign_filter):
    if sign_filter == "all":
        return np.ones(z.shape, dtype=bool)
    if sign_filter == "neg_only":
        return z < 0
    return z > 0


# ---------------------------------------------------------------------------
# serialization: decimal coefficients, 17 significant digits round-trip


def approx_to_json(approx: CompositeSgnApprox) -> dict:
    # coefficients go out as 17-significant-digit decimal strings, which
    # round-trip float64 exactly and stay grep-friendly
    cert = approx.certificate
    return {
        "format": "pannkit-sgn-approx",
        "version": 1,
        "beta": approx.beta,
        "bound": approx.bound,
        "eps0": approx.eps0,
        "max_stage_degree": approx.max_stage_degree,
        "chain": [[f"{c:.17g}" for c in p.coeffs] for p in approx.chain],
        "certificate": {
            "beta": cert.beta,
            "grid_points": cert.grid_points,
            "max_error": cert.max_error,
            "argmax_u": cert.argmax_u,
            "band_max_error": cert.band_max_error,
            "passed": cert.passed,
        },
    }


def approx_from_json(doc: dict, recertify: bool = True) -> CompositeSgnApprox:
    if doc.get("format") != "pannkit-sgn-approx":
        raise ValueError("not a sign-approximant file")
    chain = tuple(Polynomial(tuple(float(c) for c in stage))
                  for stage in doc["chain"])
    c = doc["certificate"]
    if recertify:
        if not 0 < doc["eps0"] < doc["bound"]:
            raise ValueError(f"eps0 must lie in (0, bound), got eps0 "
                             f"{doc['eps0']!r}, bound {doc['bound']!r}")
        cert = _certify_chain(chain, doc["bound"], doc["eps0"], doc["beta"],
                              grid_points=c["grid_points"])
        if not cert.passed:
            raise ValueError("stored approximant fails re-certification")
    else:
        cert = PrecisionCertificate(beta=c["beta"],
                                    grid_points=c["grid_points"],
                                    max_error=c["max_error"],
                                    argmax_u=c["argmax_u"],
                                    band_max_error=c["band_max_error"],
                                    passed=c["passed"])
    return CompositeSgnApprox(chain=chain, bound=float(doc["bound"]),
                              eps0=float(doc["eps0"]), beta=int(doc["beta"]),
                              max_stage_degree=int(doc["max_stage_degree"]),
                              certificate=cert)

