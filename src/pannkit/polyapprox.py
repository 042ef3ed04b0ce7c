"""Minimax polynomial machinery: Remez exchange and composite odd
approximations of sign, certified and serialized.

The sign approximant is a chain p_k(...p_1(z/B)...) of odd polynomials. Each
stage is a best L-inf fit of the constant 1 on the current positive interval;
oddness carries the negative branch for free. Stage 1 eats the hard interval
[eps0/B, 1]; every later stage contracts [1-e, 1+e] toward 1. The chain stops
once the stage error clears the 2^-beta target, and the result only ships with
a dense-grid certificate attached.

The chain and its certificate live on the unit domain: they depend on B only
through eps0/B, so one build per (beta, eps0/B, max stage degree) serves every
scale, and an approximant is that chain plus its scale B. Every chain, built
or loaded, passes the same fixed-density audit, once per process.

Precision convention: an approximation is "beta-close" when its absolute
error is at most 2^-beta everywhere on the certified domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

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
        if not self.coeffs or any(isinstance(v, bool) for v in self.coeffs):
            raise ValueError(f"coefficients must be a non-empty list of "
                             f"numbers, got {self.coeffs!r}")
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
    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0.0,))
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k))


def _affine_substitute(coeffs_u, alpha: float, gamma: float):
    """Coefficients of q(alpha*x + gamma) given q's coefficients in u."""
    # imported here, on the Remez path, so that loading a chain skips it
    from numpy.polynomial import polynomial as _poly
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
    from numpy.polynomial import chebyshev as _cheb
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
    from numpy.polynomial import chebyshev as _cheb
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


def _fit_grid(interval, size: int) -> np.ndarray:
    """Dense abscissae for locating error extrema during the exchange."""
    a, b = interval
    pieces = [np.linspace(a, b, size)]
    if a > 0:
        # sqrt and log spacing resolve extrema crowding toward the left end
        s = np.linspace(math.sqrt(a), math.sqrt(b), size)
        pieces.append(s * s)
        pieces.append(np.geomspace(a, b, size))
    return np.unique(np.concatenate(pieces))


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
                  max_iter: int = 100):
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
    odd = target == SGN_POSITIVE_BRANCH
    if odd:
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

    # locates the extrema only; certification audits on its own grid
    grid = _fit_grid((a, b), 4096)
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


# ---------------------------------------------------------------------------
# composite sign approximation


@dataclass(frozen=True)
class PrecisionCertificate:
    """Dense-grid evidence that a unit-domain sign chain is beta-close.

    max_error is the largest |p(u) - sgn(u)| that _certify_chain observed on
    the positive certified branch [t0, 1]. band_max_error is the largest
    |p(u) - 1| inside the uncertified band (0, t0); the coarse in-band ReLU
    error claim |err| <= |z| needs it to stay at most 2.
    """

    beta: int
    max_error: float
    argmax_u: float
    band_max_error: float
    passed: bool


@dataclass(frozen=True)
class CompositeSgnApprox:
    """Odd polynomial chain approximating sign on [-B, -eps0] u [eps0, B].

    eval(z) scales z by 1/B then applies the chain innermost first. The
    chain and its certificate live on the unit domain [eps0/B, 1]; B is only
    the scale. Every instance carries a passing certificate; construction
    rejects anything else.
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
        """The chain at z / B."""
        # passed, not bound to a name, so each stage frees the one before
        u = _run_chain(self.chain,
                       np.asarray(z, dtype=np.float64) / self.bound)
        return u if np.ndim(z) else float(u)

    def eval_with_derivative(self, z):
        """Chain value and d/dz, both elementwise, at z / B."""
        return _run_chain(self.chain,
                          np.asarray(z, dtype=np.float64) / self.bound,
                          np.full(np.shape(z), 1.0 / self.bound))


def _run_chain(chain, u, du=None):
    """The stages of a chain applied to u, innermost first. Given du, the
    derivative of u, returns (chain(u), its derivative by the chain rule)."""
    for p in chain:
        if du is not None:
            du = du * p.derivative(u)
        u = p(u)
    return u if du is None else (u, du)


# uniformly spaced points of the audit on [t0, 1]; descriptors record it
AUDIT_POINTS = 100_000


@cache
def _certify_chain(chain, t0, beta):
    """Audit the chain on the unit domain: |chain - 1| on AUDIT_POINTS
    uniformly spaced points of [t0, 1], on 64 cosine-clustered points
    around every extremum among them and on a log-spaced sweep that
    resolves crowding toward t0, plus |chain - 1| on the band [0, t0]. A
    NaN anywhere fails the audit. One audit per (chain, t0, beta) and
    process: builds and loads of the same chain share it."""
    grid = np.linspace(t0, 1.0, AUDIT_POINTS)
    signed = _run_chain(chain, grid) - 1.0
    err = np.abs(signed)
    ext = _alternating_extrema(grid, signed)
    lo = grid[np.maximum(ext - 1, 0)][:, None]
    hi = grid[np.minimum(ext + 1, len(grid) - 1)][:, None]
    local = (lo + hi) / 2 + (hi - lo) / 2 * _cheb_extrema(64)
    sweep = np.geomspace(t0, 1.0, AUDIT_POINTS // 10)
    # np.max propagates NaN, so a NaN at any audited point fails the audit
    max_err = float(np.max([err.max(),
                            np.abs(_run_chain(chain, local) - 1.0).max(),
                            np.abs(_run_chain(chain, sweep) - 1.0).max()]))

    band = np.linspace(0.0, t0, 2048)
    band_max_error = float(np.max(np.abs(_run_chain(chain, band) - 1.0)))

    passed = bool(max_err <= 2.0 ** -beta and band_max_error <= 2.0)
    return PrecisionCertificate(beta=beta, max_error=max_err,
                                argmax_u=float(grid[int(err.argmax())]),
                                band_max_error=band_max_error, passed=passed)


class PrecisionInfeasible(RuntimeError):
    """The degree budget cannot reach the requested precision."""


def _stage_depth(degree: int) -> int:
    # multiplications needed to run the odd Horner ladder x * q(x^2)
    return max(1, math.ceil(math.log2(degree + 1)))


# odd stage degrees the builder picks from; max_stage_degree below the
# smallest leaves none
STAGE_CANDIDATES = (7, 15)
MAX_STAGES = 24


def build_appsgn(beta: int, eps0: float | None = None, bound: float = 1.0,
                 max_stage_degree: int = 15) -> CompositeSgnApprox:
    """Construct a certified beta-close composite sign approximant.

    eps0 defaults to 2^-beta * bound, which keeps the smooth ReLU's absolute
    error at most 2^-beta * bound even inside the uncertified band.

    Stages are chosen greedily from the STAGE_CANDIDATES up to
    max_stage_degree: if some candidate already reaches the target error it
    takes the cheapest one, otherwise the candidate with the best interval
    contraction per unit of multiplicative depth. Raises PrecisionInfeasible
    when no candidate makes progress or the chain fails its audit.

    The unit-domain chain and its certificate are built once per process for
    each (beta, eps0/bound, max_stage_degree) and shared by every bound.
    """
    # an integer of one type, so that equal keys give equal approximants
    beta = int(check_number("beta", beta, 1, integer=True))
    if eps0 is None:
        eps0 = 2.0 ** -beta * bound
    if not 0 < eps0 < bound:
        raise ValueError(f"eps0 must lie in (0, bound), got {eps0}")
    cands = tuple(d for d in STAGE_CANDIDATES if d <= max_stage_degree)
    if not cands:
        raise ValueError("no stage candidates within max_stage_degree")
    chain, cert = _unit_chain(beta, eps0 / bound, cands)
    return CompositeSgnApprox(chain=chain, bound=float(bound),
                              eps0=float(eps0), beta=beta,
                              max_stage_degree=int(max_stage_degree),
                              certificate=cert)


@cache
def _unit_chain(beta, t0, cands):
    """The certified chain on [t0, 1] and its certificate."""
    target = 2.0 ** -beta * 0.995  # small slack for grid capture and roundoff
    tol = 2.0 ** -(beta + 6)
    lo, hi = t0, 1.0
    chain: list[Polynomial] = []
    err = 1.0
    for _ in range(MAX_STAGES):
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
                f"beta {beta}: no stage fit converged on "
                f"[{lo:.3e}, {hi:.3e}]")
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
                f"beta {beta}: stage degrees {cands} stall at about "
                f"2^-{achieved:.1f} on [{lo:.3e}, {hi:.3e}]")
        chain.append(poly)
        lo, hi = 1.0 - err, 1.0 + err
    else:
        achieved = -math.log2(max(err, 1e-300))
        raise PrecisionInfeasible(
            f"beta {beta}: {MAX_STAGES} stages reached about "
            f"2^-{achieved:.1f}")

    chain = tuple(chain)
    cert = _certify_chain(chain, t0, beta)
    if not cert.passed:
        raise PrecisionInfeasible(
            f"beta {beta}: certification failed: audit error "
            f"{cert.max_error:.3e} vs 2^-{beta} = {2.0 ** -beta:.3e}")
    return chain, cert


# ---------------------------------------------------------------------------
# checked numeric fields


def check_number(name: str, value, lo=-math.inf, hi=math.inf,
                 integer: bool = False):
    """value, if it is a number in [lo, hi], and an integer where asked; a
    bool or a string is neither. Raises ValueError naming it otherwise."""
    kinds = (int, np.integer) if integer else (int, float, np.integer,
                                                np.floating)
    if isinstance(value, bool) or not isinstance(value, kinds) or \
            not lo <= value <= hi:
        what = "an integer" if integer else "a number"
        raise ValueError(f"{name} must be {what} in [{lo}, {hi}], got "
                         f"{value!r}")
    return value


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
            "grid_points": AUDIT_POINTS,
            "max_error": cert.max_error,
            "argmax_u": cert.argmax_u,
            "band_max_error": cert.band_max_error,
            "passed": cert.passed,
        },
    }


def approx_from_json(doc: dict, recertify: bool = True) -> CompositeSgnApprox:
    """The stored approximant with its certificate measured again by the
    fixed audit of _certify_chain at t0 = eps0 / bound. No stored
    certificate value is trusted, whatever ``recertify`` says; the stored
    audit size must be the one the audit uses."""
    if doc.get("format") != "pannkit-sgn-approx":
        raise ValueError("not a sign-approximant file")
    chain = tuple(Polynomial(tuple(stage)) for stage in doc["chain"])
    beta = int(check_number("beta", doc["beta"], 1, integer=True))
    check_number("max_stage_degree", doc["max_stage_degree"],
                 max((p.degree for p in chain), default=1), integer=True)
    if not 0 < doc["eps0"] < doc["bound"]:
        raise ValueError(f"eps0 must lie in (0, bound), got eps0 "
                         f"{doc['eps0']!r}, bound {doc['bound']!r}")
    points = doc["certificate"]["grid_points"]
    if type(points) is not int or points != AUDIT_POINTS:
        raise ValueError(f"grid_points must be the integer {AUDIT_POINTS}, "
                         f"got {points!r}")
    cert = _certify_chain(chain, doc["eps0"] / doc["bound"], beta)
    if not cert.passed:
        raise ValueError("stored approximant fails re-certification")
    return CompositeSgnApprox(chain=chain, bound=float(doc["bound"]),
                              eps0=float(doc["eps0"]), beta=beta,
                              max_stage_degree=int(doc["max_stage_degree"]),
                              certificate=cert)
