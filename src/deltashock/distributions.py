"""Probability laws for shock inter-arrival gaps and recovery thresholds.

Two families are used by the shock model: the arrival law F of the gaps
between successive shocks (needs a density, moments and Laplace-type
integrals) and the threshold law G of the recovery time delta a gap is
compared against (needs only cdf/survival/sampling).  Both are immutable
value objects; sampling draws from a caller-owned numpy Generator.

Every built-in law is piecewise c * t**n * exp(-r t): the survival function
of a threshold, the density of an arrival law.  The weighted gap integrals
the model needs therefore have closed forms for every built-in pair, all
computed by one routine (weighted_laplace); only a law without pieces, a
foreign ArrivalLaw subclass, goes through adaptive quadrature.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy import integrate

__all__ = [
    "ProbabilityLaw",
    "ThresholdLaw",
    "ArrivalLaw",
    "Exponential",
    "Uniform",
    "Constant",
    "QuadratureError",
    "weighted_laplace",
    "weighted_time_integral",
]

# Tail mass below which the semi-infinite quadrature range is truncated.
TAIL_EPS = 1e-12
_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-11, limit=300)

# A law in pieces: ((lo, hi, ((c, n, r), ...)), ...) stands for the sum of
# c * t**n * exp(-r t) over lo <= t < hi, and for 0 outside every piece.
Pieces = tuple[tuple[float, float, tuple[tuple[float, int, float], ...]], ...]


class QuadratureError(RuntimeError):
    """A weighted-transform integral did not converge to tolerance."""


class ProbabilityLaw(ABC):
    """Nonnegative law with a cdf, survival function and sampler."""

    @abstractmethod
    def cdf(self, t):
        """P(X <= t); 0 below the support."""

    def survival(self, t):
        """P(X > t) = 1 - cdf(t)."""
        return 1.0 - self.cdf(t)

    @abstractmethod
    def sample(self, rng: np.random.Generator, size=None):
        """Draw from the law using the given generator stream."""

    def breakpoints(self) -> tuple[float, ...]:
        """Points where the cdf or density is not smooth."""
        return ()

    def survival_pieces(self) -> Pieces | None:
        """The survival function as contiguous pieces from t = 0, or None.

        A law that returns None is integrated by quadrature.
        """
        return None


# A threshold law needs nothing beyond the base surface; the constant
# threshold below is the degenerate member of this family.
ThresholdLaw = ProbabilityLaw


class ArrivalLaw(ProbabilityLaw):
    """Gap law: adds a density, raw moments and a quadrature cutoff.

    Subclass this to plug other nonnegative laws into the model.  A law
    without density_pieces (as an arrival law) or survival_pieces (as a
    threshold) is integrated by adaptive quadrature, which costs hundreds
    of times a closed form.
    """

    def density_pieces(self) -> Pieces | None:
        """The density as pieces (see Pieces), or None."""
        return None

    @abstractmethod
    def density(self, t):
        """Density f(t); 0 outside the support. Rejects t < 0."""

    @abstractmethod
    def raw_moment(self, order: int) -> float:
        """E(X^order) for order 1 or 2, in closed form."""

    @abstractmethod
    def upper_cutoff(self, eps: float = TAIL_EPS) -> float:
        """t beyond which the survival mass is below eps."""

    @staticmethod
    def _check_nonnegative(t) -> None:
        if np.any(np.asarray(t) < 0):
            raise ValueError("density is only defined for t >= 0")

    @staticmethod
    def _check_order(order: int) -> None:
        if order not in (1, 2):
            raise ValueError(f"unsupported moment order {order}; expected 1 or 2")


@dataclass(frozen=True)
class Exponential(ArrivalLaw):
    """Exponential law with the given rate (units 1/time)."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")

    def density(self, t):
        self._check_nonnegative(t)
        return self.rate * np.exp(-self.rate * np.asarray(t, dtype=float))

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0, -np.expm1(-self.rate * np.maximum(t, 0.0)), 0.0)[()]

    def sample(self, rng, size=None):
        return rng.exponential(scale=1.0 / self.rate, size=size)

    def raw_moment(self, order):
        self._check_order(order)
        return 1.0 / self.rate if order == 1 else 2.0 / self.rate**2

    def upper_cutoff(self, eps=TAIL_EPS):
        return -math.log(eps) / self.rate

    def density_pieces(self):
        return ((0.0, math.inf, ((self.rate, 0, self.rate),)),)

    def survival_pieces(self):
        return ((0.0, math.inf, ((1.0, 0, self.rate),)),)


@dataclass(frozen=True)
class Uniform(ArrivalLaw):
    """Uniform law on (lower, upper), lower >= 0 (units time)."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower >= 0:
            raise ValueError(f"lower must be >= 0, got {self.lower}")
        if not self.upper > self.lower:
            raise ValueError(f"upper must exceed lower, got ({self.lower}, {self.upper})")

    def density(self, t):
        self._check_nonnegative(t)
        t = np.asarray(t, dtype=float)
        inside = (t >= self.lower) & (t <= self.upper)
        return np.where(inside, 1.0 / (self.upper - self.lower), 0.0)[()]

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        frac = (t - self.lower) / (self.upper - self.lower)
        return np.clip(frac, 0.0, 1.0)[()]

    def sample(self, rng, size=None):
        return rng.uniform(self.lower, self.upper, size=size)

    def raw_moment(self, order):
        self._check_order(order)
        a, b = self.lower, self.upper
        return (a + b) / 2.0 if order == 1 else (a * a + a * b + b * b) / 3.0

    def upper_cutoff(self, eps=TAIL_EPS):
        return self.upper

    def breakpoints(self):
        return (self.lower, self.upper)

    def density_pieces(self):
        return ((self.lower, self.upper, ((1.0 / (self.upper - self.lower), 0, 0.0),)),)

    def survival_pieces(self):
        # 1 below the support, then the ramp (upper - t) / (upper - lower)
        width = self.upper - self.lower
        ramp = ((self.upper / width, 0, 0.0), (-1.0 / width, 1, 0.0))
        return ((0.0, self.lower, ((1.0, 0, 0.0),)), (self.lower, self.upper, ramp))


@dataclass(frozen=True)
class Constant(ProbabilityLaw):
    """Degenerate threshold fixed at tau: G(t) = 0 for t < tau, 1 for t >= tau."""

    tau: float

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= self.tau, 1.0, 0.0)[()]

    def sample(self, rng, size=None):
        if size is None:
            return self.tau
        return np.full(size, self.tau)

    def breakpoints(self):
        return (self.tau,)

    def survival_pieces(self):
        return ((0.0, self.tau, ((1.0, 0, 0.0),)),)


def _phi(x: np.ndarray) -> np.ndarray:
    """(1 - exp(-x)) / x elementwise, cancellation-free (value 1 at x = 0).

    Splitting 1 - exp(-a-ib) into -expm1(-a) + exp(-a)(1 - cos b) and
    exp(-a) sin b keeps full precision for small |x|, which the moment
    differentiation needs.
    """
    a, b = x.real, x.imag
    decay = np.exp(-a)
    real_part = -np.expm1(-a) + decay * 2.0 * np.sin(b / 2.0) ** 2
    imag_part = decay * np.sin(b)
    zero = x == 0
    return np.where(zero, 1.0, (real_part + 1j * imag_part) / np.where(zero, 1.0, x))


def _power_series(i: int, z: np.ndarray):
    """The integral of v**i exp(-z v) over [0, 1] by its power series in z."""
    term, total, k = 1.0, 1.0 / (i + 1), 0
    while np.any(abs(term) > 1e-17):
        k += 1
        term = term * (-z / k)
        total = total + term / (i + k + 1)
    return total


def _phi_powers(j: int, z: np.ndarray) -> list[np.ndarray]:
    """Integrals of v**i exp(-z v) over [0, 1] for i = 0..j, cancellation-free.

    Elements with |z| < 1 sum the power series; the others take the upward
    recurrence phi_i = (i phi_{i-1} - exp(-z)) / z, which loses at most a
    few digits there.
    """
    values = [_phi(z)]
    small = abs(z) < 1.0
    decay = np.exp(-z)
    for i in range(1, j + 1):
        value = (i * values[-1] - decay) / z
        value[small] = _power_series(i, z[small])
        values.append(value)
    return values


def _term_integral(c: float, j: int, x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """c times the integral of u**j exp(-x u) over [lo, hi], elementwise in x;
    hi may be inf.

    With u = lo + v this is exp(-x lo) sum_i C(j, i) lo**(j-i) J_i, where
    J_i, the integral of v**i exp(-x v) over [0, hi - lo], is
    width**(i+1) phi_i(x width), or i!/x**(i+1) on an infinite range.
    """
    if j == 0:  # one _phi or exponential: the common case, kept free of the sum
        if hi == math.inf:
            return c * np.exp(-x * lo) / x if lo else c / x
        width = hi - lo
        value = c * width * _phi(x * width)
    else:
        if hi == math.inf:
            parts = [math.factorial(i) / x ** (i + 1) for i in range(j + 1)]
        else:
            width = hi - lo
            parts = [width ** (i + 1) * p for i, p in enumerate(_phi_powers(j, x * width))]
        value = c * sum(math.comb(j, i) * lo ** (j - i) * part for i, part in enumerate(parts))
    return value * np.exp(-x * lo) if lo else value


def _combine(terms) -> tuple[tuple[float, int, float], ...]:
    """Sum terms with equal (n, r) and drop those that cancel."""
    sums: dict[tuple[int, float], float] = {}
    for c, n, r in terms:
        sums[n, r] = sums.get((n, r), 0.0) + c
    return tuple((c, n, r) for (n, r), c in sums.items() if c != 0.0)


def _complement(survival: Pieces) -> Pieces:
    """1 - survival, the cdf in pieces."""
    pieces = [(lo, hi, _combine(((1.0, 0, 0.0), *((-c, n, r) for c, n, r in terms))))
              for lo, hi, terms in survival]
    end = survival[-1][1]
    if end < math.inf:
        pieces.append((end, math.inf, ((1.0, 0, 0.0),)))
    return tuple(p for p in pieces if p[2])


def _product_terms(arrival: ArrivalLaw, threshold: ThresholdLaw, weight: str):
    """f * w as terms (c, n, r, lo, hi), or None when either law has no pieces."""
    if weight not in ("survival", "cdf"):
        raise ValueError(f"weight must be 'survival' or 'cdf', got {weight!r}")
    density, survival = arrival.density_pieces(), threshold.survival_pieces()
    if density is None or survival is None:
        return None
    weights = survival if weight == "survival" else _complement(survival)
    product = []
    for f_lo, f_hi, f_terms in density:
        for w_lo, w_hi, w_terms in weights:
            lo, hi = max(f_lo, w_lo), min(f_hi, w_hi)
            if lo < hi:
                terms = _combine((cf * cw, nf + nw, rf + rw)
                                 for cf, nf, rf in f_terms for cw, nw, rw in w_terms)
                product.extend((c, n, r, lo, hi) for c, n, r in terms)
    return tuple(product)


# Product terms keyed by the identities of their laws, which each entry
# holds, so no key can be reused while it is cached.  An identity lookup
# costs a fraction of hashing the laws, and the inversion looks products
# up twice per transform evaluation.
_PRODUCTS: dict[tuple[int, int, str], tuple] = {}
_PRODUCTS_MAX = 64


def weighted_laplace(arrival: ArrivalLaw, threshold: ThresholdLaw, s,
                     weight: str, *, order: int = 0, upper: float = math.inf):
    """Integral of t**order exp(-s t) f(t) w(t) over [0, upper].

    f is the arrival density; w is the threshold survival function for
    weight="survival" (the lethal branch: the value at s = 0 is the
    lethality probability) or the threshold cdf for weight="cdf" (the
    non-lethal branch).  Every pair of built-in laws has a closed form,
    summed over the pieces of f * w, which are built once per (arrival,
    threshold, weight).  Quadrature serves only ArrivalLaw subclasses
    without pieces; it stops where the arrival tail mass drops below
    TAIL_EPS and raises QuadratureError when it does not converge.  Values
    are finite for Re s >= 0; small negative real parts are usable too (the
    moment differentiation relies on this), since exponential tails decay
    faster and quadrature stops at a finite cutoff.  s is a complex scalar,
    giving a complex, or an ndarray, giving an ndarray of its shape; the
    closed forms take the whole array at once, quadrature one element at a
    time.
    """
    try:
        terms = _PRODUCTS[id(arrival), id(threshold), weight][2]
    except KeyError:
        terms = _product_terms(arrival, threshold, weight)
        if len(_PRODUCTS) >= _PRODUCTS_MAX:
            _PRODUCTS.clear()
        _PRODUCTS[id(arrival), id(threshold), weight] = (arrival, threshold, terms)
    s = np.asarray(s, dtype=complex)
    x = s.reshape(-1)
    if terms is None:
        total = np.array([_weighted_laplace_quad(arrival, threshold, v, weight, order, upper)
                          for v in x.tolist()], dtype=complex)
    else:
        total = np.zeros(x.shape, dtype=complex)
        # a pole (x + r = 0 on an infinite piece) gives inf or nan, not an error
        with np.errstate(divide="ignore", invalid="ignore"):
            for c, n, r, lo, hi in terms:
                if lo < upper:
                    total += _term_integral(c, n + order, x + r, lo, min(hi, upper))
    return complex(total[0]) if s.ndim == 0 else total.reshape(s.shape)


def weighted_time_integral(arrival: ArrivalLaw, threshold: ThresholdLaw, t: float,
                           weight: str) -> float:
    """Integral of f(u) w(u) over [0, t], w as in weighted_laplace.

    The survival-weighted value is p times the cdf of a lethal gap.  Closed
    forms cover every pair of built-in laws; quadrature serves only
    ArrivalLaw subclasses without pieces.
    """
    return weighted_laplace(arrival, threshold, 0.0, weight, upper=t).real


def _weighted_laplace_quad(arrival, threshold, s, weight, order=0, upper=math.inf):
    """Quadrature for weighted_laplace, split at law breakpoints.

    Uses the laws' own density, cdf and survival methods.  The oscillatory
    factor exp(-i Im(s) t) is handled by the cos/sin weighted rule, which
    stays cheap for the high frequencies the inversion contour needs.
    """
    w = threshold.survival if weight == "survival" else threshold.cdf
    cutoff = min(upper, arrival.upper_cutoff())
    if cutoff <= 0.0:
        return 0j
    edges = [0.0] + sorted(
        p for p in set(arrival.breakpoints()) | set(threshold.breakpoints())
        if 0.0 < p < cutoff
    ) + [cutoff]
    sigma, omega = s.real, s.imag

    def envelope(t):
        return t**order * math.exp(-sigma * t) * float(arrival.density(t)) * float(w(t))

    re = im = err = 0.0
    for lo, hi in zip(edges, edges[1:]):
        if omega == 0.0:
            val, e = integrate.quad(envelope, lo, hi, **_QUAD_OPTS)
            re += val
            err += e
        else:
            val, e = integrate.quad(envelope, lo, hi, weight="cos", wvar=omega, **_QUAD_OPTS)
            re += val
            err += e
            val, e = integrate.quad(envelope, lo, hi, weight="sin", wvar=omega, **_QUAD_OPTS)
            im -= val
            err += e
    if err > 1e-7 * max(1.0, abs(complex(re, im))):
        raise QuadratureError(
            f"weighted transform did not converge at s={s}: error estimate {err:.3g}"
        )
    return complex(re, im)
