"""Probability laws for shock inter-arrival gaps and recovery thresholds.

Two families are used by the shock model: the arrival law F of the gaps
between successive shocks and the threshold law G of the recovery time
delta a gap is compared against.  A law is its pieces and a sampler: every
law gives its survival function, and an arrival law also its density, in
pieces of c * t**n * exp(-r t); an arrival law adds its raw moments in
closed form.  Density, survival and cdf are evaluated from the pieces, and
so is f times the threshold survival (lethal_density).  The weighted gap
integrals the model needs have closed forms over the same pieces for every
pair, all computed by one routine (weighted_laplace), and the points where
a law is not smooth are the pieces' ends (breakpoints).  A law without
pieces cannot be built.  Laws are immutable value objects; sampling draws
from a caller-owned numpy Generator.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProbabilityLaw",
    "ArrivalLaw",
    "Exponential",
    "Uniform",
    "Constant",
    "weighted_laplace",
    "lethal_density",
]

# A law in pieces: ((lo, hi, ((c, n, r), ...)), ...) stands for the sum of
# c * t**n * exp(-r t) over lo <= t < hi, and for 0 outside every piece.
Pieces = tuple[tuple[float, float, tuple[tuple[float, int, float], ...]], ...]


def _terms(pieces: Pieces):
    """Pieces as terms (c, n, r, lo, hi)."""
    return tuple((c, n, r, lo, hi) for lo, hi, terms in pieces for c, n, r in terms)


def _evaluate(terms, t):
    """The sum at each t >= 0 of c * t**n * exp(-r t) over the terms with
    lo <= t < hi; rejects t < 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("a density is only defined for t >= 0")
    total = np.zeros(t.shape)
    # a term outside its piece may overflow or be inf * 0; it is masked out
    with np.errstate(over="ignore", invalid="ignore"):
        for c, n, r, lo, hi in terms:
            total += np.where((lo <= t) & (t < hi), c * t**n * np.exp(-r * t), 0.0)
    return total[()]


class ProbabilityLaw(ABC):
    """Nonnegative law: its survival pieces and a sampler."""

    def survival(self, t):
        """P(X > t), the survival pieces' sum; 1 below t = 0."""
        return _evaluate(_terms(self.survival_pieces()), np.maximum(t, 0.0))

    def cdf(self, t):
        """P(X <= t) = 1 - survival(t)."""
        return 1.0 - self.survival(t)

    @abstractmethod
    def sample(self, rng: np.random.Generator, size):
        """An array of draws of the given size (an int or a shape) from rng."""

    def breakpoints(self) -> tuple[float, ...]:
        """The finite ends above 0 of the survival pieces, in order: the only
        points where the cdf, or a density, can fail to be smooth (a density
        jump is a survival kink)."""
        ends = {end for lo, hi, _ in self.survival_pieces() for end in (lo, hi)}
        return tuple(sorted(end for end in ends if 0.0 < end < math.inf))

    @abstractmethod
    def survival_pieces(self) -> Pieces:
        """The survival function as contiguous pieces from t = 0."""


class ArrivalLaw(ProbabilityLaw):
    """Gap law: adds its density pieces and raw moments.

    Subclass this to plug other nonnegative laws into the model.  A law
    gives its density (density_pieces) and survival function
    (survival_pieces) in pieces, a sampler of one gap, and its first two
    raw moments in closed form.  Density, survival and cdf are evaluated
    from the pieces, the model's integrals are their closed forms, and its
    kinks (breakpoints) are the survival pieces' ends.  A law describes one
    gap and brings no sampler of whole runs: the simulator draws a new
    law's gaps one wave at a time.
    """

    @abstractmethod
    def density_pieces(self) -> Pieces:
        """The density as pieces (see Pieces)."""

    def density(self, t):
        """Density f(t), the density pieces' sum; rejects t < 0."""
        return _evaluate(_terms(self.density_pieces()), t)

    @abstractmethod
    def raw_moment(self, order: int) -> float:
        """E(X^order) for order 1 or 2, in closed form."""

    @staticmethod
    def _check_order(order: int) -> None:
        if order not in (1, 2):
            raise ValueError(f"unsupported moment order {order}; expected 1 or 2")


@dataclass(frozen=True)
class Exponential(ArrivalLaw):
    """Exponential law with the given rate (units 1/time)."""

    rate: float

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise ValueError(f"rate must be finite and > 0, got {self.rate}")

    def sample(self, rng, size, out=None):
        # a standard draw times 1 / rate, bit for bit what rng.exponential
        # draws; the simulator's split sampler passes `out`, an array of
        # `size`, to draw into it in place
        draws = rng.standard_exponential(size, out=out)
        draws *= 1.0 / self.rate
        return draws

    def raw_moment(self, order):
        self._check_order(order)
        return 1.0 / self.rate if order == 1 else 2.0 / self.rate**2

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
        if not self.lower < self.upper < math.inf:
            raise ValueError(f"upper must be finite and exceed lower, got ({self.lower}, {self.upper})")

    def sample(self, rng, size):
        return rng.uniform(self.lower, self.upper, size=size)

    def raw_moment(self, order):
        self._check_order(order)
        a, b = self.lower, self.upper
        return (a + b) / 2.0 if order == 1 else (a * a + a * b + b * b) / 3.0

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
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")

    def sample(self, rng, size):
        return np.full(size, self.tau)

    def survival_pieces(self):
        return ((0.0, self.tau, ((1.0, 0, 0.0),)),)


def _phi(x: np.ndarray) -> np.ndarray:
    """(1 - exp(-x)) / x elementwise, cancellation-free (value 1 at x = 0).

    Splitting 1 - exp(-a-ib) into -expm1(-a) + exp(-a)(1 - cos b) and
    exp(-a) sin b keeps full precision for small |x|, which the transform
    moments' circle around 0 needs.
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


def _term_integral(c: float, j: int, x: np.ndarray, lo: float, hi) -> np.ndarray:
    """c times the integral of u**j exp(-x u) over [lo, hi], elementwise in x;
    hi is inf, a float, or an ndarray of finite values, each at least lo.

    With u = lo + v this is exp(-x lo) sum_i C(j, i) lo**(j-i) J_i, where
    J_i, the integral of v**i exp(-x v) over [0, hi - lo], is
    width**(i+1) phi_i(x width), or i!/x**(i+1) on an infinite range.
    """
    infinite = np.ndim(hi) == 0 and hi == math.inf
    if j == 0:  # one _phi or exponential: the common case, kept free of the sum
        if infinite:
            return c * np.exp(-x * lo) / x if lo else c / x
        width = hi - lo
        value = c * width * _phi(x * width)
    else:
        if infinite:
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


def _product_terms(arrival: ArrivalLaw, threshold: ProbabilityLaw, weight: str):
    """f * w as terms (c, n, r, lo, hi)."""
    if weight not in ("survival", "cdf"):
        raise ValueError(f"weight must be 'survival' or 'cdf', got {weight!r}")
    survival = threshold.survival_pieces()
    weights = survival if weight == "survival" else _complement(survival)
    product = []
    for f_lo, f_hi, f_terms in arrival.density_pieces():
        for w_lo, w_hi, w_terms in weights:
            lo, hi = max(f_lo, w_lo), min(f_hi, w_hi)
            if lo < hi:
                terms = _combine((cf * cw, nf + nw, rf + rw)
                                 for cf, nf, rf in f_terms for cw, nw, rw in w_terms)
                product.extend((c, n, r, lo, hi) for c, n, r in terms)
    return tuple(product)


def weighted_laplace(arrival: ArrivalLaw, threshold: ProbabilityLaw, s,
                     weight: str, *, order: int = 0, upper=math.inf):
    """Integral of t**order exp(-s t) f(t) w(t) over [0, upper].

    f is the arrival density; w is the threshold survival function for
    weight="survival" (the lethal branch: the value at s = 0 is the
    lethality probability) or the threshold cdf for weight="cdf" (the
    non-lethal branch).  The value is the closed form summed over the
    pieces of f * w.  Values are finite for Re s >= 0; small negative real
    parts are usable too (the transform moments' circle relies on this), since
    exponential tails decay faster.  s is a complex scalar and upper a
    float, giving a complex, or either is an ndarray (upper of finite
    values), giving an ndarray of their broadcast shape, all computed at
    once.
    """
    terms = _product_terms(arrival, threshold, weight)
    s = np.asarray(s, dtype=complex)
    if np.ndim(upper):  # a scalar stays one, so that upper = inf keeps the infinite-range forms
        s, upper = np.broadcast_arrays(s, np.asarray(upper, dtype=float))
        upper = upper.reshape(-1)
    x = s.reshape(-1)
    total = np.zeros(x.shape, dtype=complex)
    # a pole (x + r = 0 on an infinite piece) gives inf or nan, not an error
    with np.errstate(divide="ignore", invalid="ignore"):
        for c, n, r, lo, hi in terms:
            # a piece starting at or beyond upper integrates over zero width
            top = np.minimum(np.maximum(upper, lo), hi)
            total += _term_integral(c, n + order, x + r, lo, top)
    return complex(total[0]) if s.ndim == 0 else total.reshape(s.shape)


def lethal_density(arrival: ArrivalLaw, threshold: ProbabilityLaw, t):
    """f(t) times the threshold survival at t, the density of a lethal gap's
    length (unconditioned), from the pieces that weighted_laplace integrates
    for weight="survival"; rejects t < 0."""
    return _evaluate(_product_terms(arrival, threshold, "survival"), t)
