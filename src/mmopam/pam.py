"""One-dimensional piecewise affine maps with a jump at Z = 0.

The map has two increasing affine branches,

    M(Z) = a11*Z + a12   (Z < 0, one large-amplitude oscillation)
    M(Z) = a21*Z + a22   (Z > 0, one small-amplitude oscillation)

and is undefined at Z = 0. Besides evaluation and orbit iteration, this
module classifies periodic patterns into signatures L1^s1 ... Lk^sk and
computes the mu-intervals that bound the number of consecutive LAOs/SAOs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite

from .errors import DiscontinuityHit, DomainError, NotPeriodic

# Iterates closer to the jump than this are treated as hitting it.
DISCONTINUITY_GUARD = 1e-12


@dataclass(frozen=True)
class PamCoefficients:
    """Branch coefficients (a11, a12) for Z < 0 and (a21, a22) for Z > 0: finite, with positive slopes."""

    a11: float
    a12: float
    a21: float
    a22: float

    def __post_init__(self):
        if not (isfinite(self.a11) and isfinite(self.a12) and isfinite(self.a21) and isfinite(self.a22)):
            raise DomainError(f"map coefficients must be finite, got {self.as_tuple()}")
        if not (self.a11 > 0.0 and self.a21 > 0.0):
            raise DomainError(f"branch slopes must be positive, got a11={self.a11}, a21={self.a21}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a11, self.a12, self.a21, self.a22)


@dataclass(frozen=True)
class TransformedPam:
    """(a, b, mu, l) form used by the At Most & At Least bounds.

    a = a11, b = a21, mu = a12, and l = a22 - a12 is the height of the jump.
    All four must be finite.
    """

    a: float
    b: float
    mu: float
    l: float

    def __post_init__(self):
        if not (isfinite(self.a) and isfinite(self.b) and isfinite(self.mu) and isfinite(self.l)):
            raise DomainError(f"map coefficients must be finite, got a={self.a}, b={self.b}, mu={self.mu}, l={self.l}")


def transform(pam: PamCoefficients) -> TransformedPam:
    return TransformedPam(a=pam.a11, b=pam.a21, mu=pam.a12, l=pam.a22 - pam.a12)


def untransform(tp: TransformedPam) -> PamCoefficients:
    """Inverse of :func:`transform`."""
    return PamCoefficients(a11=tp.a, a12=tp.mu, a21=tp.b, a22=tp.mu + tp.l)


@dataclass(frozen=True)
class Signature:
    """Cyclic mixed-mode pattern L1^s1 ... Lk^sk.

    Stored from its lexicographically smallest rotation so that equal cyclic
    patterns compare equal. s = 0 is only allowed for the pure-LAO fixed
    point 1^0.
    """

    segments: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.segments:
            raise DomainError("signature needs at least one (L, s) segment")
        for L, s in self.segments:
            if L < 1 or s < 0:
                raise DomainError(f"invalid signature segment ({L}, {s})")
            if s == 0 and self.segments != ((1, 0),):
                raise DomainError("s = 0 only allowed for the pure-LAO pattern 1^0")
        object.__setattr__(self, "segments", _canonical_rotation(self.segments))

    def __str__(self) -> str:
        return " ".join(f"{L}^{s}" for L, s in self.segments)

    @classmethod
    def from_string(cls, text: str) -> "Signature":
        segs = []
        for part in text.split():
            L, s = part.split("^")
            segs.append((int(L), int(s)))
        return cls(tuple(segs))

    @property
    def total_lao(self) -> int:
        return sum(L for L, _ in self.segments)

    @property
    def total_sao(self) -> int:
        return sum(s for _, s in self.segments)

    @property
    def period(self) -> int:
        return self.total_lao + self.total_sao


def _canonical_rotation(segs: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    rotations = [tuple(segs[i:] + segs[:i]) for i in range(len(segs))]
    return min(rotations)


@dataclass
class OrbitResult:
    """Recorded iterates plus transient/period metadata."""

    iterates: list[float]
    transient_length: int
    period: int | None
    converged: bool
    tol: float = field(default=1e-10, repr=False)


def pam_eval(pam: PamCoefficients, Z: float) -> float:
    if abs(Z) <= DISCONTINUITY_GUARD:
        raise DiscontinuityHit(f"map undefined at Z = 0 (got Z = {Z!r})")
    if Z < 0.0:
        return pam.a11 * Z + pam.a12
    return pam.a21 * Z + pam.a22


def iterate_orbit(
    pam: PamCoefficients,
    Z0: float,
    max_iters: int = 100_000,
    tol: float = 1e-10,
    max_period: int = 1000,
) -> OrbitResult:
    """Iterate from Z0, detecting the smallest period sustained over 3 extra periods.

    A period p is accepted once |Z_{n+p} - Z_n| <= tol holds over a trailing
    window of 3p iterations. Non-convergence is reported, not raised; hitting
    the discontinuity guard raises DiscontinuityHit.
    """
    if max_iters < 1 or tol <= 0.0:
        raise DomainError("max_iters must be positive and tol > 0")
    if not isfinite(Z0):
        raise DomainError(f"Z0 must be finite, got {Z0}")
    Z = float(Z0)
    if abs(Z) <= DISCONTINUITY_GUARD:
        raise DiscontinuityHit("initial condition on the jump")
    hist = [Z]
    for _ in range(max_iters):
        Z = pam_eval(pam, Z)
        hist.append(Z)
        n = len(hist)
        # amortize the period scan on long orbits
        if n < 256 or n % 32 == 0:
            p = _detect_tail_period(hist, tol, max_period)
            if p is not None:
                transient = _transient_length(hist, p, tol)
                return OrbitResult(hist, transient, p, True, tol)
    return OrbitResult(hist, len(hist), None, False, tol)


def _detect_tail_period(hist: list[float], tol: float, max_period: int) -> int | None:
    n = len(hist)
    for p in range(1, min(max_period, (n - 1) // 4) + 1):
        # need recurrence across the trailing 3p-wide confirmation window
        if all(abs(hist[-1 - i] - hist[-1 - p - i]) <= tol for i in range(3 * p + 1)):
            return p
    return None


def _transient_length(hist: list[float], p: int, tol: float) -> int:
    """Index after the last i with |Z_{i+p} - Z_i| > tol (a nan difference counts), or 0 if there is none."""
    for i in range(len(hist) - p - 1, -1, -1):
        if not abs(hist[i + p] - hist[i]) <= tol:
            return i + 1
    return 0


def detect_signature(orbit: OrbitResult) -> Signature:
    """Classify one period of a converged orbit into a signature.

    Negative iterates count as LAOs, positive ones as SAOs; runs are grouped
    into (L, s) pairs and rotated canonically.
    """
    if not orbit.converged or orbit.period is None:
        raise NotPeriodic("orbit did not converge to a periodic pattern")
    window = orbit.iterates[-orbit.period:]
    return signature_from_signs([z < 0.0 for z in window])


def signature_from_signs(signs: list[bool]) -> Signature:
    """Signature of one period given LAO flags (True = LAO) per oscillation."""
    p = len(signs)
    if not any(signs):
        raise DomainError("periodic pattern has no LAO; signature undefined")
    if all(signs):
        if p != 1:
            raise DomainError(f"all-LAO pattern with period {p}; only the fixed point 1^0 is representable")
        return Signature(((1, 0),))
    # rotate so the window starts at the beginning of an LAO run
    k = next(i for i in range(p) if signs[i] and not signs[i - 1])
    signs = signs[k:] + signs[:k]
    segments = []
    i = 0
    while i < p:
        L = 0
        while i < p and signs[i]:
            L += 1
            i += 1
        s = 0
        while i < p and not signs[i]:
            s += 1
            i += 1
        segments.append((L, s))
    return Signature(tuple(segments))


def stability_factor(pam: PamCoefficients, sig: Signature) -> float:
    """Contraction factor a11^L * a21^s over one signature period (< 1 means stable)."""
    return pam.a11 ** sig.total_lao * pam.a21 ** sig.total_sao


@dataclass(frozen=True)
class MuInterval:
    """A mu-window with explicit endpoint closures; lower > upper encodes emptiness."""

    lower: float
    upper: float
    lower_closed: bool
    upper_closed: bool

    @property
    def is_empty(self) -> bool:
        if self.lower < self.upper:
            return False
        if self.lower == self.upper:
            return not (self.lower_closed and self.upper_closed)
        return True

    def contains(self, mu: float) -> bool:
        if mu < self.lower or mu > self.upper:
            return False
        if mu == self.lower and not self.lower_closed:
            return False
        if mu == self.upper and not self.upper_closed:
            return False
        return True

    def __str__(self) -> str:
        lo = "[" if self.lower_closed else "("
        hi = "]" if self.upper_closed else ")"
        return f"{lo}{self.lower:.6g}, {self.upper:.6g}{hi}"


def _check_bounds_domain(tp: TransformedPam) -> None:
    if not (0.0 < tp.a < 1.0 and 0.0 < tp.b < 1.0):
        raise DomainError(f"bounds need slopes in (0, 1), got a={tp.a}, b={tp.b}")
    if tp.l >= 0.0:
        raise DomainError(f"bounds need a negative jump l, got l={tp.l}")


def lao_bounds(tp: TransformedPam, L: int) -> tuple[float, float]:
    """(mu2, mu1): at least L consecutive LAOs iff mu <= mu1; at most L iff mu > mu2."""
    _check_bounds_domain(tp)
    if L < 1:
        raise DomainError("L must be a positive integer")
    a, b, l = tp.a, tp.b, tp.l
    mu1 = -l * a ** (L - 1) / (a ** (L - 1) * b + sum(a**k for k in range(L)))
    mu2 = -l * a**L / sum(a**k for k in range(L + 1))
    return mu2, mu1


def sao_bounds(tp: TransformedPam, s: int) -> tuple[float, float]:
    """(mu3, mu4): at least s consecutive SAOs iff mu >= mu3; at most s iff mu < mu4."""
    _check_bounds_domain(tp)
    if s < 1:
        raise DomainError("s must be a positive integer")
    a, b, l = tp.a, tp.b, tp.l
    geo = sum(b**k for k in range(s))
    mu3 = -l * (geo + b ** (s - 1) * (a - 1.0)) / (b ** (s - 1) * a + geo)
    mu4 = -l * geo / sum(b**k for k in range(s + 1))
    return mu3, mu4


def atmost_atleast_bounds(tp: TransformedPam, L: int, s: int) -> tuple[MuInterval, MuInterval]:
    """mu-windows for the pure signatures L^1 and 1^s.

    The L^1 window is (mu2, mu1] and the 1^s window is [mu3, mu4), with the
    endpoints from the At Most & At Least bounds.
    """
    mu2, mu1 = lao_bounds(tp, L)
    mu3, mu4 = sao_bounds(tp, s)
    return (
        MuInterval(mu2, mu1, lower_closed=False, upper_closed=True),
        MuInterval(mu3, mu4, lower_closed=True, upper_closed=False),
    )
