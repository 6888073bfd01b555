"""One-dimensional piecewise affine maps with a jump at Z = 0.

The map has two increasing affine branches,

    M(Z) = a11*Z + a12   (Z < 0, one large-amplitude oscillation)
    M(Z) = a21*Z + a22   (Z > 0, one small-amplitude oscillation)

and is undefined at Z = 0. Besides evaluation and orbit iteration, this
module classifies periodic patterns into signatures L1^s1 ... Lk^sk and
computes the mu-intervals that bound the number of consecutive LAOs/SAOs.
"""

from __future__ import annotations

from math import isfinite

from .errors import DiscontinuityHit, DomainError, FrozenValue, NotPeriodic, Value

# Iterates closer to the jump than this are treated as hitting it.
DISCONTINUITY_GUARD = 1e-12
# iterate_orbit accepts a period p <= MAX_PERIOD once iterates p apart agree within ORBIT_TOL.
ORBIT_TOL = 1e-10
MAX_PERIOD = 1000


class PamCoefficients(FrozenValue):
    """Branch coefficients (a11, a12) for Z < 0 and (a21, a22) for Z > 0: finite, with positive slopes."""

    _fields = ("a11", "a12", "a21", "a22")

    def __init__(self, a11: float, a12: float, a21: float, a22: float):
        if not (isfinite(a11) and isfinite(a12) and isfinite(a21) and isfinite(a22)):
            raise DomainError(f"map coefficients must be finite, got {(a11, a12, a21, a22)}")
        if not (a11 > 0.0 and a21 > 0.0):
            raise DomainError(f"branch slopes must be positive, got a11={a11}, a21={a21}")
        vars(self).update(a11=a11, a12=a12, a21=a21, a22=a22)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a11, self.a12, self.a21, self.a22)


class TransformedPam(FrozenValue):
    """(a, b, mu, l) form used by the At Most & At Least bounds.

    a = a11, b = a21, mu = a12, and l = a22 - a12 is the height of the jump.
    All four must be finite.
    """

    _fields = ("a", "b", "mu", "l")

    def __init__(self, a: float, b: float, mu: float, l: float):
        if not (isfinite(a) and isfinite(b) and isfinite(mu) and isfinite(l)):
            raise DomainError(f"map coefficients must be finite, got a={a}, b={b}, mu={mu}, l={l}")
        vars(self).update(a=a, b=b, mu=mu, l=l)


def transform(pam: PamCoefficients) -> TransformedPam:
    return TransformedPam(a=pam.a11, b=pam.a21, mu=pam.a12, l=pam.a22 - pam.a12)


def untransform(tp: TransformedPam) -> PamCoefficients:
    """Inverse of :func:`transform`."""
    return PamCoefficients(a11=tp.a, a12=tp.mu, a21=tp.b, a22=tp.mu + tp.l)


class Signature(FrozenValue):
    """Cyclic mixed-mode pattern L1^s1 ... Lk^sk.

    Stored from its lexicographically smallest rotation so that equal cyclic
    patterns compare equal. s = 0 is only allowed for the pure-LAO fixed
    point 1^0.
    """

    _fields = ("segments",)

    def __init__(self, segments: tuple[tuple[int, int], ...]):
        if not segments:
            raise DomainError("signature needs at least one (L, s) segment")
        for L, s in segments:
            if L < 1 or s < 0:
                raise DomainError(f"invalid signature segment ({L}, {s})")
            if s == 0 and segments != ((1, 0),):
                raise DomainError("s = 0 only allowed for the pure-LAO pattern 1^0")
        vars(self)["segments"] = _canonical_rotation(segments)

    def __str__(self) -> str:
        return " ".join(f"{L}^{s}" for L, s in self.segments)

    @classmethod
    def from_string(cls, text: str) -> "Signature":
        """Parse ``"L1^s1 L2^s2 ..."``; a part that is not two integers joined by ``^`` raises DomainError."""
        segs = []
        for part in text.split():
            try:
                L, s = part.split("^")
                segs.append((int(L), int(s)))
            except ValueError:
                raise DomainError(f"malformed signature segment {part!r}: expected L^s with integers L and s") from None
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


class OrbitResult(Value):
    """Recorded iterates plus transient/period metadata."""

    _fields = ("iterates", "transient_length", "period", "converged")

    def __init__(self, iterates: list[float], transient_length: int, period: int | None, converged: bool):
        self.iterates, self.transient_length = iterates, transient_length
        self.period, self.converged = period, converged


def pam_eval(pam: PamCoefficients, Z: float) -> float:
    if abs(Z) <= DISCONTINUITY_GUARD:
        raise DiscontinuityHit(f"map undefined at Z = 0 (got Z = {Z!r})")
    if Z < 0.0:
        return pam.a11 * Z + pam.a12
    return pam.a21 * Z + pam.a22


def iterate_orbit(pam: PamCoefficients, Z0: float, max_iters: int = 100_000) -> OrbitResult:
    """Iterate from Z0, detecting the smallest period sustained over 3 extra periods.

    A period p <= MAX_PERIOD is accepted once |Z_{n+p} - Z_n| <= ORBIT_TOL
    holds over a trailing window of 3p iterations. The period check runs
    after every iterate while the history holds fewer than 256 points, then
    on every 32nd; the first check that finds a period ends the iteration, so
    this schedule decides the length of ``iterates``. Non-convergence is
    reported, not raised; hitting the discontinuity guard raises
    DiscontinuityHit.
    """
    if max_iters < 1:
        raise DomainError(f"max_iters must be positive, got {max_iters}")
    if not isfinite(Z0):
        raise DomainError(f"Z0 must be finite, got {Z0}")
    Z = float(Z0)
    if abs(Z) <= DISCONTINUITY_GUARD:
        raise DiscontinuityHit("initial condition on the jump")
    tol, max_period = ORBIT_TOL, MAX_PERIOD
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
                return OrbitResult(hist, transient, p, True)
    return OrbitResult(hist, len(hist), None, False)


def _detect_tail_period(hist: list[float], tol: float, max_period: int) -> int | None:
    """Smallest p <= max_period with |hist[-1 - i] - hist[-1 - p - i]| <= tol for i = 0..3p, else None.

    These 3p + 1 differences need 4p + 1 points, so p <= (len(hist) - 1) // 4;
    a nan difference fails. The newest difference (i = 0) is checked for every
    candidate p in one pass, and only the survivors check i = 1..3p.
    """
    top = min(max_period, (len(hist) - 1) // 4)
    if top < 1:
        return None
    z = hist[-1]
    # hist[-1 - top + k] is hist[-1 - p] with p = top - k: the survivors come in decreasing p
    survivors = [top - k for k, w in enumerate(hist[-1 - top : -1]) if abs(z - w) <= tol]
    for p in reversed(survivors):
        if all(abs(hist[-1 - i] - hist[-1 - p - i]) <= tol for i in range(1, 3 * p + 1)):
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


class MuInterval(FrozenValue):
    """A mu-window with explicit endpoint closures; lower > upper encodes emptiness."""

    _fields = ("lower", "upper", "lower_closed", "upper_closed")

    def __init__(self, lower: float, upper: float, lower_closed: bool, upper_closed: bool):
        vars(self).update(lower=lower, upper=upper, lower_closed=lower_closed, upper_closed=upper_closed)

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
