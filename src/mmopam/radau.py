"""Radau IIA of order 5 for three equations in plain floats, with event location.

A step-for-step port of ``scipy.integrate._ivp.radau``, the implicit
Runge-Kutta method of Hairer & Wanner, *Solving Ordinary Differential
Equations II*, Sec. IV.8, specialised to n = 3 and to forward integration.
It keeps scipy's tableau and transformed collocation system, the
simplified-Newton iteration with its rate test, the Jacobian and LU reuse
rules, the error estimate (re-estimated after a rejected step), the
step-size controller with ``predict_factor`` and the cubic dense output.
Events follow ``solve_ivp``: a direction filter, a terminal count, and the
root located by :func:`_brentq` on the step's dense output with
xtol = rtol = 4 EPS.

The real and the complex 3x3 LU factorisations and solves are explicit
arithmetic on Python floats and complex numbers, so the step loop needs no
array library. ``fun(t, s, *args)`` returns the three derivatives at the state
tuple ``s``; ``jac(t, s, *args)`` returns the Jacobian as three rows.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from math import inf, nextafter, sqrt

from .errors import DomainError, NonFiniteState, RootFindingFailure, StepSizeUnderflow

EPS = sys.float_info.epsilon

# --- scipy's Radau IIA(5) constants ---------------------------------------------

S6 = 6 ** 0.5
C = ((4 - S6) / 10, (4 + S6) / 10, 1.0)
E = ((-13 - 7 * S6) / 3, (-13 + 7 * S6) / 3, -1 / 3)
# A = T diag(MU_REAL, MU_COMPLEX, conj(MU_COMPLEX)) T^-1
MU_REAL = 3 + 3 ** (2 / 3) - 3 ** (1 / 3)
MU_COMPLEX = 3 + 0.5 * (3 ** (1 / 3) - 3 ** (2 / 3)) - 0.5j * (3 ** (5 / 6) + 3 ** (7 / 6))
T = (
    (0.09443876248897524, -0.14125529502095421, 0.03002919410514742),
    (0.25021312296533332, 0.20412935229379994, -0.38294211275726192),
    (1.0, 1.0, 0.0),
)
TI = (
    (4.17871859155190428, 0.32768282076106237, 0.52337644549944951),
    (-4.17871859155190428, -0.32768282076106237, 0.47662355450055044),
    (0.50287263494578682, -2.57192694985560522, 0.59603920482822492),
)
TI_REAL = TI[0]
TI_COMPLEX = tuple(complex(re, im) for re, im in zip(TI[1], TI[2]))
# dense output: y(t_old + x h) = y_old + sum_k Q[:, k] x^(k+1) with Q = Z^T P
P = (
    (13 / 3 + 7 * S6 / 3, -23 / 3 - 22 * S6 / 3, 10 / 3 + 5 * S6),
    (13 / 3 - 7 * S6 / 3, -23 / 3 + 22 * S6 / 3, 10 / 3 - 5 * S6),
    (1 / 3, -8 / 3, 10 / 3),
)

NEWTON_MAXITER = 6  # maximum number of Newton iterations
MIN_FACTOR = 0.2  # minimum allowed decrease in a step size
MAX_FACTOR = 10  # maximum allowed increase in a step size
_BRENT_MAXITER = 100


@dataclass
class SolverStats:
    """Counters of one solve, or summed over several with ``+=``.

    ``rejected`` counts steps refused by the error test and
    ``newton_failures`` collocation solves that did not converge.
    """

    steps: int = 0
    rejected: int = 0
    nfev: int = 0
    njev: int = 0
    nlu: int = 0
    newton_failures: int = 0

    def __iadd__(self, other: SolverStats) -> SolverStats:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self


@dataclass
class RadauSolution:
    """Step ends ``t`` and states ``y`` (from t0; the last is the terminal root when an event
    stopped the solve), one dense-output cubic per step, the event roots and states, and counters.

    A cubic is ``(t_old, h, y_old (3), Q (3 x 3, row-major by component))``; :func:`dense_eval`
    evaluates it.
    """

    t: list[float]
    y: list[tuple[float, float, float]]
    cubics: list[tuple[float, ...]]
    t_events: list[float] = field(default_factory=list)
    y_events: list[tuple[float, float, float]] = field(default_factory=list)
    stats: SolverStats = field(default_factory=SolverStats)


def dense_eval(cubic, t: float) -> tuple[float, float, float]:
    """A step's dense output at t, as scipy's ``RadauDenseOutput``."""
    t_old, h, y0, y1, y2, q00, q01, q02, q10, q11, q12, q20, q21, q22 = cubic
    x = (t - t_old) / h
    x2 = x * x
    x3 = x2 * x
    return (
        q00 * x + q01 * x2 + q02 * x3 + y0,
        q10 * x + q11 * x2 + q12 * x3 + y1,
        q20 * x + q21 * x2 + q22 * x3 + y2,
    )


# --- 3x3 linear algebra ------------------------------------------------------------


def _lu3(m):
    """LU factors of the 3x3 matrix with rows m[0:3], m[3:6], m[6:9], or None when singular.

    Partial pivoting picks rows as LAPACK's ``getrf`` does (largest |Re| + |Im|,
    first on ties) and scales by the pivot's reciprocal; entries may be float or
    complex. Returns (p0, p1, p2, u00, u01, u02, l10, u11, u12, l20, l21, u22):
    factor row i is original row p_i.
    """
    rows = [[0, m[0], m[1], m[2]], [1, m[3], m[4], m[5]], [2, m[6], m[7], m[8]]]
    for k in (1, 2):
        piv = max(range(k - 1, 3), key=lambda i: abs(rows[i][k].real) + abs(rows[i][k].imag))
        rows[k - 1], rows[piv] = rows[piv], rows[k - 1]
        top = rows[k - 1]
        if top[k] == 0:
            return None
        inv = 1 / top[k]
        for row in rows[k:]:
            row[k] = lk = row[k] * inv
            for j in range(k + 1, 4):
                row[j] -= lk * top[j]
    if rows[2][3] == 0:
        return None
    (p0, u00, u01, u02), (p1, l10, u11, u12), (p2, l20, l21, u22) = rows
    return p0, p1, p2, u00, u01, u02, l10, u11, u12, l20, l21, u22


def _solve3(lu, b0, b1, b2):
    """Solve with :func:`_lu3` factors, in the order of LAPACK's reference ``getrs``."""
    p0, p1, p2, u00, u01, u02, l10, u11, u12, l20, l21, u22 = lu
    b = (b0, b1, b2)
    c0 = b[p0]
    c1 = b[p1] - c0 * l10
    c2 = b[p2] - c0 * l20 - c1 * l21
    x2 = c2 / u22
    x1 = (c1 - x2 * u12) / u11
    return (c0 - x2 * u02 - x1 * u01) / u00, x1, x2


# --- scipy's step-size helpers -------------------------------------------------------


def _norm3(a, b, c):
    """RMS norm of three values."""
    return sqrt(a * a + b * b + c * c) / 3 ** 0.5


def _initial_step(fun, args, t0, y, t_bound, f, rtol, atol):
    """scipy's ``select_initial_step`` for an error estimator of order 3 (costs one evaluation of fun)."""
    interval_length = abs(t_bound - t0)
    s = [atol + abs(v) * rtol for v in y]
    d0 = _norm3(*(v / sc for v, sc in zip(y, s)))
    d1 = _norm3(*(v / sc for v, sc in zip(f, s)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, tuple(v + h0 * fv for v, fv in zip(y, f)), *args)
    d2 = _norm3(*((a - b) / sc for a, b, sc in zip(f1, f, s))) / h0 if h0 else inf  # h0 = 0 when d1 overflows
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 4)
    return min(100 * h0, h1, interval_length)


def _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old):
    """Step-size factor from the error norm (two-step predictive controller when history exists)."""
    if error_norm == 0:
        return inf
    if error_norm_old is None or not h_abs_old:  # after a zero step scipy's multiplier also clips to 1
        multiplier = 1
    else:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25
    return min(1, multiplier) * error_norm ** -0.25


# --- the collocation system ---------------------------------------------------------


def _solve_collocation(fun, args, t, y0, y1, y2, h, Z0, s0, s1, s2, tol, lu_real, lu_complex):
    """scipy's ``solve_collocation_system`` for n = 3: (converged, n_iter, Z, rate).

    Z holds the stage increments row by row, Z[3 i + j] for stage i, component j.
    """
    m_real = MU_REAL / h
    m_complex = MU_COMPLEX / h
    (t00, t01, t02), (t10, t11, t12), _ = T
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = TI
    r0, r1, r2 = TI_REAL
    k0, k1, k2 = TI_COMPLEX
    z00, z01, z02, z10, z11, z12, z20, z21, z22 = Z0
    # W = TI Z0
    w00 = a00 * z00 + a01 * z10 + a02 * z20
    w01 = a00 * z01 + a01 * z11 + a02 * z21
    w02 = a00 * z02 + a01 * z12 + a02 * z22
    w10 = a10 * z00 + a11 * z10 + a12 * z20
    w11 = a10 * z01 + a11 * z11 + a12 * z21
    w12 = a10 * z02 + a11 * z12 + a12 * z22
    w20 = a20 * z00 + a21 * z10 + a22 * z20
    w21 = a20 * z01 + a21 * z11 + a22 * z21
    w22 = a20 * z02 + a21 * z12 + a22 * z22
    tc0, tc1, tc2 = t + h * C[0], t + h * C[1], t + h
    dw_norm_old = None
    rate = None
    converged = False
    for k in range(NEWTON_MAXITER):
        f00, f01, f02 = fun(tc0, (y0 + z00, y1 + z01, y2 + z02), *args)
        f10, f11, f12 = fun(tc1, (y0 + z10, y1 + z11, y2 + z12), *args)
        f20, f21, f22 = fun(tc2, (y0 + z20, y1 + z21, y2 + z22), *args)
        # 0 * v is 0 for every finite v and nan otherwise
        if 0.0 * f00 + 0.0 * f01 + 0.0 * f02 + 0.0 * f10 + 0.0 * f11 + 0.0 * f12 + 0.0 * f20 + 0.0 * f21 + 0.0 * f22 != 0.0:
            break
        # with F finite, a non-finite iterate W is what makes scipy's lu_solve raise here
        if 0.0 * w00 + 0.0 * w01 + 0.0 * w02 + 0.0 * w10 + 0.0 * w11 + 0.0 * w12 + 0.0 * w20 + 0.0 * w21 + 0.0 * w22 != 0.0:
            raise NonFiniteState(f"collocation iterate left the finite range at t = {t:.6g}")
        d0, d1, d2 = _solve3(
            lu_real,
            f00 * r0 + f10 * r1 + f20 * r2 - m_real * w00,
            f01 * r0 + f11 * r1 + f21 * r2 - m_real * w01,
            f02 * r0 + f12 * r1 + f22 * r2 - m_real * w02,
        )
        c0, c1, c2 = _solve3(
            lu_complex,
            f00 * k0 + f10 * k1 + f20 * k2 - m_complex * complex(w10, w20),
            f01 * k0 + f11 * k1 + f21 * k2 - m_complex * complex(w11, w21),
            f02 * k0 + f12 * k1 + f22 * k2 - m_complex * complex(w12, w22),
        )
        e0, e1, e2 = c0.real, c1.real, c2.real
        i0, i1, i2 = c0.imag, c1.imag, c2.imag
        q0, q1, q2 = d0 / s0, d1 / s1, d2 / s2
        q3, q4, q5 = e0 / s0, e1 / s1, e2 / s2
        q6, q7, q8 = i0 / s0, i1 / s1, i2 / s2
        dw_norm = sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3 + q4 * q4 + q5 * q5 + q6 * q6 + q7 * q7 + q8 * q8) / 3.0
        if dw_norm_old is not None:
            rate = dw_norm / dw_norm_old
        if rate is not None and (rate >= 1 or rate ** (NEWTON_MAXITER - k) / (1 - rate) * dw_norm > tol):
            break
        w00 += d0
        w01 += d1
        w02 += d2
        w10 += e0
        w11 += e1
        w12 += e2
        w20 += i0
        w21 += i1
        w22 += i2
        # Z = T W; the last row of T is (1, 1, 0)
        z00 = t00 * w00 + t01 * w10 + t02 * w20
        z01 = t00 * w01 + t01 * w11 + t02 * w21
        z02 = t00 * w02 + t01 * w12 + t02 * w22
        z10 = t10 * w00 + t11 * w10 + t12 * w20
        z11 = t10 * w01 + t11 * w11 + t12 * w21
        z12 = t10 * w02 + t11 * w12 + t12 * w22
        z20 = w00 + w10
        z21 = w01 + w11
        z22 = w02 + w12
        if dw_norm == 0 or rate is not None and rate / (1 - rate) * dw_norm < tol:
            converged = True
            break
        dw_norm_old = dw_norm
    return converged, k + 1, (z00, z01, z02, z10, z11, z12, z20, z21, z22), rate


def _iteration_matrices(h, J):
    """LU factors of MU_REAL/h I - J and MU_COMPLEX/h I - J."""
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = J
    return tuple(
        _lu3((mu - j00, -j01, -j02, -j10, mu - j11, -j12, -j20, -j21, mu - j22))
        for mu in (MU_REAL / h, MU_COMPLEX / h)
    )


# --- the solver ----------------------------------------------------------------------


def solve(fun, jac, t0, y0, t_bound, rtol, atol, args=(), event=None, direction=0, terminal=None) -> RadauSolution:
    """Integrate from ``t0`` to ``t_bound`` as ``solve_ivp(method="Radau", jac=jac, dense_output=True)``.

    ``event(t, s)`` is located where it changes sign in ``direction`` (+1 up,
    -1 down, 0 either); after ``terminal`` such roots the solve stops at the
    last one. A step size below ten spacings of t raises StepSizeUnderflow,
    and a non-finite accepted state raises NonFiniteState.
    """
    if not t_bound > t0:
        raise DomainError(f"t_bound must exceed t0, got [{t0}, {t_bound}]")
    if not (rtol > 0.0 and atol > 0.0):
        raise DomainError("rtol and atol must be positive")
    rtol = max(rtol, 100 * EPS)  # as scipy's validate_tol
    st = SolverStats()
    t = float(t0)
    u0, u1, u2 = (float(v) for v in y0)
    f0, f1, f2 = fun(t, (u0, u1, u2), *args)
    h_next = _initial_step(fun, args, t, (u0, u1, u2), t_bound, (f0, f1, f2), rtol, atol)
    J = jac(t, (u0, u1, u2), *args)
    st.nfev, st.njev = 2, 1
    newton_tol = max(10 * EPS / rtol, min(0.03, rtol**0.5))
    h_prev = err_prev = None  # scipy's h_abs_old, error_norm_old
    lu_real = lu_complex = None
    current_jac = True
    cubic = None  # dense output of the last step
    e0_, e1_, e2_ = E
    (p00, p01, p02), (p10, p11, p12), (p20, p21, p22) = P
    sol = RadauSolution([t], [(u0, u1, u2)], [], stats=st)
    if event is not None:
        g = event(t, (u0, u1, u2))
        count = 0

    while True:
        min_step = 10 * (nextafter(t, inf) - t)
        if h_next < min_step:
            h_abs, h_abs_old, error_norm_old = min_step, None, None
        else:
            h_abs, h_abs_old, error_norm_old = h_next, h_prev, err_prev
        rejected = False
        while True:
            if not h_abs >= min_step:  # also catches a nan step
                raise StepSizeUnderflow(
                    f"integrator failed at t = {t:.6g}: required step size is less than spacing between numbers"
                )
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            if cubic is None:
                Z0 = (0.0,) * 9
            else:
                Z0 = tuple(
                    v - u
                    for tc in (t + h * C[0], t + h * C[1], t + h)
                    for v, u in zip(dense_eval(cubic, tc), (u0, u1, u2))
                )
            s0, s1, s2 = atol + abs(u0) * rtol, atol + abs(u1) * rtol, atol + abs(u2) * rtol
            converged = False
            while not converged:
                if lu_real is None or lu_complex is None:
                    lu_real, lu_complex = _iteration_matrices(h, J)
                    st.nlu += 2
                if lu_real is not None and lu_complex is not None:  # else singular: a failed iteration
                    converged, n_iter, Z, rate = _solve_collocation(
                        fun, args, t, u0, u1, u2, h, Z0, s0, s1, s2, newton_tol, lu_real, lu_complex
                    )
                    st.nfev += 3 * n_iter
                if not converged:
                    st.newton_failures += 1
                    if current_jac:
                        break
                    J = jac(t, (u0, u1, u2), *args)
                    st.njev += 1
                    current_jac = True
                    lu_real = lu_complex = None
            if not converged:
                h_abs *= 0.5
                lu_real = lu_complex = None
                continue

            z00, z01, z02, z10, z11, z12, z20, z21, z22 = Z
            n0, n1, n2 = u0 + z20, u1 + z21, u2 + z22
            ze0 = (z00 * e0_ + z10 * e1_ + z20 * e2_) / h
            ze1 = (z01 * e0_ + z11 * e1_ + z21 * e2_) / h
            ze2 = (z02 * e0_ + z12 * e1_ + z22 * e2_) / h
            r0, r1, r2 = _solve3(lu_real, f0 + ze0, f1 + ze1, f2 + ze2)
            s0 = atol + max(abs(u0), abs(n0)) * rtol
            s1 = atol + max(abs(u1), abs(n1)) * rtol
            s2 = atol + max(abs(u2), abs(n2)) * rtol
            error_norm = _norm3(r0 / s0, r1 / s1, r2 / s2)
            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER + n_iter)
            if rejected and error_norm > 1:
                g0, g1, g2 = fun(t, (u0 + r0, u1 + r1, u2 + r2), *args)
                st.nfev += 1
                r0, r1, r2 = _solve3(lu_real, g0 + ze0, g1 + ze1, g2 + ze2)
                error_norm = _norm3(r0 / s0, r1 / s1, r2 / s2)
            if error_norm > 1:
                factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
                h_abs *= max(MIN_FACTOR, safety * factor)
                lu_real = lu_complex = None
                rejected = True
                st.rejected += 1
            else:
                break

        recompute_jac = n_iter > 2 and rate > 1e-3
        factor = min(MAX_FACTOR, safety * _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old))
        if not recompute_jac and factor < 1.2:
            factor = 1
        else:
            lu_real = lu_complex = None
        if 0.0 * n0 + 0.0 * n1 + 0.0 * n2 != 0.0:
            raise NonFiniteState(f"trajectory left the finite range at t = {t_new:.6g}")
        f0, f1, f2 = fun(t_new, (n0, n1, n2), *args)
        st.nfev += 1
        if recompute_jac:
            J = jac(t_new, (n0, n1, n2), *args)
            st.njev += 1
        current_jac = recompute_jac
        h_prev, err_prev, h_next = h_next, error_norm, h_abs * factor
        cubic = (
            t, h, u0, u1, u2,
            z00 * p00 + z10 * p10 + z20 * p20, z00 * p01 + z10 * p11 + z20 * p21, z00 * p02 + z10 * p12 + z20 * p22,
            z01 * p00 + z11 * p10 + z21 * p20, z01 * p01 + z11 * p11 + z21 * p21, z01 * p02 + z11 * p12 + z21 * p22,
            z02 * p00 + z12 * p10 + z22 * p20, z02 * p01 + z12 * p11 + z22 * p21, z02 * p02 + z12 * p12 + z22 * p22,
        )  # fmt: skip
        sol.cubics.append(cubic)
        st.steps += 1
        t_old, t, u0, u1, u2 = t, t_new, n0, n1, n2

        if event is not None:
            g_new = event(t, (u0, u1, u2))
            if direction >= 0 and g <= 0 <= g_new or direction <= 0 and g >= 0 >= g_new:
                count += 1
                root = _brentq(lambda tt: event(tt, dense_eval(cubic, tt)), t_old, t, 4 * EPS, 4 * EPS)
                state = dense_eval(cubic, root)
                sol.t_events.append(root)
                sol.y_events.append(state)
                if terminal and count >= terminal:
                    sol.t.append(root)
                    sol.y.append(state)
                    return sol
            g = g_new
        sol.t.append(t)
        sol.y.append((u0, u1, u2))
        if t >= t_bound:
            return sol


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """Root of f in [xa, xb] by Brent's method, step for step as ``scipy.optimize.brentq``.

    A port of scipy's C ``brentq`` (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4): the same bracket swap, tolerance, interpolation
    or extrapolation step, acceptance test and iteration cap, so it returns the
    same float. The ends are converted with ``float()`` so that a NumPy scalar
    bracket does not turn the root, and every later evaluation at it, into NumPy
    scalar arithmetic.
    """
    xpre, xcur = float(xa), float(xb)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise RootFindingFailure(f"no sign change of the root function on [{xpre}, {xcur}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise RootFindingFailure(f"root search did not converge in {_BRENT_MAXITER} iterations")
