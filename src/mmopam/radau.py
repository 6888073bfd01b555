"""Radau IIA of order 5 for three equations in plain floats, with section crossings.

A step-for-step port of ``scipy.integrate._ivp.radau``, the implicit
Runge-Kutta method of Hairer & Wanner, *Solving Ordinary Differential
Equations II*, Sec. IV.8, specialised to n = 3 and to forward integration.
It keeps scipy's tableau and transformed collocation system, the
simplified-Newton iteration with its rate test, the Jacobian and LU reuse
rules, the error estimate (re-estimated after a rejected step), the
step-size controller with ``predict_factor`` and the cubic dense output.
In place of ``solve_ivp``'s events a solve has one section, the plane
x = ``section`` of the first component: a step crosses it when x falls from
strictly above it to at or below it, and the crossing is located by
:func:`_brentq` on the step's dense output with xtol = rtol = 4 EPS, as
``solve_ivp`` locates a falling event; after ``terminal`` crossings the
solve stops at the last. A solve may also end at the first step end whose
first rhs component exceeds a bound in magnitude, or that lies within a given
distance of a given x with x moving toward it: the full system hands its fast
jumps and its fold passages to another solver there. A solve returns its
samples; a step's dense output serves only the next step and the crossing.

The real and the complex 3x3 LU factorisations and solves are explicit
arithmetic on Python floats and complex numbers, so the solver needs no
array library. :func:`_lu3` is the pivoted LU unrolled; every substitution
with its factors is written out inline.
``fun(t, s, *args)`` returns the three derivatives at the state tuple ``s``;
``jac(t, s, *args)`` returns the Jacobian as three rows.

The solver is one source template, compiled on first use: the step loop
with the stage prediction, the Newton iteration, the error estimate, the
step-size controller and the step-end rhs, in one function whose counters
stay locals until it returns. The rhs at the three Newton stages and at the
step end is a slot. The generic instance calls ``fun`` there.
``fun.solver``, when ``fun`` carries one, is an instance with ``fun``'s body
written into the slots, the same operations in the same order:
:mod:`mmopam.family` compiles one per rho shape for ``Field.rhs``.
:func:`solve` checks its inputs and runs one of the two.

The Newton iteration tests the stage derivatives F and the iterate W for
finiteness (a non-finite F fails the iteration, a non-finite W raises) only
when the norm of its increment is not finite. That gives the same result as
testing them at every iteration: a non-finite F or W makes the right-hand
side of a linear solve non-finite, and the solve, the scaling and the sum of
squares keep a value non-finite (the scales are positive and the pivots
nonzero, so nothing in between divides by zero, raises or changes state).
"""

from __future__ import annotations

import sys
from functools import cache
from math import inf, nextafter, sqrt

from .errors import DomainError, NonFiniteState, RootFindingFailure, StepSizeUnderflow, Value

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
# dense output: y(t_old + x h) = y_old + sum_k Q[:, k] x^(k+1) with Q = Z^T P_DENSE
P_DENSE = (
    (13 / 3 + 7 * S6 / 3, -23 / 3 - 22 * S6 / 3, 10 / 3 + 5 * S6),
    (13 / 3 - 7 * S6 / 3, -23 / 3 + 22 * S6 / 3, 10 / 3 - 5 * S6),
    (1 / 3, -8 / 3, 10 / 3),
)

NEWTON_MAXITER = 6  # maximum number of Newton iterations
MIN_FACTOR = 0.2  # minimum allowed decrease in a step size
MAX_FACTOR = 10  # maximum allowed increase in a step size
_BRENT_MAXITER = 100


class SolverStats(Value):
    """Counters of one solve, or summed over several with ``+=``.

    ``rejected`` counts steps refused by the error test and
    ``newton_failures`` collocation solves that did not converge.
    """

    _fields = ("steps", "rejected", "nfev", "njev", "nlu", "newton_failures")
    steps = rejected = nfev = njev = nlu = newton_failures = 0

    def __init__(self, steps: int = 0, rejected: int = 0, nfev: int = 0, njev: int = 0, nlu: int = 0,
                 newton_failures: int = 0):
        self.steps, self.rejected, self.nfev = steps, rejected, nfev
        self.njev, self.nlu, self.newton_failures = njev, nlu, newton_failures

    def __iadd__(self, other: SolverStats) -> SolverStats:
        for name in self._fields:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self


class RadauSolution(Value):
    """Step ends ``t`` (from t0; the last is the terminal crossing when one stopped the solve),
    the state ``y`` at each, the section ``crossings`` as (t, x, y, z), and counters.

    ``y`` starts with the start state; a step end's state is its step's dense output there, and a
    terminal crossing's is its crossing state. The crossings and the counters default to new empty ones.
    """

    _fields = ("t", "y", "crossings", "stats")

    def __init__(self, t: list[float], y: list[tuple[float, float, float]],
                 crossings: list[tuple[float, float, float, float]] | None = None, stats: SolverStats | None = None):
        self.t, self.y = t, y
        self.crossings = [] if crossings is None else crossings
        self.stats = SolverStats() if stats is None else stats


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
    first on ties, so a nan key never wins) and scales by the pivot's reciprocal;
    entries may be float or complex. Returns (p0, p1, p2, u00, u01, u02, l10, u11,
    u12, l20, l21, u22): factor row i is original row p_i. Straight-line code: a
    row swap rebinds the names of the row's index and entries.
    """
    a0, a1, a2, b0, b1, b2, c0, c1, c2 = m
    pa, pb, pc = 0, 1, 2
    ka = abs(a0.real) + abs(a0.imag)
    kb = abs(b0.real) + abs(b0.imag)
    kc = abs(c0.real) + abs(c0.imag)
    if kc > (kb if kb > ka else ka):
        pa, pc, a0, a1, a2, c0, c1, c2 = 2, 0, c0, c1, c2, a0, a1, a2
    elif kb > ka:
        pa, pb, a0, a1, a2, b0, b1, b2 = 1, 0, b0, b1, b2, a0, a1, a2
    if a0 == 0:
        return None
    inv = 1 / a0
    b0 = b0 * inv
    b1 -= b0 * a1
    b2 -= b0 * a2
    c0 = c0 * inv
    c1 -= c0 * a1
    c2 -= c0 * a2
    if abs(c1.real) + abs(c1.imag) > abs(b1.real) + abs(b1.imag):
        pb, pc, b0, b1, b2, c0, c1, c2 = pc, pb, c0, c1, c2, b0, b1, b2
    if b1 == 0:
        return None
    c1 = c1 * (1 / b1)
    c2 -= c1 * b2
    if c2 == 0:
        return None
    return pa, pb, pc, a0, a1, a2, b0, b1, b2, c0, c1, c2


# --- scipy's step-size helpers -------------------------------------------------------


def _rms(v) -> float:
    """scipy's RMS norm, ``np.linalg.norm(v) / v.size ** 0.5``, summed in index order."""
    ss = 0.0
    for x in v:  # not sum(): from Python 3.12 it sums floats with compensation, and the bits could differ
        ss += x * x
    return sqrt(ss) / len(v) ** 0.5


def _initial_step(fun, args, t0, y, t_bound, f, direction, order, rtol, atol):
    """scipy's ``select_initial_step`` for an error estimator of ``order`` (costs one evaluation of fun).

    Shared by both solvers: Radau passes direction 1.0 and order 3, DOP853 its
    direction and order 7.
    """
    interval_length = abs(t_bound - t0)
    s = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / sc for v, sc in zip(y, s)])
    d1 = _rms([v / sc for v, sc in zip(f, s)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0 * direction, tuple(v + h0 * direction * fv for v, fv in zip(y, f)), *args)
    d2 = _rms([(a - b) / sc for a, b, sc in zip(f1, f, s)]) / h0 if h0 else inf  # h0 = 0 when d1 overflows
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (order + 1))
    return min(100 * h0, h1, interval_length)


# --- the solver template ---------------------------------------------------------------
#
# scipy's ``Radau._step_impl`` loop for n = 3 as one function: the stage prediction, the
# simplified Newton iteration (``solve_collocation_system``), the error estimate, the
# step-size controller (``predict_factor``) and the step-end rhs and Jacobian. Every
# substitution with the LU factors is ``getrs``'s order written out. The Newton stages and
# the step-end rhs are slots; a stage binds x, y, z, Q, u, P, r and J, so the template
# names the Jacobian's entries j00..j22, the dense-output matrix P_DENSE and TI_REAL's row
# ti0..ti2. A min or max is written out as the builtin decides it: min(a, b) is
# ``b if b < a else a`` and max(a, b) is ``b if b > a else a``, nan included.

_SOLVER_SRC = '''\
def solver(fun, jac, t, u0, u1, u2, t_bound, rtol, atol, args, section, terminal, stop, approach, band):
{setup}    f0, f1, f2 = fun(t, (u0, u1, u2), *args)
    h_next = _initial_step(fun, args, t, (u0, u1, u2), t_bound, (f0, f1, f2), 1.0, 3, rtol, atol)
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = jac(t, (u0, u1, u2), *args)
    nfev, njev, nlu, steps, n_rejected, newton_failures = 2, 1, 0, 0, 0, 0
    newton_tol = max(10 * EPS / rtol, min(0.03, rtol**0.5))
    h_prev = err_prev = None  # scipy's h_abs_old, error_norm_old
    lu_real = lu_complex = None
    current_jac = True
    cubic = None  # dense output of the last step: the next step's stage prediction and the crossing
    c_0, c_1, _ = C
    e0_, e1_, e2_ = E
    (t00, t01, t02), (t10, t11, t12), _ = T
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = TI
    ti0, ti1, ti2 = TI_REAL
    k0, k1, k2 = TI_COMPLEX
    (p00, p01, p02), (p10, p11, p12), (p20, p21, p22) = P_DENSE
    ts, ys, crossings = [t], [(u0, u1, u2)], []

    while True:
        min_step = 10 * (nextafter(t, inf) - t)
        if h_next < min_step:
            h_abs, h_abs_old, error_norm_old = min_step, None, None
        else:
            h_abs, h_abs_old, error_norm_old = h_next, h_prev, err_prev
        s0, s1, s2 = atol + abs(u0) * rtol, atol + abs(u1) * rtol, atol + abs(u2) * rtol  # Newton's scales
        rejected = False
        while True:
            if not h_abs >= min_step:  # also catches a nan step
                raise StepSizeUnderflow(
                    f"integrator failed at t = {{t:.6g}}: required step size is less than spacing between numbers"
                )
            t_new = t + h_abs
            if t_bound < t_new:
                t_new = t_bound
            h = h_abs = t_new - t
            if cubic is None:
                Z0 = (0.0,) * 9
            else:  # the last step's cubic at the three stage times, less the state
                t_old, h_old, v0, v1, v2, q00, q01, q02, q10, q11, q12, q20, q21, q22 = cubic
                xa = (t + h * c_0 - t_old) / h_old
                xa2 = xa * xa
                xa3 = xa2 * xa
                xb = (t + h * c_1 - t_old) / h_old
                xb2 = xb * xb
                xb3 = xb2 * xb
                xc = (t + h - t_old) / h_old
                xc2 = xc * xc
                xc3 = xc2 * xc
                Z0 = (
                    q00 * xa + q01 * xa2 + q02 * xa3 + v0 - u0,
                    q10 * xa + q11 * xa2 + q12 * xa3 + v1 - u1,
                    q20 * xa + q21 * xa2 + q22 * xa3 + v2 - u2,
                    q00 * xb + q01 * xb2 + q02 * xb3 + v0 - u0,
                    q10 * xb + q11 * xb2 + q12 * xb3 + v1 - u1,
                    q20 * xb + q21 * xb2 + q22 * xb3 + v2 - u2,
                    q00 * xc + q01 * xc2 + q02 * xc3 + v0 - u0,
                    q10 * xc + q11 * xc2 + q12 * xc3 + v1 - u1,
                    q20 * xc + q21 * xc2 + q22 * xc3 + v2 - u2,
                )
            while True:  # Newton from Z0; a failure with a stale Jacobian retries with a fresh one
                if lu_real is None or lu_complex is None:
                    mu = MU_REAL / h
                    lu_real = _lu3((mu - j00, -j01, -j02, -j10, mu - j11, -j12, -j20, -j21, mu - j22))
                    mu = MU_COMPLEX / h
                    lu_complex = _lu3((mu - j00, -j01, -j02, -j10, mu - j11, -j12, -j20, -j21, mu - j22))
                    nlu += 2
                converged = False
                if lu_real is not None and lu_complex is not None:  # else singular: a failed iteration
                    rp0, rp1, rp2, ru00, ru01, ru02, rl10, ru11, ru12, rl20, rl21, ru22 = lu_real
                    cp0, cp1, cp2, cu00, cu01, cu02, cl10, cu11, cu12, cl20, cl21, cu22 = lu_complex
                    m_real = MU_REAL / h
                    m_complex = MU_COMPLEX / h
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
                    tc0, tc1, tc2 = t + h * c_0, t + h * c_1, t + h
                    dw_norm_old = None
                    rate = None
                    for k in range(NEWTON_MAXITER):
{newton_stages}                        b = (
                            f00 * ti0 + f10 * ti1 + f20 * ti2 - m_real * w00,
                            f01 * ti0 + f11 * ti1 + f21 * ti2 - m_real * w01,
                            f02 * ti0 + f12 * ti1 + f22 * ti2 - m_real * w02,
                        )
                        c0 = b[rp0]
                        c1 = b[rp1] - c0 * rl10
                        c2 = b[rp2] - c0 * rl20 - c1 * rl21
                        d2 = c2 / ru22
                        d1 = (c1 - d2 * ru12) / ru11
                        d0 = (c0 - d2 * ru02 - d1 * ru01) / ru00
                        b = (
                            f00 * k0 + f10 * k1 + f20 * k2 - m_complex * complex(w10, w20),
                            f01 * k0 + f11 * k1 + f21 * k2 - m_complex * complex(w11, w21),
                            f02 * k0 + f12 * k1 + f22 * k2 - m_complex * complex(w12, w22),
                        )
                        c0 = b[cp0]
                        c1 = b[cp1] - c0 * cl10
                        c2 = b[cp2] - c0 * cl20 - c1 * cl21
                        c2 = c2 / cu22
                        c1 = (c1 - c2 * cu12) / cu11
                        c0 = (c0 - c2 * cu02 - c1 * cu01) / cu00
                        e0, e1, e2 = c0.real, c1.real, c2.real
                        i0, i1, i2 = c0.imag, c1.imag, c2.imag
                        q0, q1, q2 = d0 / s0, d1 / s1, d2 / s2
                        q3, q4, q5 = e0 / s0, e1 / s1, e2 / s2
                        q6, q7, q8 = i0 / s0, i1 / s1, i2 / s2
                        dw_norm = sqrt(
                            q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3 + q4 * q4 + q5 * q5 + q6 * q6 + q7 * q7 + q8 * q8
                        ) / 3.0
                        if not dw_norm < inf:  # a non-finite F or W gets here: see the module docstring
                            # 0 * v is 0 for every finite v and nan otherwise
                            if (0.0 * f00 + 0.0 * f01 + 0.0 * f02 + 0.0 * f10 + 0.0 * f11 + 0.0 * f12
                                    + 0.0 * f20 + 0.0 * f21 + 0.0 * f22 != 0.0):
                                break
                            # with F finite, a non-finite iterate W is what makes scipy's lu_solve raise here
                            if (0.0 * w00 + 0.0 * w01 + 0.0 * w02 + 0.0 * w10 + 0.0 * w11 + 0.0 * w12
                                    + 0.0 * w20 + 0.0 * w21 + 0.0 * w22 != 0.0):
                                raise NonFiniteState(f"collocation iterate left the finite range at t = {{t:.6g}}")
                        if dw_norm_old is not None:
                            rate = dw_norm / dw_norm_old
                        if rate is not None and (
                            rate >= 1 or rate ** (NEWTON_MAXITER - k) / (1 - rate) * dw_norm > newton_tol
                        ):
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
                        if dw_norm == 0 or rate is not None and rate / (1 - rate) * dw_norm < newton_tol:
                            converged = True
                            break
                        dw_norm_old = dw_norm
                    n_iter = k + 1
                    nfev += 3 * n_iter
                if converged:
                    break
                newton_failures += 1
                if current_jac:
                    break
                (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = jac(t, (u0, u1, u2), *args)
                njev += 1
                current_jac = True
                lu_real = lu_complex = None
            if not converged:
                h_abs *= 0.5
                lu_real = lu_complex = None
                continue

            n0, n1, n2 = u0 + z20, u1 + z21, u2 + z22
            ze0 = (z00 * e0_ + z10 * e1_ + z20 * e2_) / h
            ze1 = (z01 * e0_ + z11 * e1_ + z21 * e2_) / h
            ze2 = (z02 * e0_ + z12 * e1_ + z22 * e2_) / h
            b = (f0 + ze0, f1 + ze1, f2 + ze2)
            c0 = b[rp0]
            c1 = b[rp1] - c0 * rl10
            c2 = b[rp2] - c0 * rl20 - c1 * rl21
            r2 = c2 / ru22
            r1 = (c1 - r2 * ru12) / ru11
            r0 = (c0 - r2 * ru02 - r1 * ru01) / ru00
            au0, au1, au2, an0, an1, an2 = abs(u0), abs(u1), abs(u2), abs(n0), abs(n1), abs(n2)
            se0 = atol + (an0 if an0 > au0 else au0) * rtol
            se1 = atol + (an1 if an1 > au1 else au1) * rtol
            se2 = atol + (an2 if an2 > au2 else au2) * rtol
            q0, q1, q2 = r0 / se0, r1 / se1, r2 / se2
            error_norm = sqrt(q0 * q0 + q1 * q1 + q2 * q2) / 3 ** 0.5
            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER + n_iter)
            if rejected and error_norm > 1:
                g0, g1, g2 = fun(t, (u0 + r0, u1 + r1, u2 + r2), *args)
                nfev += 1
                b = (g0 + ze0, g1 + ze1, g2 + ze2)
                c0 = b[rp0]
                c1 = b[rp1] - c0 * rl10
                c2 = b[rp2] - c0 * rl20 - c1 * rl21
                r2 = c2 / ru22
                r1 = (c1 - r2 * ru12) / ru11
                r0 = (c0 - r2 * ru02 - r1 * ru01) / ru00
                q0, q1, q2 = r0 / se0, r1 / se1, r2 / se2
                error_norm = sqrt(q0 * q0 + q1 * q1 + q2 * q2) / 3 ** 0.5
            # step-size factor: two-step predictive controller when history exists
            if error_norm == 0:
                factor = inf
            elif error_norm_old is None or not h_abs_old:  # after a zero step scipy's multiplier also clips to 1
                factor = error_norm ** -0.25
            else:
                factor = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25
                factor = (factor if factor < 1 else 1) * error_norm ** -0.25
            factor = safety * factor
            if not error_norm > 1:
                break
            h_abs *= factor if factor > MIN_FACTOR else MIN_FACTOR
            lu_real = lu_complex = None
            rejected = True
            n_rejected += 1

        recompute_jac = n_iter > 2 and rate > 1e-3
        if not factor < MAX_FACTOR:
            factor = MAX_FACTOR
        if not recompute_jac and factor < 1.2:
            factor = 1
        else:
            lu_real = lu_complex = None
        if 0.0 * n0 + 0.0 * n1 + 0.0 * n2 != 0.0:
            raise NonFiniteState(f"trajectory left the finite range at t = {{t_new:.6g}}")
{step_end}        nfev += 1
        if recompute_jac:
            (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = jac(t_new, (n0, n1, n2), *args)
            njev += 1
        current_jac = recompute_jac
        h_prev, err_prev, h_next = h_next, error_norm, h_abs * factor
        cubic = (
            t, h, u0, u1, u2,
            z00 * p00 + z10 * p10 + z20 * p20, z00 * p01 + z10 * p11 + z20 * p21, z00 * p02 + z10 * p12 + z20 * p22,
            z01 * p00 + z11 * p10 + z21 * p20, z01 * p01 + z11 * p11 + z21 * p21, z01 * p02 + z11 * p12 + z21 * p22,
            z02 * p00 + z12 * p10 + z22 * p20, z02 * p01 + z12 * p11 + z22 * p21, z02 * p02 + z12 * p12 + z22 * p22,
        )
        steps += 1
        if u0 > section >= n0:
            root = _brentq(lambda tt: dense_eval(cubic, tt)[0] - section, t, t_new, 4 * EPS, 4 * EPS)
            crossings.append((root, *dense_eval(cubic, root)))
            if len(crossings) == terminal:
                ts.append(root)
                ys.append(crossings[-1][1:])
                break
        t, u0, u1, u2 = t_new, n0, n1, n2
        ts.append(t)
        ys.append(dense_eval(cubic, t))
        near = False
        for xf in approach:
            near = near or (f0 * (xf - u0) > 0.0 and abs(xf - u0) < band)
        if t >= t_bound or abs(f0) > stop or near:
            break
    stats = SolverStats(steps, n_rejected, nfev, njev, nlu, newton_failures)
    return RadauSolution(ts, ys, crossings, stats)
'''


def solver_source(stage, setup: str = "") -> str:
    """The template with the function-body lines ``setup`` first and ``stage(t=, s=, out=)`` in each rhs slot.

    A stage is function-body lines that bind the rhs at the expressions t and s with ``out``.
    """

    def at(depth, lines):
        return "".join("    " * depth + line + "\n" for line in lines.splitlines())

    newton = "".join(stage(t=f"tc{i}", s=f"(u0 + z{i}0, u1 + z{i}1, u2 + z{i}2)", out=f"f{i}0, f{i}1, f{i}2 =")
                     for i in range(3))
    step_end = stage(t="t_new", s="(n0, n1, n2)", out="f0, f1, f2 =")
    return _SOLVER_SRC.format(setup=setup, newton_stages=at(5, newton), step_end=at(1, step_end))


@cache
def _generic_solver():
    """The instance that calls ``fun(t, s, *args)`` in each rhs slot."""
    namespace = {}
    source = solver_source("    {out} fun({t}, {s}, *args)\n".format)
    exec(compile(source, "<mmopam.radau solver, generic stage>", "exec"), globals(), namespace)
    return namespace["solver"]


def solve(fun, jac, t0, y0, t_bound, rtol, atol, args=(), section=-inf, terminal=None,
          stop=inf, approach=(), band=0.0) -> RadauSolution:
    """Integrate from ``t0`` to ``t_bound`` as ``solve_ivp(method="Radau", jac=jac, dense_output=True)``.

    A step whose first component x falls from strictly above ``section`` to
    at or below it crosses the section, and the crossing is located on the
    step's dense output; a start on the section is not a crossing. After
    ``terminal`` crossings the solve stops at the last one. The default
    ``-inf`` is no section. The solve also ends at the first step end whose
    first rhs component exceeds ``stop`` in magnitude; the default ``inf``
    never ends it. It ends as well at the first step end that lies within
    ``band`` of a point of ``approach`` with x moving toward that point; the
    default ``()`` never ends it. A step size below ten spacings of t raises
    StepSizeUnderflow, and a non-finite accepted state raises NonFiniteState.
    Runs ``fun.solver`` when ``fun`` carries one, else the generic instance of
    the template.
    """
    if not t_bound > t0:
        raise DomainError(f"t_bound must exceed t0, got [{t0}, {t_bound}]")
    if not (rtol > 0.0 and atol > 0.0):
        raise DomainError("rtol and atol must be positive")
    rtol = max(rtol, 100 * EPS)  # as scipy's validate_tol
    solver = getattr(fun, "solver", None) or _generic_solver()
    u0, u1, u2 = (float(v) for v in y0)
    return solver(fun, jac, float(t0), u0, u1, u2, t_bound, rtol, atol, args, section, terminal, stop, approach, band)


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
