"""DOP853 for one equation in plain floats, forward or backward.

A step-for-step port of scipy's ``RungeKutta._step_impl`` and
``DOP853._estimate_error_norm`` (``scipy.integrate._ivp.rk``): the explicit
Runge-Kutta pair of order 8 with the 5th and 3rd order error estimators of
Hairer, Norsett & Wanner, *Solving Ordinary Differential Equations I*,
Sec. II.5. It keeps scipy's 12-stage tableau, the combined error norm, the
step-size controller (safety 0.9, factors in [0.2, 10], exponent -1/8, no
growth right after a rejection), the minimum step of ten spacings of t, the
clamp of the last step to ``t_bound``, the floor ``rtol >= 100 EPS`` and
``select_initial_step`` of order 7. Dense output is left out: the caller
needs only the end state.

``fun(t, y, *args)`` returns the derivative at the float ``y``. Sums over
the stages run in index order and skip the exact zeros of the tableau.
"""

from __future__ import annotations

import sys
from math import inf, nextafter, sqrt

from .errors import DomainError, StepSizeUnderflow
from .radau import SolverStats

EPS = sys.float_info.epsilon

# --- scipy's dop853_coefficients, nonzero entries only ------------------------

# stages 1..11: (C[s], ((j, A[s, j]), ...)); stage 0 is the derivative at the step start
STAGES = (
    (0.526001519587677318785587544488e-01, ((0, 5.26001519587677318785587544488e-2),)),
    (0.789002279381515978178381316732e-01, ((0, 1.97250569845378994544595329183e-2), (1, 5.91751709536136983633785987549e-2))),
    (0.118350341907227396726757197510, ((0, 2.95875854768068491816892993775e-2), (2, 8.87627564304205475450678981324e-2))),
    (0.281649658092772603273242802490, (
        (0, 2.41365134159266685502369798665e-1), (2, -8.84549479328286085344864962717e-1),
        (3, 9.24834003261792003115737966543e-1),
    )),
    (0.333333333333333333333333333333, (
        (0, 3.7037037037037037037037037037e-2), (3, 1.70828608729473871279604482173e-1),
        (4, 1.25467687566822425016691814123e-1),
    )),
    (0.25, (
        (0, 3.7109375e-2), (3, 1.70252211019544039314978060272e-1), (4, 6.02165389804559606850219397283e-2),
        (5, -1.7578125e-2),
    )),
    (0.307692307692307692307692307692, (
        (0, 3.70920001185047927108779319836e-2), (3, 1.70383925712239993810214054705e-1),
        (4, 1.07262030446373284651809199168e-1), (5, -1.53194377486244017527936158236e-2),
        (6, 8.27378916381402288758473766002e-3),
    )),
    (0.651282051282051282051282051282, (
        (0, 6.24110958716075717114429577812e-1), (3, -3.36089262944694129406857109825),
        (4, -8.68219346841726006818189891453e-1), (5, 2.75920996994467083049415600797e1),
        (6, 2.01540675504778934086186788979e1), (7, -4.34898841810699588477366255144e1),
    )),
    (0.6, (
        (0, 4.77662536438264365890433908527e-1), (3, -2.48811461997166764192642586468),
        (4, -5.90290826836842996371446475743e-1), (5, 2.12300514481811942347288949897e1),
        (6, 1.52792336328824235832596922938e1), (7, -3.32882109689848629194453265587e1),
        (8, -2.03312017085086261358222928593e-2),
    )),
    (0.857142857142857142857142857142, (
        (0, -9.3714243008598732571704021658e-1), (3, 5.18637242884406370830023853209),
        (4, 1.09143734899672957818500254654), (5, -8.14978701074692612513997267357),
        (6, -1.85200656599969598641566180701e1), (7, 2.27394870993505042818970056734e1),
        (8, 2.49360555267965238987089396762), (9, -3.0467644718982195003823669022),
    )),
    (1.0, (
        (0, 2.27331014751653820792359768449), (3, -1.05344954667372501984066689879e1),
        (4, -2.00087205822486249909675718444), (5, -1.79589318631187989172765950534e1),
        (6, 2.79488845294199600508499808837e1), (7, -2.85899827713502369474065508674),
        (8, -8.87285693353062954433549289258), (9, 1.23605671757943030647266201528e1),
        (10, 6.43392746015763530355970484046e-1),
    )),
)  # fmt: skip
# the weights B = A[12, :12] and the two error estimators, all nonzero exactly at stages 0 and 5..11
OUT = (0, 5, 6, 7, 8, 9, 10, 11)
B = (
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
)
E3 = (
    B[0] - 0.244094488188976377952755905512, B[1], B[2], B[3], B[4] - 0.733846688281611857341361741547, B[5], B[6],
    B[7] - 0.220588235294117647058823529412e-1,
)
E5 = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
)
TAIL = tuple(zip(OUT, B, E3, E5))

SAFETY = 0.9  # multiplies steps computed from the asymptotic behaviour of errors
MIN_FACTOR = 0.2  # minimum allowed decrease in a step size
MAX_FACTOR = 10  # maximum allowed increase in a step size
ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order + 1)


def _norm(v):
    """scipy's RMS norm of a one-element array."""
    return sqrt(v * v)


def _initial_step(fun, args, t0, y0, t_bound, f0, direction, rtol, atol):
    """scipy's ``select_initial_step`` for an error estimator of order 7 (costs one evaluation of fun)."""
    interval_length = abs(t_bound - t0)
    scale = atol + abs(y0) * rtol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0 * direction, y0 + h0 * direction * f0, *args)
    d2 = _norm((f1 - f0) / scale) / h0 if h0 else inf  # h0 = 0 when d1 overflows
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def solve(fun, t0, y0, t_bound, rtol, atol, args=()) -> tuple[float, SolverStats]:
    """The state at ``t_bound`` and the counters, as ``solve_ivp(method="DOP853")`` from ``(t0, y0)``.

    ``t_bound`` may lie on either side of ``t0``. A step below ten spacings
    of t, which a nan error norm reaches by rejecting, raises StepSizeUnderflow.
    """
    if t_bound == t0:
        raise DomainError(f"t_bound must differ from t0, got [{t0}, {t_bound}]")
    if not (rtol > 0.0 and atol > 0.0):
        raise DomainError("rtol and atol must be positive")
    rtol = max(rtol, 100 * EPS)  # as scipy's validate_tol
    direction = 1.0 if t_bound > t0 else -1.0
    t, y = float(t0), float(y0)
    f = fun(t, y, *args)
    h_abs = _initial_step(fun, args, t, y, t_bound, f, direction, rtol, atol)
    st = SolverStats(nfev=2)
    K = [0.0] * 12

    while True:
        min_step = 10 * abs(nextafter(t, direction * inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:  # also catches a nan step
                raise StepSizeUnderflow(
                    f"integrator failed at t = {t:.6g}: required step size is less than spacing between numbers"
                )
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)

            K[0] = f
            for s, (c, row) in enumerate(STAGES, 1):
                dy = 0.0
                for j, a in row:
                    dy += K[j] * a
                K[s] = fun(t + c * h, y + dy * h, *args)
            sb = s3 = s5 = 0.0
            for j, b, e3, e5 in TAIL:
                k = K[j]
                sb += k * b
                s3 += k * e3
                s5 += k * e5
            y_new = y + h * sb
            f_new = fun(t + h, y_new, *args)
            st.nfev += 12

            # scipy's sums also run over the zero weights and its maximum propagates nan, so a
            # non-finite stage or end state gives a nan error norm: 0 * v is nan unless v is finite
            s5 += 0.0 * K[1] + 0.0 * K[2] + 0.0 * K[3] + 0.0 * K[4] + 0.0 * f_new
            scale = atol + (abs(y) if abs(y) >= abs(y_new) else abs(y_new)) * rtol
            err5 = s5 / scale
            err3 = s3 / scale
            # scipy's squared norm of one element, sqrt(e * e) ** 2, is e * e
            err5_norm_2 = err5 * err5
            err3_norm_2 = err3 * err3
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5_norm_2 / sqrt(err5_norm_2 + 0.01 * err3_norm_2)

            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
            rejected = True
            st.rejected += 1

        st.steps += 1
        t, y, f = t_new, y_new, f_new
        if direction * (t - t_bound) >= 0:
            return y, st
