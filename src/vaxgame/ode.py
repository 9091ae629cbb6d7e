"""Mean-field dynamics of the fraction process and its equilibria.

The jump chain's conditional one-step drift, rescaled by eps_k = 1/(k+1),
is approximated by the vector field g over Upsilon = (theta, psi, eta):

    g_theta = theta / (eta * varrho) * [phi*lam - r - d_e - (b - d_e*theta)]
    g_psi   = [q(theta, psi)*phi*nu - (b - d_e*theta)*psi] / (eta * varrho)
    g_eta   = (b - d - d_e*theta)/varrho - eta

with phi = 1 - theta - psi, q the clamped acceptance probability, and
varrho as in :mod:`vaxgame.chain`.  g has no extinction freeze (with
b > d + d_e eta stays far above any realistic freeze level) and is zero
only at eta <= 0.  :func:`field` resolves (params, policy) into y -> g(y)
once; the Python integrator, Newton and the finite-difference Jacobian
evaluate it one state at a time.  :func:`field_rows` is its batch form,
(n, 3) states in and (n, 3) components out, each row equal to g bit for
bit: a loop over the scalar field (:func:`_scalar_field`), the one Python
definition of g.  The numpy sample pass of :mod:`vaxgame.attractor`
evaluates it; with the C kernels of :mod:`vaxgame._native` loaded, that
pass runs in C instead.

Integration uses the package's own DOP853: the adaptive explicit
Runge-Kutta 8(5,3) pair of scipy's ``DOP853`` solver, transcribed to
scalar arithmetic.  It has the same tableau, initial step, step
controller, error norm and dense interpolant, and sums each stage in
order where scipy hands the sums to the BLAS.  The tableau has one copy,
the literals below: :func:`_python_segment` reads its rows and the C
kernel the flat ``_TABLEAU`` built from them.  :func:`integrate` runs its
segments in chunks of 2 time units, doubling up to 256, and settles at the
first row after an accepted step, or at an event row, where max|g| is
below ``EQUILIBRIUM_TOL``, the test :func:`find_equilibrium` converges by;
the segment ends there.  When the C kernel of :mod:`vaxgame._native`
loads, that chunk loop runs in it, many segments per call, and tests the
field values its stepper already has; else it runs in
:class:`_PythonChunks`, segment by segment through :func:`_python_segment`,
the reference it is tested against.  Both give the same bits.  For the
threshold-vigilant policy the indicator 1{theta > Gamma} makes the field
discontinuous; crossings are located with a terminal event (scipy's sign
test, dense interpolant and ``brentq`` root), the integrator hops strictly
across before re-arming (:func:`_hop_across`, RK4 micro-steps), and the
run is cut off once 50 segments in a row end at an event less than 1e-3
after they began (on ``configs/vfc2_oscillation.cfg``, a fast, slowly
decaying oscillation about (0.2, 0.3)).  The hop and that cut-off belong
to the chunk loop: the C kernel runs them too, and returns only at the end
of the run.  No smoothing is applied.

:func:`find_equilibrium` runs a damped Newton on g with a finite-difference
Jacobian, one-sided at the simplex faces, and a 3 x 3 Gaussian
elimination for each step.  It too runs in the C kernel where that loads
(``vaxgame_newton``), else in :func:`_newton`, with the same bits; at an
exact zero pivot the kernel declines and :func:`_newton` takes a
least-squares step.  :func:`field_jacobian` gives the kernel's Jacobian on
its own, the input of the certificates' eigenvalues.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _native
from .errors import (
    DegenerateState,
    DomainError,
    IndicatorNonstationary,
    InvalidParams,
    StepFailure,
)
from .params import ModelParams, derive_ratios
from .policy import Family, Policy, accept_fn, threshold

#: Residual norm below which a point counts as an equilibrium.
EQUILIBRIUM_TOL = 1e-10

_MAX_TIME = 1.0e6

#: Record rows per call of the C chunk loop; a longer run takes more calls.
_SEGMENT_ROWS = 1024

#: The first chunk of :func:`integrate` and the largest one it doubles up to.
_FIRST_CHUNK = 2.0
_MAX_CHUNK = 256.0

#: Newton iterations per attempt of :func:`find_equilibrium`.
_MAX_NEWTON = 60

#: Relative step of the finite-difference Jacobian.
_REL_STEP = 1e-7

#: The message of the DegenerateState raised where the total event mass
#: varrho is zero or negative (a rounded phi below 0 can make it negative).
_VARRHO_NOT_POSITIVE = "varrho is not positive"


@dataclass(frozen=True)
class OdeState:
    theta: float
    psi: float
    eta: float
    t: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.theta, self.psi, self.eta])


def varrho(theta: float, psi: float, params: ModelParams) -> float:
    """The total event mass at (theta, psi), for the field.

    The chain's :func:`vaxgame.chain.event_edges` sums the same masses in
    another order; this sum keeps its own grouping, because regrouping it
    would change the last bits of every ODE output.
    """
    phi = 1.0 - theta - psi
    return (
        params.b
        + params.d
        + params.d_e * theta
        + params.lam * theta * phi
        + params.nu * phi
        + params.r * theta
    )


def _scalar_field(params: ModelParams, policy: Policy):
    """g as (theta, psi, eta) -> (g_theta, g_psi, g_eta), floats in and out."""
    accept = accept_fn(policy)

    def g3(theta: float, psi: float, eta: float) -> tuple[float, float, float]:
        if eta <= 0.0:
            return 0.0, 0.0, 0.0
        # trial stages of the adaptive solver probe outside the simplex;
        # evaluate at the projection so the field stays bounded (identical
        # on-domain, where accepted steps live)
        theta = min(max(theta, 0.0), 1.0)
        psi = min(max(psi, 0.0), 1.0)
        total = theta + psi
        if total > 1.0:
            theta /= total
            psi /= total
        eta = max(eta, 1e-12)
        rho_total = varrho(theta, psi, params)
        if rho_total <= 0.0:
            raise DegenerateState(_VARRHO_NOT_POSITIVE)
        # + 0.0 maps -0.0 to 0.0, as the fraction check of accept_prob does
        q = accept(theta + 0.0, psi + 0.0)
        phi = 1.0 - theta - psi
        scale = 1.0 / (eta * rho_total)
        net_birth = params.b - params.d_e * theta
        g_theta = theta * scale * (phi * params.lam - params.r - params.d_e - net_birth)
        g_psi = scale * (q * phi * params.nu - net_birth * psi)
        g_eta = (params.b - params.d - params.d_e * theta) / rho_total - eta
        return g_theta, g_psi, g_eta

    return g3


def field(params: ModelParams, policy: Policy) -> Callable[[np.ndarray], np.ndarray]:
    """The vector field y -> g(y) of (params, policy), resolved once."""
    g3 = _scalar_field(params, policy)

    def g(y) -> np.ndarray:
        return np.array(g3(float(y[0]), float(y[1]), float(y[2])))

    return g


def field_rows(params: ModelParams, policy: Policy) -> Callable[[np.ndarray], np.ndarray]:
    """The row form of :func:`field`: (n, 3) states in, (n, 3) components out.

    Row i equals ``g(ys[i])`` bit for bit, and a row whose varrho is not
    positive raises DegenerateState as g does, unless its eta is at most 0
    (its row is 0): a loop over :func:`_scalar_field`.
    """
    g3 = _scalar_field(params, policy)
    return lambda ys: np.array([g3(*y) for y in ys.tolist()]).reshape(-1, 3)


def rhs(state: OdeState, params: ModelParams, policy: Policy) -> np.ndarray:
    """Vector field g(Upsilon) at the given state."""
    return field(params, policy)(state.as_array())


@dataclass
class OdePath:
    """Sampled solution of the mean-field ODE."""

    t: np.ndarray
    states: np.ndarray  # shape (n, 3)
    endpoint: OdeState
    settled: bool  # ended at its first quiet row: after a step, or an event row, max|g| < tol
    n_segments: int = 1
    zeno_truncated: bool = False  # cut off: 50 event segments in a row shorter than 1e-3


def _clip_simplex(y: np.ndarray, eta_floor: float) -> np.ndarray:
    """(theta, psi) clipped into the simplex, the excess taken evenly; eta floored."""
    theta, psi, eta = y
    theta = min(max(theta, 0.0), 1.0)
    psi = min(max(psi, 0.0), 1.0)
    if theta + psi > 1.0:
        excess = theta + psi - 1.0
        theta -= excess * 0.5
        psi -= excess * 0.5
    return np.array([theta, psi, max(eta, eta_floor)])


def _outside_simplex(theta: float, psi: float) -> bool:
    """Whether (theta, psi) lies outside the simplex by more than rounding, 1e-9."""
    return theta < -1e-9 or psi < -1e-9 or theta + psi > 1.0 + 1e-9


def _require_state(what: str, state: OdeState) -> None:
    """Check a start state: finite, with a positive eta, inside the simplex.

    Raises InvalidParams for a non-finite component or an eta that is not
    positive, and DomainError where the fractions fail
    :func:`_outside_simplex`.
    """
    if not all(map(math.isfinite, (state.theta, state.psi, state.eta, state.t))):
        raise InvalidParams(f"{what} state must be finite, got {state!r}")
    if state.eta <= 0:
        raise InvalidParams(f"{what} eta must be positive, got {state.eta!r}")
    if _outside_simplex(state.theta, state.psi):
        raise DomainError(
            f"{what} fractions must lie in the simplex, got theta={state.theta!r}, "
            f"psi={state.psi!r}"
        )


def _project_simplex(y: np.ndarray) -> np.ndarray:
    """Clip rounding-level excursions; anything larger is an integrator bug."""
    if _outside_simplex(y[0], y[1]):
        raise StepFailure(f"state left the simplex: {y!r}")
    return _clip_simplex(y, 1e-300)


# The DOP853 tableau, the one copy in the package: the coefficients of
# scipy's DOP853 (Dormand and Prince; Hairer, Norsett and Wanner), as repr
# doubles.  Row s of A holds A[s][:s]; the zeros on and above the diagonal
# are left out.  Rows 1 to 11 are the stages, row 12 repeats B, and rows 13
# to 15 are the extra stages of the dense output.  E3 and E5 are the two
# error estimators over the 13 stages; D gives the interpolant's four
# higher coefficients over all 16.
_A = [
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [
        0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
        -0.015319437748624402, 0.008273789163814023,
    ],
    [
        0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
        27.59209969944671, 20.154067550477894, -43.48988418106996,
    ],
    [
        0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
        21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627,
    ],
    [
        -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
        -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
        -3.0467644718982196,
    ],
    [
        2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
        -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
        12.360567175794303, 0.6433927460157636,
    ],
    [
        0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
        -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
        0.04471061572777259,
    ],
    [
        0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
        -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
        0.007567897660545699, -0.008298,
    ],
    [
        0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
        -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
        -0.00034046500868740456, 0.1413124436746325,
    ],
    [
        -0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
        4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
        2.9475147891527724, -9.15095847217987,
    ],
]
_B = [
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259,
]
_E3 = [
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0.0,
]
_E5 = [
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0.0,
]
_D = [
    [
        -8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
        2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
        0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
        -4.436036387594894,
    ],
    [
        10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
        -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
        -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
        35.81684148639408,
    ],
    [
        19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
        527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
        0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
        11.99229113618279,
    ],
    [
        -25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
        357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
        29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
        -149.72683625798564,
    ],
]
_N_STAGES = 12

#: The tableau as the C kernel reads it, 358 doubles: A padded to 16 x 16
#: (row-major), then B, E3, E5 and D (4 x 16).
_TABLEAU = np.array(
    [
        *(c for row in _A for c in row + [0.0] * (len(_A) - len(row))),
        *_B,
        *_E3,
        *_E5,
        *(c for row in _D for c in row),
    ]
)
#: The same memory as a ctypes array, for the C kernel
_TABLEAU_C = np.ctypeslib.as_ctypes(_TABLEAU)
_ROOT_TOL = 4 * float(np.finfo(float).eps)  # the xtol and rtol of scipy's event root


def _combine(K, a):
    """sum_i K[i] * a[i] over the rows of K, componentwise, from the first product on."""
    pairs = zip(K, a)
    (k0, k1, k2), c = next(pairs)
    s0, s1, s2 = k0 * c, k1 * c, k2 * c
    for (k0, k1, k2), c in pairs:
        s0 += k0 * c
        s1 += k1 * c
        s2 += k2 * c
    return s0, s1, s2


def _quiet(g) -> bool:
    """Whether every component of g is below EQUILIBRIUM_TOL in magnitude; NaN is not."""
    return all(abs(c) < EQUILIBRIUM_TOL for c in g)


def _norm(x, scale) -> float:
    """np.linalg.norm(x / scale) for three components."""
    a, b, c = x[0] / scale[0], x[1] / scale[1], x[2] / scale[2]
    return math.sqrt(a * a + b * b + c * c)


def _initial_step(g3, y, f, interval, rtol, atol) -> float:
    """scipy's select_initial_step for DOP853 (error estimator of order 7)."""
    scale = [atol + abs(v) * rtol for v in y]
    d0, d1 = _norm(y, scale) / math.sqrt(3.0), _norm(f, scale) / math.sqrt(3.0)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = g3(y[0] + h0 * f[0], y[1] + h0 * f[1], y[2] + h0 * f[2])
    d2 = _norm([a - b for a, b in zip(f1, f)], scale) / math.sqrt(3.0) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100 * h0, h1, interval)


def _interpolate(F, y_old, j: int, x: float) -> float:
    """Component j of the DOP853 interpolant of one step at x = (t - t_old) / h."""
    y = 0.0
    for i in range(7):
        y += F[6 - i][j]
        y *= x if i % 2 == 0 else 1 - x
    return y + y_old[j]


def _brent(F, y_old, t_old, h, gamma, a, b):
    """scipy's brentq on theta(t) - gamma over [a, b], as scipy's event handling calls it.

    xtol = rtol = 4 EPS and at most 100 iterations.  None where brentq
    would raise: no sign change, a NaN, or no convergence.
    """

    def event(t):
        return _interpolate(F, y_old, 0, (t - t_old) / h) - gamma

    tol = _ROOT_TOL
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = event(xpre), event(xcur)
    if math.isnan(fpre) or math.isnan(fcur):
        return None
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        return None
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + tol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect, unless the interpolation step below is short
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C divides to inf or NaN, which bisects
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = event(xcur)
        if math.isnan(fcur):
            return None
    return None


def _python_segment(g3, t, t_bound, y, rtol, atol, gamma, settle=False):
    """One DOP853 segment of :func:`integrate` in Python: the reference for the C kernel.

    scipy's DOP853 from (t, y) to t_bound, with the terminal threshold
    event theta = gamma where gamma is not None, written out as scalar
    arithmetic: every stage sum runs over the stages in order.  With
    ``settle`` set, the segment ends early at the first row after a step,
    or at the event row, where g is :func:`_quiet`.
    Returns the rows (t, theta, psi, eta) from the start on and the status
    ODE_DONE, ODE_EVENT (the last row is the interpolant at the crossing),
    ODE_SETTLED, ODE_TOO_SMALL or ODE_NO_ROOT, as in :mod:`vaxgame._native`.
    """
    f = g3(*y)
    h_abs = _initial_step(g3, y, f, abs(t_bound - t), rtol, atol)
    ev = None if gamma is None else y[0] - gamma
    rows = [(t, *y)]
    while True:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return rows, _native.ODE_TOO_SMALL
            t_new = t + h_abs
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)

            K = [f]
            for a in _A[1:_N_STAGES]:
                dy = _combine(K, a)
                K.append(g3(y[0] + dy[0] * h, y[1] + dy[1] * h, y[2] + dy[2] * h))
            dy = _combine(K, _B)
            y_new = (y[0] + h * dy[0], y[1] + h * dy[1], y[2] + h * dy[2])
            K.append(g3(*y_new))

            scale = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)]
            n5 = _norm(_combine(K, _E5), scale)
            n3 = _norm(_combine(K, _E3), scale)
            n5 *= n5
            n3 *= n3
            if n5 == 0 and n3 == 0:
                error_norm = 0.0
            else:
                error_norm = abs(h) * n5 / math.sqrt((n5 + 0.01 * n3) * 3)
            if error_norm < 1:
                factor = 10.0 if error_norm == 0 else min(10.0, 0.9 * error_norm ** (-1.0 / 8.0))
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** (-1.0 / 8.0))
            rejected = True

        if gamma is not None:
            ev_new = y_new[0] - gamma
            if (ev <= 0 and ev_new >= 0) or (ev >= 0 and ev_new <= 0):
                for a in _A[_N_STAGES + 1 :]:
                    dy = _combine(K, a)
                    K.append(g3(y[0] + dy[0] * h, y[1] + dy[1] * h, y[2] + dy[2] * h))
                F = [[0.0] * 3 for _ in range(7)]
                for j in range(3):
                    delta_y = y_new[j] - y[j]
                    F[0][j] = delta_y
                    F[1][j] = h * K[0][j] - delta_y
                    F[2][j] = 2 * delta_y - h * (K[_N_STAGES][j] + K[0][j])
                for m, d in enumerate(_D):
                    F[3 + m] = [h * v for v in _combine(K, d)]
                root = _brent(F, y, t, h, gamma, t, t_new)
                if root is None:
                    return rows, _native.ODE_NO_ROOT
                x = (root - t) / h
                row = tuple(_interpolate(F, y, j, x) for j in range(3))
                rows.append((root, *row))
                if settle and _quiet(g3(*row)):
                    return rows, _native.ODE_SETTLED
                return rows, _native.ODE_EVENT
            ev = ev_new
        t, y, f = t_new, y_new, K[_N_STAGES]
        rows.append((t, *y))
        if settle and _quiet(f):
            return rows, _native.ODE_SETTLED
        if t - t_bound >= 0:
            return rows, _native.ODE_DONE


def _segment_solver(params: ModelParams, policy: Policy, rtol: float, atol: float, settle: bool):
    """(t, t_bound, y) -> (rows, status): one DOP853 segment in Python, resolved once.

    The segment stops at the policy's threshold, if it has one, and with
    ``settle`` set at its first quiet row (:func:`_python_segment`).  The
    rows are an (n, 4) array of (t, theta, psi, eta) from the start on.
    """
    gamma = threshold(policy)
    g3 = _scalar_field(params, policy)

    def python(t, t_bound, y):
        # Python floats throughout: numpy scalars would warn where _brent divides by zero
        t, t_bound, y = float(t), float(t_bound), tuple(map(float, y))
        rows, status = _python_segment(g3, t, t_bound, y, rtol, atol, gamma, settle)
        return np.array(rows), status

    return python


def _raise_for(status: int, t0: float, t: float, end) -> None:
    """The error of a run that ended with ``status`` at (t, end), its last segment begun at t0."""
    if status == _native.ODE_TOO_SMALL:
        raise StepFailure(
            f"integrator failed at t={t0:.6g}: "
            "Required step size is less than spacing between numbers."
        )
    if status == _native.ODE_NO_ROOT:
        raise StepFailure(f"threshold event without a bracketed root after t={t0:.6g}")
    if status == _native.ODE_DEGENERATE:
        raise DegenerateState(_VARRHO_NOT_POSITIVE)
    if status == _native.ODE_LEFT_SIMPLEX:
        _project_simplex(end)
    if status == _native.ODE_NO_HOP:
        raise StepFailure(f"could not hop across the threshold at t={t:.6g}")


class _PythonChunks:
    """The chunk loop of :func:`integrate` in Python: the reference for the C kernel.

    :meth:`run` takes segments of :func:`_segment_solver` from (t, y): the
    first spans ``_FIRST_CHUNK`` time units, and each one that reaches its
    bound doubles the next, up to ``_MAX_CHUNK``; no segment passes
    ``t_end``.  With ``stop`` set, the segments end at their first quiet
    row, which settles the run.  A segment that ends at the threshold short
    of ``t_end`` is followed by :func:`_hop_across` and its row, and the
    run is cut off once 50 segments in a row end at an event < 1e-3 after they began.
    """

    def __init__(self, params, policy, t_end, rtol, atol, stop):
        self.segment = _segment_solver(params, policy, rtol, atol, stop)
        self.g = field(params, policy)
        self.gamma = threshold(policy)
        self.t_end = t_end
        self.chunk = _FIRST_CHUNK
        self.n_segments = 0

    def run(self, t, y, out: list):
        """Segments from (t, y) until the run settles, reaches t_end or is cut off.

        Appends the rows of each segment, and of each hop, to ``out`` and
        returns (status, t, y): ODE_SETTLED, ODE_ZENO or ODE_DONE, with y
        projected onto the simplex.
        """
        tiny = 0
        while t < self.t_end:
            t0 = t
            rows, status = self.segment(t, min(t + self.chunk, self.t_end), y)
            _raise_for(status, t0, None, None)
            self.n_segments += 1
            out.append(rows)
            t, y = rows[-1, 0], _project_simplex(rows[-1, 1:])
            if status == _native.ODE_SETTLED:
                return status, t, y
            if status == _native.ODE_DONE:
                self.chunk = min(self.chunk * 2.0, _MAX_CHUNK)
            elif t < self.t_end:
                # landed on the threshold; hop strictly across before
                # re-arming the event, otherwise the restart re-fires at
                # zero progress
                tiny = tiny + 1 if t - t0 < 1e-3 else 0
                t, y = _hop_across(self.g, t, y, self.gamma, self.t_end)
                out.append(np.array([[t, *y]]))
                # the orbit oscillates fast about the threshold; once the
                # progress between events stays far below any genuine
                # half-cycle, stop the run there
                if tiny >= 50 or self.n_segments >= 100_000:
                    return _native.ODE_ZENO, t, y
        return _native.ODE_DONE, t, y


class _NativeChunks:
    """:class:`_PythonChunks` in the C kernel of :mod:`vaxgame._native`, with the same bits.

    Each kernel call runs segment after segment, hops included, and tests
    the field values its stepper has; it returns at the end of the run, at
    the Zeno cut-off, on an error, or when its ``_SEGMENT_ROWS`` record rows
    are full.
    """

    def __init__(self, lib, params, policy, t_end, rtol, atol, stop):
        gamma = threshold(policy)
        self.lib = lib
        self.law = _native.make_law(params, policy)
        self.loop = _native.Loop(
            t_end=t_end, max_chunk=_MAX_CHUNK, stop=stop, tol=EQUILIBRIUM_TOL, chunk=_FIRST_CHUNK,
            seg=_native.Segment(
                rtol=rtol, atol=atol, event=gamma is not None,
                gamma=0.0 if gamma is None else gamma,
            ),
        )
        self.records = (ctypes.c_double * (4 * _SEGMENT_ROWS))()
        self.rows = np.frombuffer(self.records).reshape(-1, 4)

    n_segments = property(lambda self: self.loop.n_segments)

    def run(self, t, y, out: list):
        """:meth:`_PythonChunks.run`."""
        loop = self.loop
        loop.seg.t = t
        loop.seg.y[:] = tuple(y)
        while True:
            status = self.lib.vaxgame_integrate(
                ctypes.byref(loop), ctypes.byref(self.law), _TABLEAU_C, len(self.rows),
                self.records,
            )
            out.append(self.rows[: loop.n_rec].copy())
            if status != _native.ODE_RECORDS_FULL:
                break
        y = np.array(loop.seg.y)
        _raise_for(status, loop.t0, loop.seg.t, y)
        return status, loop.seg.t, y


def integrate(
    initial: OdeState,
    params: ModelParams,
    policy: Policy,
    horizon: float,
    rtol: float = 1e-12,
    atol: float = 1e-14,
    stop_at_equilibrium: bool = True,
) -> OdePath:
    """Integrate the mean-field ODE from ``initial`` for ``horizon`` time units.

    Integration proceeds in geometrically growing chunks so that, when
    ``stop_at_equilibrium`` is set, the run ends at the first row after an
    accepted step, or at an event row, where max|g| is below
    EQUILIBRIUM_TOL (the default tolerances are tight enough for the
    numerical orbit to reach that floor); its path is then the path without
    the stop, cut at that row.  t is capped at 1e6 regardless.  Threshold crossings of a
    threshold-vigilant response (VFC2, or a mutant over one; see
    :func:`vaxgame.policy.threshold`) are located by a terminal event and
    the solver restarts across them, cut off (``zeno_truncated``) once 50
    segments in a row end at an event less than 1e-3 after they began (on
    ``vfc2_oscillation.cfg``, a fast, slowly decaying oscillation about
    (0.2, 0.3)).  The chunks, hops and cut-off run in the C kernel of
    :mod:`vaxgame._native` when that loads, else in :class:`_PythonChunks`;
    both give the same path.

    Raises InvalidParams for a horizon that is not positive (NaN included)
    or too small to move the start t, for an ``rtol`` or ``atol`` that is
    not finite and positive, for a start state with a non-finite component,
    and for a start eta that is not positive (eta = N/(k+1) of a live
    population).  Raises DomainError for start fractions more than rounding
    level (1e-9) outside the simplex.
    """
    if not horizon > 0:
        raise InvalidParams("horizon must be positive")
    for name, value in (("rtol", rtol), ("atol", atol)):
        if not (math.isfinite(value) and value > 0):
            raise InvalidParams(f"{name} must be finite and positive, got {value!r}")
    _require_state("start", initial)
    y = _project_simplex(initial.as_array())
    t = initial.t
    t_end = min(t + horizon, t + _MAX_TIME)
    if not t_end > t:
        raise InvalidParams(f"horizon {horizon!r} (capped at {_MAX_TIME:g}) does not move t={t!r}")
    lib = _native.library()
    settings = (params, policy, t_end, rtol, atol, stop_at_equilibrium)
    loop = _PythonChunks(*settings) if lib is None else _NativeChunks(lib, *settings)

    chunks: list[np.ndarray] = []
    status, t, y = loop.run(t, y, chunks)
    rows = np.concatenate(chunks)
    endpoint = OdeState(theta=y[0], psi=y[1], eta=y[2], t=float(t))
    return OdePath(
        t=np.ascontiguousarray(rows[:, 0]),
        states=np.ascontiguousarray(rows[:, 1:]),
        endpoint=endpoint,
        settled=status == _native.ODE_SETTLED,
        n_segments=loop.n_segments,
        zeno_truncated=status == _native.ODE_ZENO,
    )


def _hop_across(g, t, y, gamma, t_end, clearance: float = 1e-12):
    """Classical RK4 micro-steps on the field g until theta is strictly clear of the threshold.

    The hop of :class:`_PythonChunks`, and the reference for the C kernel's
    ``hop_across``.
    """
    h = 1e-9 * max(1.0, abs(t))
    for _ in range(64):
        if abs(y[0] - gamma) > clearance or t >= t_end:
            return t, _project_simplex(y)
        h = min(h, t_end - t)
        k1 = g(y)
        k2 = g(y + h / 2 * k1)
        k3 = g(y + h / 2 * k2)
        k4 = g(y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        h *= 2.0
    # h >= 1e-9 doubles each try and t_end - t <= _MAX_TIME, so some step
    # lands on t_end within about 52 tries: this line is never reached
    raise StepFailure(f"could not hop across the threshold at t={t:.6g}")


@dataclass(frozen=True)
class EquilibriumResult:
    state: OdeState
    residual: float
    converged: bool


def _fd_jacobian(g, y, rel_step: float = _REL_STEP) -> np.ndarray:
    """Finite-difference Jacobian of the field g, stepping only inside the admissible set.

    Central differences in the interior; second-order one-sided stencils
    against a simplex face, so boundary attractors get O(h^2) accuracy too.
    """
    n = len(y)
    jac = np.zeros((n, n))
    # silent where a step leaves the finite numbers (inf - inf), as the C kernel is
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(n):
            h = rel_step * max(1.0, abs(y[j]))
            lo_blocked = j < 2 and y[j] - h < 0.0
            hi_blocked = j < 2 and (y[0] + y[1] + h > 1.0 or y[j] + h > 1.0)
            if not lo_blocked and not hi_blocked:
                up, dn = y.copy(), y.copy()
                up[j] += h
                dn[j] -= h
                jac[:, j] = (g(up) - g(dn)) / (2.0 * h)
            elif not hi_blocked:
                p1, p2 = y.copy(), y.copy()
                p1[j] += h
                p2[j] += 2.0 * h
                jac[:, j] = (-3.0 * g(y) + 4.0 * g(p1) - g(p2)) / (2.0 * h)
            elif not lo_blocked:
                p1, p2 = y.copy(), y.copy()
                p1[j] -= h
                p2[j] -= 2.0 * h
                jac[:, j] = (3.0 * g(y) - 4.0 * g(p1) + g(p2)) / (2.0 * h)
            # a column blocked on both sides stays zero (degenerate face width)
    return jac


def field_jacobian(params: ModelParams, policy: Policy, y) -> np.ndarray:
    """:func:`_fd_jacobian` of g at y, in the C kernel of :mod:`vaxgame._native` where it loads.

    Both give the same bits.  Raises InvalidParams unless y has three
    components, and DegenerateState where varrho is not positive at a
    stencil point.
    """
    y = np.array(y, dtype=float)
    if y.shape != (3,):
        raise InvalidParams(f"expected a state of 3 components, got shape {y.shape}")
    lib = _native.library()
    if lib is None:
        return _fd_jacobian(field(params, policy), y)
    jac = _native.Matrix()
    law = _native.make_law(params, policy)
    if lib.vaxgame_jacobian(ctypes.byref(law), _native.State(*y), _REL_STEP, jac):
        raise DegenerateState(_VARRHO_NOT_POSITIVE)
    return np.frombuffer(jac).reshape(3, 3)


def find_equilibrium(
    guess: OdeState,
    params: ModelParams,
    policy: Policy,
) -> EquilibriumResult:
    """Damped Newton on g, with a long-horizon integration fallback.

    The Newton runs in the C kernel of :mod:`vaxgame._native` where it
    loads, else in :func:`_newton`, with the same bits.

    Raises InvalidParams for a guess with a non-finite component or an eta
    that is not positive, and DomainError for guess fractions more than
    rounding level (1e-9) outside the simplex, as :func:`integrate` does for
    its start.  Raises IndicatorNonstationary for a threshold-vigilant
    policy whose threshold is dynamically reachable
    (:meth:`Ratios.threshold_reachable`, the rule
    :func:`vaxgame.attractor.vfc2_limit_set` reads too): the limit object
    there is a switching limit set around the threshold, not a zero of
    either one-sided field.
    """
    _require_state("guess", guess)
    if policy.family is Family.VFC2:
        if derive_ratios(params).threshold_reachable(policy.gamma):
            raise IndicatorNonstationary(
                "threshold policy with reachable Gamma has no fixed point"
            )

    newton = _newton_solver(params, policy)
    # the guess passed _outside_simplex above: this is _project_simplex's clip
    best_y = y = _clip_simplex(guess.as_array().tolist(), 1e-300)
    for attempt in range(3):
        y, res, start_res = newton(y)
        if attempt == 0:
            best_res = start_res  # the guess's own residual
        if res < best_res:
            best_y, best_res = y, res
        if best_res < EQUILIBRIUM_TOL:
            break
        # re-seed Newton from a relaxed trajectory
        path = integrate(
            OdeState(*y, t=0.0),
            params,
            policy,
            horizon=10.0 ** (2 + attempt),
            rtol=1e-10,
            atol=1e-12,
        )
        y = path.endpoint.as_array()

    state = OdeState(theta=best_y[0], psi=best_y[1], eta=best_y[2], t=guess.t)
    return EquilibriumResult(
        state=state, residual=best_res, converged=best_res < EQUILIBRIUM_TOL
    )


def _newton_solver(params: ModelParams, policy: Policy):
    """y -> (y, residual, start residual): :func:`_newton` on the field g of (params, policy).

    It runs in the C kernel of :mod:`vaxgame._native` where that loads.  At
    an exact zero pivot the kernel declines, and :func:`_newton` runs with
    its least-squares step.
    """
    lib = _native.library()
    if lib is None:
        g = field(params, policy)
        return lambda y: _newton(g, y)
    law = _native.make_law(params, policy)

    def native(y):
        out = _native.State(*y)
        res, start_res = ctypes.c_double(), ctypes.c_double()
        code = lib.vaxgame_newton(
            ctypes.byref(law), _MAX_NEWTON, EQUILIBRIUM_TOL, _REL_STEP, out, ctypes.byref(res),
            ctypes.byref(start_res),
        )
        if code == _native.ODE_DEGENERATE:
            raise DegenerateState(_VARRHO_NOT_POSITIVE)
        if code == _native.ODE_SINGULAR:
            return _newton(field(params, policy), y)
        return np.frombuffer(out), res.value, start_res.value

    return native


def _solve3(a: np.ndarray, b: np.ndarray):
    """x with a x = b for a 3 x 3 a, or None at an exact zero pivot.

    Gaussian elimination with partial pivoting (the first row of largest
    |pivot|), then back substitution, in Python floats: the C kernel's
    ``solve3`` does the same arithmetic.
    """
    m = [[*row, v] for row, v in zip(a.tolist(), b.tolist())]
    for k in range(3):
        p = k
        for i in range(k + 1, 3):
            if abs(m[i][k]) > abs(m[p][k]):
                p = i
        if m[p][k] == 0.0:
            return None
        m[k], m[p] = m[p], m[k]
        for i in range(k + 1, 3):
            f = m[i][k] / m[k][k]
            for j in range(k + 1, 4):
                m[i][j] -= f * m[k][j]
    x = [0.0, 0.0, 0.0]
    for i in (2, 1, 0):
        s = m[i][3]
        for j in range(i + 1, 3):
            s -= m[i][j] * x[j]
        x[i] = s / m[i][i]
    return np.array(x)


def _newton(g, y):
    """Damped Newton on g from y: the reference for the C kernel's ``vaxgame_newton``.

    Each iteration solves J delta = -g(y) with :func:`_solve3` on the
    finite-difference Jacobian (a least-squares step at an exact zero
    pivot) and halves the step until max|g| falls.  Returns the final y,
    its max|g| and the max|g| of the start.
    """
    res_vec = g(y)
    res = start_res = float(np.max(np.abs(res_vec)))
    for _ in range(_MAX_NEWTON):
        if res < EQUILIBRIUM_TOL:
            break
        jac = _fd_jacobian(g, y)
        delta = _solve3(jac, -res_vec)
        if delta is None:
            delta = -np.linalg.lstsq(jac, res_vec, rcond=None)[0]
        step = 1.0
        improved = False
        for _ in range(30):
            trial = _clip_simplex(y + step * delta, 1e-12)
            trial_vec = g(trial)
            trial_res = float(np.max(np.abs(trial_vec)))
            if trial_res < res or trial_res < EQUILIBRIUM_TOL:
                y, res_vec, res = trial, trial_vec, trial_res
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return y, res, start_res


def write_path_csv(path: OdePath, file) -> None:
    """CSV export with header t,theta,psi,eta at 17 significant digits.

    The rows are formatted in C where the kernels load and by Python's
    ``"%.17g"`` otherwise (:func:`vaxgame._native.write_rows`); the bytes
    are the same.
    """
    _native.write_rows(file, "t,theta,psi,eta\n", (path.t, path.states))
