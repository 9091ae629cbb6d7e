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
once; the integrator, Newton and the finite-difference Jacobian evaluate
it one state at a time.  :func:`field_rows` is its batch form, (n, 3)
states in and (n, 3) components out, each row equal to g bit for bit;
the settle scan of :func:`integrate` and the certificate sampling in
:mod:`vaxgame.attractor` evaluate it.

Integration uses an adaptive explicit Runge-Kutta pair.  For the
threshold-vigilant policy the indicator 1{theta > Gamma} makes the field
discontinuous; crossings are located with a terminal event, the integrator
hops strictly across before re-arming, and the run is cut short once
crossings accumulate into the sliding regime on the threshold.  No
smoothing is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DegenerateState, IndicatorNonstationary, InvalidParams, StepFailure
from .params import ModelParams, derive_ratios
from .policy import Family, Policy, accept_fn, threshold

#: Residual norm below which a point counts as an equilibrium.
EQUILIBRIUM_TOL = 1e-10

#: Number of consecutive accepted steps with small residual that ends an
#: open-horizon integration early.
_QUIET_STEPS = 100

_MAX_TIME = 1.0e6

#: The adaptive Runge-Kutta pair of :func:`integrate`.
_METHOD = "DOP853"

#: Newton iterations per attempt of :func:`find_equilibrium`.
_MAX_NEWTON = 60


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


def _components(theta, psi, eta, rho_total, q, params: ModelParams):
    """(g_theta, g_psi, g_eta) at projected fractions, for floats and arrays alike."""
    phi = 1.0 - theta - psi
    scale = 1.0 / (eta * rho_total)
    net_birth = params.b - params.d_e * theta
    g_theta = theta * scale * (phi * params.lam - params.r - params.d_e - net_birth)
    g_psi = scale * (q * phi * params.nu - net_birth * psi)
    g_eta = (params.b - params.d - params.d_e * theta) / rho_total - eta
    return g_theta, g_psi, g_eta


def field(params: ModelParams, policy: Policy) -> Callable[[np.ndarray], np.ndarray]:
    """The vector field y -> g(y) of (params, policy), resolved once."""
    accept = accept_fn(policy)

    def g(y) -> np.ndarray:
        theta, psi, eta = float(y[0]), float(y[1]), float(y[2])
        if eta <= 0.0:
            return np.zeros(3)
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
            raise DegenerateState("varrho vanished")
        # + 0.0 maps -0.0 to 0.0, as the fraction check of accept_prob does
        q = accept(theta + 0.0, psi + 0.0)
        return np.array(_components(theta, psi, eta, rho_total, q, params))

    return g


def field_rows(params: ModelParams, policy: Policy) -> Callable[[np.ndarray], np.ndarray]:
    """The row form of :func:`field`: (n, 3) states in, (n, 3) components out.

    Row i equals ``g(ys[i])`` bit for bit: the same projection, the same
    :func:`varrho` and :func:`_components`, and q from the same
    :func:`policy.accept_fn` closure, applied elementwise.
    """
    accept = np.frompyfunc(accept_fn(policy), 2, 1)

    def g_rows(ys: np.ndarray) -> np.ndarray:
        theta, psi, eta = ys[:, 0], ys[:, 1], ys[:, 2]
        live = ~(eta <= 0.0)  # a NaN eta is evaluated, as in g
        # where() keeps Python's min/max on -0.0 and NaN
        theta = np.where(0.0 > theta, 0.0, theta)
        theta = np.where(1.0 < theta, 1.0, theta)
        psi = np.where(0.0 > psi, 0.0, psi)
        psi = np.where(1.0 < psi, 1.0, psi)
        total = theta + psi
        over = total > 1.0
        np.divide(theta, total, out=theta, where=over)
        np.divide(psi, total, out=psi, where=over)
        eta = np.where(1e-12 > eta, 1e-12, eta)
        rho_total = varrho(theta, psi, params)
        if (live & (rho_total <= 0.0)).any():
            raise DegenerateState("varrho vanished")
        q = accept(theta + 0.0, psi + 0.0).astype(float)
        out = np.column_stack(_components(theta, psi, eta, rho_total, q, params))
        out[~live] = 0.0
        return out

    return g_rows


def rhs(state: OdeState, params: ModelParams, policy: Policy) -> np.ndarray:
    """Vector field g(Upsilon) at the given state."""
    return field(params, policy)(state.as_array())


@dataclass
class OdePath:
    """Sampled solution of the mean-field ODE."""

    t: np.ndarray
    states: np.ndarray  # shape (n, 3)
    endpoint: OdeState
    settled: bool  # residual stayed below EQUILIBRIUM_TOL for _QUIET_STEPS steps
    n_segments: int = 1
    zeno_truncated: bool = False  # threshold crossings accumulated; run cut short


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


def _project_simplex(y: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Clip rounding-level excursions; anything larger is an integrator bug."""
    theta, psi, _ = y
    if theta < -tol or psi < -tol or theta + psi > 1.0 + tol:
        raise StepFailure(f"state left the simplex: {y!r}")
    return _clip_simplex(y, 1e-300)


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
    ``stop_at_equilibrium`` is set, the run ends as soon as the residual has
    stayed below EQUILIBRIUM_TOL for 100 consecutive accepted steps (the
    default tolerances are tight enough for the numerical orbit to reach
    that floor); t is capped at 1e6 regardless.  Threshold crossings of a
    threshold-vigilant response (VFC2, or a mutant over one; see
    :func:`vaxgame.policy.threshold`) are located by a terminal event and
    the solver restarts across them.

    Raises InvalidParams for a horizon that is not positive (NaN included),
    for an ``rtol`` or ``atol`` that is not finite and positive, for a start
    state with a non-finite component, and for a start eta that is not
    positive (eta = N/(k+1) of a live population).
    """
    if not horizon > 0:
        raise InvalidParams("horizon must be positive")
    for name, value in (("rtol", rtol), ("atol", atol)):
        if not (math.isfinite(value) and value > 0):
            raise InvalidParams(f"{name} must be finite and positive, got {value!r}")
    if not all(map(math.isfinite, (initial.theta, initial.psi, initial.eta, initial.t))):
        raise InvalidParams(f"start state must be finite, got {initial!r}")
    if initial.eta <= 0:
        raise InvalidParams(f"start eta must be positive, got {initial.eta!r}")
    y = _project_simplex(initial.as_array())
    t0 = initial.t
    t_end = min(t0 + horizon, t0 + _MAX_TIME)
    g = field(params, policy)
    g_rows = field_rows(params, policy)

    def g_t(t, y):
        return g(y)

    events = None
    gamma = threshold(policy)
    if gamma is not None:

        def crossing(t, y):
            return y[0] - gamma

        crossing.terminal = True
        crossing.direction = 0
        events = [crossing]

    ts: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    quiet = 0
    settled = False
    n_segments = 0
    chunk = 2.0
    tiny_segments = 0
    zeno = False

    t = t0
    while t < t_end and not settled:
        t_next = min(t + chunk, t_end)
        sol = solve_ivp(
            g_t,
            (t, t_next),
            y,
            method=_METHOD,
            rtol=rtol,
            atol=atol,
            events=events,
            dense_output=False,
        )
        if not sol.success and sol.status != 1:
            raise StepFailure(f"integrator failed at t={t:.6g}: {sol.message}")
        n_segments += 1
        ts.append(sol.t)
        ys.append(sol.y.T)

        if stop_at_equilibrium:
            for res in np.max(np.abs(g_rows(sol.y.T)), axis=1):
                quiet = quiet + 1 if res < EQUILIBRIUM_TOL else 0
                if quiet >= _QUIET_STEPS:
                    settled = True
                    break

        progress = sol.t[-1] - t
        t = sol.t[-1]
        y = _project_simplex(sol.y[:, -1])

        if sol.status == 1 and not settled and t < t_end:
            # landed on the threshold; hop strictly across before re-arming
            # the event, otherwise the restart re-fires at zero progress
            t, y = _hop_across(g_t, t, y, gamma, t_end)
            ts.append(np.array([t]))
            ys.append(y[None, :])
            # the switching surface is attracting: orbits spiral into the
            # centre with geometrically accumulating crossings and then
            # chatter-slide along theta = Gamma; once inter-event progress
            # stays far below any genuine half-cycle, stop the run there
            tiny_segments = tiny_segments + 1 if progress < 1e-3 else 0
            if tiny_segments >= 50 or n_segments >= 100_000:
                zeno = True
                break
        elif sol.status == 0:
            chunk = min(chunk * 2.0, 256.0)

    t_all = np.concatenate(ts)
    y_all = np.vstack(ys)
    endpoint = OdeState(theta=y[0], psi=y[1], eta=y[2], t=float(t))
    return OdePath(
        t=t_all,
        states=y_all,
        endpoint=endpoint,
        settled=settled,
        n_segments=n_segments,
        zeno_truncated=zeno,
    )


def _rk4_step(field, t, y, h):
    """One classical RK4 step of size h."""
    k1 = field(t, y)
    k2 = field(t + h / 2, y + h / 2 * k1)
    k3 = field(t + h / 2, y + h / 2 * k2)
    k4 = field(t + h, y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _hop_across(field, t, y, gamma, t_end, clearance: float = 1e-12):
    """RK4 micro-steps until theta is strictly clear of the threshold."""
    h = 1e-9 * max(1.0, abs(t))
    for _ in range(64):
        if abs(y[0] - gamma) > clearance or t >= t_end:
            return t, _project_simplex(y)
        h = min(h, t_end - t)
        y = _rk4_step(field, t, y, h)
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


def _fd_jacobian(g, y, rel_step: float = 1e-7) -> np.ndarray:
    """Finite-difference Jacobian of the field g, stepping only inside the admissible set.

    Central differences in the interior; second-order one-sided stencils
    against a simplex face, so boundary attractors get O(h^2) accuracy too.
    """
    n = len(y)
    jac = np.zeros((n, n))
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


def find_equilibrium(
    guess: OdeState,
    params: ModelParams,
    policy: Policy,
) -> EquilibriumResult:
    """Damped Newton on g, with a long-horizon integration fallback.

    Raises IndicatorNonstationary for a threshold-vigilant policy whose
    threshold is dynamically reachable (Gamma below the no-vaccination
    endemic level): the limit object there is a switching limit set around
    the threshold, not a zero of either one-sided field.
    """
    if policy.family is Family.VFC2:
        rho = derive_ratios(params).rho
        if rho > 1.0 and policy.gamma < 1.0 - 1.0 / rho:
            raise IndicatorNonstationary(
                "threshold policy with reachable Gamma has no fixed point"
            )

    g = field(params, policy)
    y = _project_simplex(guess.as_array())
    best_y = y
    best_res = float(np.max(np.abs(g(y))))

    for attempt in range(3):
        y, res = _newton(g, y)
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


def _newton(g, y):
    res_vec = g(y)
    res = float(np.max(np.abs(res_vec)))
    for _ in range(_MAX_NEWTON):
        if res < EQUILIBRIUM_TOL:
            break
        jac = _fd_jacobian(g, y)
        try:
            delta = np.linalg.solve(jac, -res_vec)
        except np.linalg.LinAlgError:
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
    return y, res


def write_path_csv(path: OdePath, file) -> None:
    """CSV export with header t,theta,psi,eta at 17 significant digits."""
    with open(file, "w") as fh:
        fh.write("t,theta,psi,eta\n")
        for t, row in zip(path.t, path.states):
            fh.write(f"{t:.17g},{row[0]:.17g},{row[1]:.17g},{row[2]:.17g}\n")
