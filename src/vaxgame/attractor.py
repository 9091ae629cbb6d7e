"""Closed-form equilibrium catalogue and numeric stability certification.

For each vaccination family the mean-field ODE settles, depending on the
load ratios (rho, mu) and the behaviour parameter beta, onto one of a small
set of points:

  * the no-vaccination endemic level  (1 - 1/rho, 0)          [NVDF]
  * a vaccinated disease-free state   (0, psi_hat)
  * a mixed interior state with both infection and vaccination
  * the co-existence point (theta_E, psi_E) reached whenever the acceptance
    probability saturates at 1
  * the origin (0, 0) when the disease is self-eradicating.

Every dispatch condition below is the exact inequality that makes the
returned point a zero of the field with inward-pointing transverse drift;
parameters within relative tolerance of a dispatch boundary raise
MarginalRegime rather than silently picking a side.

With excess deaths (d_e > 0) the corresponding formulas are conjectural:
they solve the field exactly but their attractor status is certified
numerically, never assumed.  Deadly outputs are therefore flagged
``conjectured`` and re-verified against the field residual before being
returned.  Note the deadly no-vaccination level is 1 - 1/rho_e, and the
deadly interior uses 1/rho = (r+b+d_e)/lam inside theta*; both follow from
setting the field to zero.

Each returned point names its catalogue row in ``table_row`` (the
``regime_row`` column of the atlas), labelled ``<family>[-deadly]/<row>``.
The kind and clamp of each row are defined once, in ``_ROWS``; this table
documents it, with the families that reach each row:

  row                      kind           clamp  families
  nvdf                     BOUNDARY_NVDF  no     fc, fr, vfc1, fc-deadly, fr-deadly
  origin                   ORIGIN         no     fc, fr, vfc1, fc-deadly, fr-deadly
  disease-free             DISEASE_FREE   no     fc, fr, fc-deadly, fr-deadly
  disease-free-saturated   DISEASE_FREE   yes    fc, fr, fc-deadly, fr-deadly
  interior                 INTERIOR       no     fr, vfc1, fc-deadly, fr-deadly
  coexistence              INTERIOR       yes    fc, fr, vfc1, fc-deadly, fr-deadly

Every ``-deadly`` row is conjectured.  ``vfc1/interior`` is returned with
``proven=False`` when beta > 2*mu*rho^2, outside the proven regime.

Stability certification combines a finite-difference Jacobian (one-sided at
simplex faces) with sampling of a quadratic Lyapunov form V(x) =
(x-x_hat)' P (x-x_hat), P solving J'P + PJ = -I (with numpy, as the 9 x 9
linear system of its Kronecker form).  The derivative of plain
squared Euclidean distance is *not* a valid surrogate here: stable
coexistence points routinely have strongly non-normal Jacobians whose
distance-to-attractor grows transiently in a fat cone of directions.
The ball samples come from the C draw kernel of :mod:`vaxgame._native` when
it loads, else from a Python loop; both draw the same stream.  The field
and the propensity at the samples come from that kernel's row loops, else
from loops over the scalar field and the policy's closure; both give the
same bits.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import _native
from .errors import (
    ComplexRoot,
    DegenerateState,
    MarginalRegime,
    NoCoexistence,
    RegimeMismatch,
)
from .ode import OdeState, _fd_jacobian, field, field_rows, varrho
from .params import ModelParams, Ratios, derive_ratios
from .policy import Family, Policy, propensity_fn, threshold

#: Relative tolerance deciding that parameters sit on a regime boundary.
REGIME_TOL = 1e-9

#: Residual gate for re-verifying conjectural (deadly) rows.
CONJECTURE_RESIDUAL_TOL = 1e-8

#: Smallest ball radius the certificate's sampling retries at.
_MIN_RADIUS = 1e-6


class AttractorKind(Enum):
    BOUNDARY_NVDF = "nvdf"
    DISEASE_FREE = "disease-free"
    ORIGIN = "origin"
    INTERIOR = "interior"
    LIMIT_SET = "limit-set"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class Attractor:
    theta_hat: float
    psi_hat: float
    eta_hat: float
    kind: AttractorKind
    table_row: str
    clamp_active: bool
    conjectured: bool = False
    proven: bool = True  # False: returned formula lies outside the proven regime

    def point(self) -> tuple[float, float]:
        return (self.theta_hat, self.psi_hat)

    def ode_state(self) -> OdeState:
        return OdeState(self.theta_hat, self.psi_hat, self.eta_hat)


def _eta_at(theta: float, psi: float, params: ModelParams) -> float:
    return (params.b - params.d - params.d_e * theta) / varrho(theta, psi, params)


def _guard(value: float, pivot: float, what: str) -> None:
    """Raise MarginalRegime when ``value`` is within REGIME_TOL (relative) of ``pivot``."""
    if math.isinf(value) or math.isinf(pivot):
        near = value == pivot
    else:
        near = abs(value - pivot) <= REGIME_TOL * max(1.0, abs(value), abs(pivot))
    if near:
        raise MarginalRegime(f"{what}: {value!r} sits on the boundary {pivot!r}")


def coexistence_point(params: ModelParams) -> tuple[float, float]:
    """The saturated-acceptance equilibrium (1 - 1/rho - 1/(mu*rho), 1/(mu*rho)).

    Exists (theta_E > 0) iff mu*rho > mu + 1.  With nu = 0 the point
    degenerates continuously to the no-vaccination level (1 - 1/rho, 0).
    """
    ratios = derive_ratios(params)
    rho, mu = ratios.rho, ratios.mu
    if math.isinf(mu):
        if rho <= 1.0:
            raise NoCoexistence("rho <= 1 with no vaccination available")
        return (1.0 - 1.0 / rho, 0.0)
    if mu * rho <= mu + 1.0:
        raise NoCoexistence(
            f"mu*rho = {mu * rho!r} <= mu+1 = {mu + 1.0!r}: theta_E would not be positive"
        )
    psi_e = 1.0 / (mu * rho)
    theta_e = 1.0 - 1.0 / rho - psi_e
    return (theta_e, psi_e)


#: Kind and clamp of each catalogue row, shared by every family; the row
#: functions below return the row's name and nothing of its shape.
_ROWS = {
    "nvdf": (AttractorKind.BOUNDARY_NVDF, False),
    "origin": (AttractorKind.ORIGIN, False),
    "disease-free": (AttractorKind.DISEASE_FREE, False),
    "disease-free-saturated": (AttractorKind.DISEASE_FREE, True),
    "interior": (AttractorKind.INTERIOR, False),
    "coexistence": (AttractorKind.INTERIOR, True),
}


def _make(
    theta: float,
    psi: float,
    params: ModelParams,
    row: str,
    label: str,
    conjectured: bool,
    proven: bool,
) -> Attractor:
    """The point (theta, psi) of ``row``, labelled ``label``, shaped by :data:`_ROWS`."""
    if not (0.0 <= theta <= 1.0 and 0.0 <= psi <= 1.0 and theta + psi <= 1.0):
        raise RegimeMismatch(
            f"row {label!r} produced a point outside the simplex: ({theta!r}, {psi!r})"
        )
    kind, clamp = _ROWS[row]
    return Attractor(
        theta_hat=theta,
        psi_hat=psi,
        eta_hat=_eta_at(theta, psi, params),
        kind=kind,
        table_row=label,
        clamp_active=clamp,
        conjectured=conjectured,
        proven=proven,
    )


# --------------------------------------------------------------------------
# dispatch, non-deadly (d_e = 0)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Family:
    """What distinguishes FC's catalogue from FR's.

    ``disease_free`` maps (mu, beta) to the disease-free row's psi and the
    operands of its clamp test ``value < pivot``.
    """

    disease_free: Callable[[float, float], tuple[float, float, float]]
    mid_band: bool  # mu*rho <= beta < rho^2*mu has rows of its own


def _fr_disease_free(mu: float, beta: float) -> tuple[float, float, float]:
    return 1.0 - math.sqrt(mu / beta), math.sqrt(mu * beta) - mu, 1.0


_FAMILIES = {
    Family.FC: _Family(
        # acceptance at the candidate is beta - mu, tested as beta vs mu + 1
        disease_free=lambda mu, beta: (1.0 - mu / beta, beta, mu + 1.0),
        mid_band=False,
    ),
    Family.FR: _Family(disease_free=_fr_disease_free, mid_band=True),
}


def _row(spec: _Family, params, rho, mu, beta) -> tuple[float, float, str]:
    """Non-deadly (theta, psi, row) of an FC or FR policy under its family's entry."""
    if rho > 1.0:
        _guard(beta, mu * rho, "beta vs mu*rho")
        if beta < mu * rho:
            return 1.0 - 1.0 / rho, 0.0, "nvdf"
        if spec.mid_band:
            _guard(beta, rho * rho * mu, "beta vs rho^2*mu")
            if beta < rho * rho * mu:
                # candidate with infection and vaccination co-existing, clamp off
                q_int = mu * rho - (mu * rho) ** 2 / beta
                _guard(q_int, 1.0, "interior acceptance vs clamp")
                if q_int < 1.0:
                    return mu * rho / beta - 1.0 / rho, 1.0 - mu * rho / beta, "interior"
                return (*coexistence_point(params), "coexistence")
    else:
        _guard(beta, mu, "beta vs mu")
        if beta < mu:
            return 0.0, 0.0, "origin"
    psi, value, pivot = spec.disease_free(mu, beta)
    _guard(value, pivot, "disease-free acceptance vs clamp")
    if value < pivot:
        return 0.0, psi, "disease-free"
    _guard(mu * rho, mu + 1.0, "mu*rho vs mu+1")
    if mu * rho < mu + 1.0:
        return 0.0, 1.0 / (mu + 1.0), "disease-free-saturated"
    return (*coexistence_point(params), "coexistence")


def _vfc1_row(params, rho, mu, beta) -> tuple[float, float, str, bool]:
    """Non-deadly (theta, psi, row, proven) of a VFC1 policy."""
    if rho <= 1.0:
        # vigilance needs infection; the origin absorbs for every beta
        return 0.0, 0.0, "origin", True
    pivot = mu * rho * rho / (rho - 1.0)
    _guard(beta, pivot, "beta vs mu*rho^2/(rho-1)")
    if beta < pivot:
        return 1.0 - 1.0 / rho, 0.0, "nvdf", True
    q_int = mu * rho - mu - (mu * rho) ** 2 / beta
    _guard(q_int, 1.0, "interior acceptance vs clamp")
    if q_int < 1.0:
        proven = beta <= 2.0 * mu * rho * rho
        return mu * rho / beta, 1.0 - 1.0 / rho - mu * rho / beta, "interior", proven
    return (*coexistence_point(params), "coexistence", True)


# --------------------------------------------------------------------------
# dispatch, deadly (d_e > 0) -- conjectural, always residual-verified
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DeadlyQuadratic:
    """Coefficients of the deadly interior quadratic in x = 1 - psi."""

    a: float
    b: float
    c: float

    @classmethod
    def from_params(cls, params: ModelParams, beta_hat: float) -> "DeadlyQuadratic":
        a = params.d_e * beta_hat * params.nu
        b = -((params.r + params.b + params.d_e) * beta_hat * params.nu + params.d_e * params.lam)
        c = params.b * params.lam + params.d_e * (params.r + params.d_e)
        return cls(a=a, b=b, c=c)

    @property
    def discriminant(self) -> float:
        return self.b * self.b - 4.0 * self.a * self.c

    def roots(self) -> tuple[float, float]:
        disc = self.discriminant
        if disc < 0.0:
            raise ComplexRoot(f"discriminant {disc!r} < 0")
        s = math.sqrt(disc)
        return ((-self.b - s) / (2.0 * self.a), (-self.b + s) / (2.0 * self.a))


def deadly_coexistence_exact(params: ModelParams) -> tuple[float, float]:
    """Equilibrium with acceptance pinned at 1 and d_e > 0 (exact quadratic root)."""
    p = params
    if p.d_e <= 0.0:
        raise RegimeMismatch("requires d_e > 0")
    b_coef = p.lam * p.b + p.d_e * (p.r + p.d_e - p.lam - p.nu)
    # a square plus a product of non-negative rates: never negative
    disc = b_coef * b_coef + 4.0 * p.lam * p.d_e * p.nu * (p.r + p.b)
    psi = (-b_coef + math.sqrt(disc)) / (2.0 * p.lam * p.d_e)
    rho_e = derive_ratios(p).rho_e
    theta = 1.0 - 1.0 / rho_e - p.lam * psi / (p.lam - p.d_e)
    return (theta, psi)


def _nvdf_deadly_stable(params: ModelParams, ratios: Ratios, beta: float) -> float:
    """Signed margin: positive when the deadly no-vaccination level is stable.

    Transverse vaccination growth at (1 - 1/rho_e, 0) is governed by
    beta*nu - d_e vs rho_e*(b - d_e); the union of conditions
    'rho_e*mu_e > 1 or beta*nu < b - d_e', with mu_e = (b - d_e)/(beta*nu - d_e),
    collapses to this inequality.
    """
    return ratios.rho_e * (params.b - params.d_e) - (beta * params.nu - params.d_e)


def _deadly_fc_interior_point(
    params: ModelParams, ratios: Ratios, beta: float
) -> tuple[float, float]:
    p = params
    theta = (p.lam * p.b - beta * p.nu * (p.r + p.b + p.d_e)) / (
        p.d_e * (p.lam - beta * p.nu)
    )
    psi = 1.0 - theta * (1.0 - p.d_e / p.lam) - 1.0 / ratios.rho
    return theta, psi


def _deadly_fr_interior_point(
    params: ModelParams, ratios: Ratios, beta: float
) -> tuple[float, float]:
    quad = DeadlyQuadratic.from_params(params, beta)
    x_lo, x_hi = quad.roots()
    p = params
    for x in (x_lo, x_hi):
        psi = 1.0 - x
        theta = 1.0 - 1.0 / ratios.rho_e - p.lam * psi / (p.lam - p.d_e)
        if 0.0 < psi < 1.0 and 0.0 < theta and theta + psi < 1.0:
            return theta, psi
    raise RegimeMismatch("no admissible root of the deadly interior quadratic")


@dataclass(frozen=True)
class _DeadlyFamily(_Family):
    """A family's deadly catalogue: its :class:`_Family` entry and interior point.

    The interior row's clamp test reads the row policy's
    :func:`policy.propensity_fn`, which is bare and unchecked: an interior
    point off the simplex must reach ``_make`` and its RegimeMismatch, not
    the DomainError of :func:`policy.propensity`.
    """

    interior_point: Callable[[ModelParams, Ratios, float], tuple[float, float]]


_DEADLY_FAMILIES = {
    Family.FC: _DeadlyFamily(
        disease_free=lambda mu, beta: (1.0 - mu / beta, beta - mu, 1.0),
        mid_band=False,
        interior_point=_deadly_fc_interior_point,
    ),
    Family.FR: _DeadlyFamily(
        disease_free=_fr_disease_free,
        mid_band=True,
        interior_point=_deadly_fr_interior_point,
    ),
}


def _deadly_saturated(params, ratios) -> tuple[float, float, str]:
    """Pick between the saturated disease-free point and the deadly coexistence."""
    theta, psi = deadly_coexistence_exact(params)
    _guard(theta, 0.0, "deadly coexistence theta_E vs 0")
    if theta > 0.0:
        return theta, psi, "coexistence"
    mu = ratios.mu
    _guard(mu * ratios.rho, mu + 1.0, "mu*rho vs mu+1")
    return 0.0, 1.0 / (mu + 1.0), "disease-free-saturated"


def _deadly_interior_row(spec, params, ratios, policy) -> tuple[float, float, str]:
    theta, psi = spec.interior_point(params, ratios, policy.beta)
    q_tilde = propensity_fn(policy)(theta, psi)
    _guard(q_tilde, 1.0, "deadly interior acceptance vs clamp")
    if q_tilde < 1.0:
        return theta, psi, "interior"
    return _deadly_saturated(params, ratios)


def _deadly_row(spec, params, ratios, policy) -> tuple[float, float, str]:
    """Deadly (theta, psi, row) of the row policy under its family's entry."""
    rho, mu, beta = ratios.rho, ratios.mu, policy.beta
    if rho > 1.0:
        _guard(beta, mu * rho, "beta vs mu*rho")
        if beta < mu * rho:
            margin = _nvdf_deadly_stable(params, ratios, beta)
            _guard(margin, 0.0, "deadly nvdf transverse margin")
            if margin > 0.0:
                return 1.0 - 1.0 / ratios.rho_e, 0.0, "nvdf"
            return _deadly_interior_row(spec, params, ratios, policy)
        if spec.mid_band:
            _guard(beta, rho * rho * mu, "beta vs rho^2*mu")
            if beta < rho * rho * mu:
                return _deadly_interior_row(spec, params, ratios, policy)
    else:
        _guard(beta, mu, "beta vs mu")
        if beta < mu:
            return 0.0, 0.0, "origin"
    psi, value, pivot = spec.disease_free(mu, beta)
    _guard(value, pivot, "disease-free acceptance vs clamp")
    if value < pivot:
        return 0.0, psi, "disease-free"
    return _deadly_saturated(params, ratios)


# --------------------------------------------------------------------------
# public entry points
# --------------------------------------------------------------------------


def closed_form(params: ModelParams, policy: Policy) -> Attractor:
    """Dispatch (family, rho, mu, beta) onto the equilibrium catalogue.

    Raises MarginalRegime on any dispatch boundary and RegimeMismatch when a
    conjectured (deadly) formula fails its field re-verification.
    """
    ratios = derive_ratios(params)
    _guard(ratios.rho, 1.0, "rho vs 1")

    fam = policy.family
    if fam is Family.VFC2:
        raise RegimeMismatch(
            "threshold-vigilant policy has no point attractor catalogue; "
            "use vfc2_limit_set"
        )
    if fam not in (Family.FC, Family.FR, Family.VFC1):
        raise RegimeMismatch(f"no closed-form catalogue for family {fam}")
    deadly = params.d_e > 0.0
    proven = True
    if deadly:
        if fam not in _DEADLY_FAMILIES:
            raise RegimeMismatch("deadly catalogue covers FC and FR families only")
        theta, psi, row = _deadly_row(_DEADLY_FAMILIES[fam], params, ratios, policy)
    elif fam is Family.VFC1:
        theta, psi, row, proven = _vfc1_row(params, ratios.rho, ratios.mu, policy.beta)
    else:
        theta, psi, row = _row(_FAMILIES[fam], params, ratios.rho, ratios.mu, policy.beta)
    label = f"{fam.value.lower()}{'-deadly' if deadly else ''}/{row}"
    attr = _make(theta, psi, params, row, label, conjectured=deadly, proven=proven)
    if deadly:
        ok, detail = verify_attractor(attr, params, policy, tol=CONJECTURE_RESIDUAL_TOL)
        if not ok:
            raise RegimeMismatch(f"conjectured point failed field verification: {detail}")
    return attr


@dataclass(frozen=True)
class Vfc2Prediction:
    """Predicted oscillation centre of the threshold-vigilant limit set."""

    center_theta: float
    center_psi: float
    degenerate_fc: bool = False


def vfc2_limit_set(params: ModelParams, gamma: float) -> Vfc2Prediction:
    """Centre (Gamma, 1 - 1/rho - Gamma): the susceptible share pins at 1/rho.

    The band width around the centre is an observable of the simulation,
    not a prediction.  Gamma at or above the no-vaccination endemic level
    leaves the threshold unreachable.
    """
    ratios = derive_ratios(params)
    rho = ratios.rho
    if rho <= 1.0:
        raise RegimeMismatch("limit set requires an endemic load factor")
    nvdf = 1.0 - 1.0 / rho
    if gamma >= nvdf:
        raise RegimeMismatch(
            f"threshold {gamma!r} is unreachable: no-vaccination level is {nvdf!r}"
        )
    if gamma == 0.0:
        return Vfc2Prediction(center_theta=0.0, center_psi=nvdf, degenerate_fc=True)
    return Vfc2Prediction(center_theta=gamma, center_psi=nvdf - gamma)


# --------------------------------------------------------------------------
# verification and certification
# --------------------------------------------------------------------------


def verify_attractor(
    attr: Attractor,
    params: ModelParams,
    policy: Policy,
    tol: float = 1e-10,
) -> tuple[bool, str]:
    """Residual check of a tabulated point against the field.

    Interior components must vanish to ``tol``.  Components pinned at a
    simplex face must vanish identically with the transverse drift pointing
    inward (one-sided slope < 0).
    """
    y = np.array([attr.theta_hat, attr.psi_hat, attr.eta_hat])
    g = field(params, policy)
    g_hat = g(y)
    h = 1e-8
    msgs = []
    for idx, name in ((0, "theta"), (1, "psi")):
        if y[idx] > 0.0:
            if abs(g_hat[idx]) > tol:
                msgs.append(f"g_{name} = {g_hat[idx]:.3e} at interior component")
        else:
            if g_hat[idx] != 0.0 and abs(g_hat[idx]) > tol:
                msgs.append(f"g_{name} = {g_hat[idx]:.3e} on its zero face")
            probe = y.copy()
            probe[idx] = h
            slope = g(probe)[idx] / h
            if slope >= 0.0:
                msgs.append(f"transverse drift of {name} not inward: {slope:.3e}")
    if abs(g_hat[2]) > tol:
        msgs.append(f"g_eta = {g_hat[2]:.3e}")
    return (not msgs, "; ".join(msgs) if msgs else "ok")


@dataclass(frozen=True)
class StabilityCertificate:
    eigen_max_real: float
    lyapunov_pass_fraction: float
    euclidean_pass_fraction: float
    marginal: bool
    on_discontinuity: bool
    n_samples: int
    radius_used: float = 1e-3

    @property
    def lyapunov_sample_pass(self) -> bool:
        return self.lyapunov_pass_fraction >= 0.99

    @property
    def passed(self) -> bool:
        return (
            not self.marginal
            and self.eigen_max_real < -1e-8
            and self.lyapunov_sample_pass
        )


def certify_stability(
    attr: Attractor,
    params: ModelParams,
    policy: Policy,
    radius: float = 1e-3,
    n_samples: int = 1000,
    seed: int = 0,
) -> StabilityCertificate:
    """Numeric local-stability certificate at a point attractor.

    (a) eigenvalues of the finite-difference Jacobian (one-sided at faces);
    (b) sampling of the quadratic Lyapunov form from J'P + PJ = -I over a
    radius-``radius`` ball intersected with the simplex: the certificate
    passes when the form decreases along the field at >= 99% of samples.

    The Jacobian takes the scalar field; the samples are evaluated in one
    batch through :func:`vaxgame.ode.field_rows`, whose rows equal the
    scalar field bit for bit, and their side of q~ = 1 through
    :func:`_propensity_rows`, whose values equal
    :func:`vaxgame.policy.propensity_fn`'s, so the certificate is that of a
    loop over the samples.  Both rows run in the C kernel where it loads.
    A point whose Jacobian is not finite (a NaN ``eta_hat``, say) raises
    DegenerateState.

    Weakly contracting equilibria can leave the quadratic regime inside the
    initial ball (cubic terms of the field flip a thin cone of directions);
    the sampling then retries at a tenth of the radius, down to
    ``_MIN_RADIUS``.  An actually unstable point keeps failing at every
    radius because its escape cone is a property of the linearisation.
    Clamp boundaries or thresholds inside the ball mark the certificate
    one-sided (``on_discontinuity``).
    """
    if attr.kind is AttractorKind.LIMIT_SET:
        raise RegimeMismatch("limit sets carry no point certificate")
    x_hat = np.array([attr.theta_hat, attr.psi_hat, attr.eta_hat])

    jac = _fd_jacobian(field(params, policy), x_hat)
    if not np.all(np.isfinite(jac)):
        raise DegenerateState(f"non-finite Jacobian at {x_hat!r}")
    eigs = np.linalg.eigvals(jac)
    eig_max = float(np.max(eigs.real))
    marginal = abs(eig_max) <= 1e-8

    p_form = np.eye(3)
    if eig_max < 0.0:
        # P from jac' P + P jac = -I: with a = jac', the row-major
        # vec(a P + P a') is (kron(I, a) + kron(a, I)) vec(P), a 9 x 9 system
        # whose eigenvalues, the pairwise sums of jac's, have negative real parts here
        a, eye = jac.T, np.eye(3)
        try:
            system = np.kron(eye, a) + np.kron(a, eye)
            candidate = np.linalg.solve(system, -eye.ravel()).reshape(3, 3)
            candidate = 0.5 * (candidate + candidate.T)
            if np.all(np.linalg.eigvalsh(candidate) > 0.0):
                p_form = candidate
        except np.linalg.LinAlgError:
            pass  # no usable form: sample the Euclidean one

    g_rows = field_rows(params, policy)
    q_rows = _propensity_rows(params, policy)
    r = radius
    while True:
        result = _sample_lyapunov(attr, policy, g_rows, q_rows, x_hat, p_form, r, n_samples, seed)
        lyap_frac = result[0]
        if lyap_frac >= 0.99 or marginal or eig_max >= 0.0 or r <= _MIN_RADIUS * 10.0:
            break
        r /= 10.0
    lyap_frac, eucl_frac, on_disc, kept = result
    return StabilityCertificate(
        eigen_max_real=eig_max,
        lyapunov_pass_fraction=lyap_frac,
        euclidean_pass_fraction=eucl_frac,
        marginal=marginal,
        on_discontinuity=on_disc,
        n_samples=kept,
        radius_used=r,
    )


def _propensity_rows(params: ModelParams, policy: Policy) -> Callable[[np.ndarray], np.ndarray]:
    """(n, 3) states -> the propensity q~ at the (theta, psi) of each row.

    Each value equals :func:`vaxgame.policy.propensity_fn`'s.  The rows run
    through the response loop of the C kernel of :mod:`vaxgame._native`
    when that loads, else through that closure one row at a time.
    """
    lib = _native.library()
    if lib is None:
        q_tilde = propensity_fn(policy)
        return lambda xs: np.array([q_tilde(theta, psi) for theta, psi, _ in xs.tolist()])
    law = _native.make_law(params, policy)

    def native(xs: np.ndarray) -> np.ndarray:
        xs = _native.states(xs)
        out = np.empty(len(xs))
        lib.vaxgame_response_rows(ctypes.byref(law), len(xs), xs, math.inf, out)
        return out

    return native


def _draw_offsets(rng: np.random.Generator, attempts: int, radius: float) -> np.ndarray:
    """Offsets of ``attempts`` draws, uniform in the radius ball.

    Each attempt draws a normal direction and then a uniform radius, in that
    order; an all-zero direction draws no radius and yields no offset.  The
    draws come from the C kernel of :mod:`vaxgame._native` when it loads,
    else from :func:`_python_draws`; both leave the same offsets and the same
    generator state.
    """
    lib = _native.library()
    if lib is None:
        directions, squares, cube_roots = _python_draws(rng, attempts)
    else:
        directions = np.empty((attempts, 3))
        cube_roots = np.empty(attempts)
        bitgen = rng.bit_generator
        with bitgen.lock:
            kept = lib.vaxgame_draw(bitgen.ctypes.bit_generator, attempts, directions, cube_roots)
        directions, cube_roots = directions[:kept], cube_roots[:kept]
        # per row the same product as the Python loop's direction.dot(direction)
        squares = (directions[:, None, :] @ directions[:, :, None])[:, 0, 0]
    if not len(directions):
        return np.empty((0, 3))
    norms = np.sqrt(squares)[:, None]
    return directions / norms * radius * cube_roots[:, None]


def _python_draws(rng: np.random.Generator, attempts: int):
    """The attempt loop in Python: kept directions, their squares and cube roots."""
    directions, squares, cube_roots = [], [], []
    for _ in range(attempts):
        direction = rng.normal(size=3)
        square = direction.dot(direction)  # np.linalg.norm's own dot
        if square == 0.0:
            continue
        directions.append(direction)
        squares.append(square)
        cube_roots.append(rng.random() ** (1.0 / 3.0))
    return np.array(directions), np.array(squares), np.array(cube_roots)


def _sample_lyapunov(attr, policy, g_rows, q_rows, x_hat, p_form, radius, n_samples, seed):
    """Pass fractions of the Lyapunov and Euclidean forms over feasible ball samples.

    ``g_rows`` gives the field at the samples and ``q_rows`` the propensity
    for the side test q~ > 1.

    Samples are the first ``n_samples`` feasible points of the attempt
    sequence of :func:`_draw_offsets`, within ``50 * n_samples`` attempts.
    Attempts are drawn in rounds sized from the feasible share seen so far;
    draws past the last sample taken are discarded, so the samples do not
    depend on the round sizes.
    """
    rng = np.random.default_rng(seed)
    budget = 50 * n_samples
    chunks = []
    kept = attempts = 0
    while kept < n_samples and attempts < budget:
        missing = n_samples - kept
        batch = missing if kept == 0 else -(-missing * attempts // kept)
        batch = min(batch, budget - attempts)
        x = x_hat + _draw_offsets(rng, batch, radius)
        attempts += batch
        feasible = (
            (x[:, 0] >= 0.0) & (x[:, 1] >= 0.0) & (x[:, 0] + x[:, 1] <= 1.0) & (x[:, 2] > 0.0)
        )
        chunks.append(x[feasible][:missing])
        kept += len(chunks[-1])
    if kept == 0:
        raise RegimeMismatch("no feasible samples near the attractor")
    x = np.concatenate(chunks)
    z = x - x_hat
    gx = g_rows(x)
    # per row the same matrix-vector product and dot as z @ (p_form @ gx)
    lyap = (z[:, None, :] @ (p_form @ gx[:, :, None]))[:, 0, 0]
    eucl = (z[:, None, :] @ gx[:, :, None])[:, 0, 0]
    side = q_rows(x) > 1.0
    on_disc = bool(side.any() and not side.all())
    gamma = threshold(policy)
    if gamma is not None:
        on_disc |= bool(np.any((x[:, 0] > gamma) != (attr.theta_hat > gamma)))
    lyap_neg, eucl_neg = int(np.count_nonzero(lyap < 0.0)), int(np.count_nonzero(eucl < 0.0))
    return lyap_neg / kept, eucl_neg / kept, on_disc, kept
