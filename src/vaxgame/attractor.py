"""Closed-form equilibrium catalogue and numeric stability certification.

For each vaccination family the mean-field ODE settles, depending on the
load ratios (rho, mu) and the behaviour parameter beta, onto one of a small
set of points:

  * the no-vaccination endemic level  (1 - 1/rho_e, 0)  [NVDF]
  * a vaccinated disease-free state   (0, psi_hat)
  * a mixed interior state with both infection and vaccination
  * the co-existence point (theta_E, psi_E) reached whenever the acceptance
    probability saturates at 1
  * the origin (0, 0) when the disease is self-eradicating.

The no-vaccination level has one definition, :attr:`Ratios.nvdf_level`
(1 - 1/rho_e, which is 1 - 1/rho bit for bit at d_e = 0); every row, the
co-existence points, the VFC2 reachability test here and in
:func:`vaxgame.ode.find_equilibrium`, and :mod:`vaxgame.ess` read it.

Every dispatch condition below is the exact inequality that makes the
returned point a zero of the field with inward-pointing transverse drift;
parameters within relative tolerance of a dispatch boundary raise
MarginalRegime rather than silently picking a side.  That tolerance is
applied in one place, :func:`_near`, which ``_guard`` here and the ESS
verdict's Marginal cases read.  FC and FR, with and without excess deaths,
walk one guard sequence: ``_row`` over the table ``_CATALOGUE``, keyed by
(family, d_e > 0).  VFC1 has guards of its own.

With excess deaths (d_e > 0) the corresponding formulas are conjectural:
they solve the field exactly but their attractor status is certified
numerically, never assumed.  Deadly outputs are therefore flagged
``conjectured`` and re-verified against the field residual before being
returned.  The deadly interior uses 1/rho = (r+b+d_e)/lam inside theta*,
which follows from setting the field to zero.

The threshold-vigilant family (VFC2) has no point attractor: its limit
set circles the sliding-mode point on theta = Gamma, which
:func:`vfc2_limit_set` gives for every d_e >= 0.

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
simplex faces; :func:`vaxgame.ode.field_jacobian`, in the C kernel of
:mod:`vaxgame._native` where it loads) with sampling of a quadratic
Lyapunov form V(x) =
(x-x_hat)' P (x-x_hat), P solving J'P + PJ = -I (with numpy, as the 9 x 9
linear system of its Kronecker form).  The derivative of plain
squared Euclidean distance is *not* a valid surrogate here: stable
coexistence points routinely have strongly non-normal Jacobians whose
distance-to-attractor grows transiently in a fat cone of directions.
The ball samples are drawn in Python, one offset row per attempt (a row
of NaN, never feasible, where the direction is all zero), at 2.4-5 us an
attempt.  Every certificate reads one seed-0 stream per radius its retries
try, kept and extended on demand (:class:`_Draws`): at most three streams
of at most 50 * ``_N_SAMPLES`` attempts each, drawn once per process, so
the certificates after the first read the kept rows and draw nothing.
Each round of samples is counted in
one pass of the C kernel of :mod:`vaxgame._native` where it loads
(feasibility, the field, the signs of both forms and the side tests: five
counts), else in numpy by :func:`_numpy_tally`, the reference it is tested
against; both give the same counts.
"""

from __future__ import annotations

import ctypes
import math
import threading
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from . import _native
from .errors import (
    ComplexRoot,
    DegenerateState,
    MarginalRegime,
    NoCoexistence,
    RegimeMismatch,
)
from .ode import _VARRHO_NOT_POSITIVE, field, field_jacobian, field_rows, varrho
from .params import ModelParams, Ratios, derive_ratios
from .policy import Family, Policy, propensity_fn, threshold

#: Relative tolerance deciding that parameters sit on a regime boundary.
REGIME_TOL = 1e-9

#: Residual gate for re-verifying conjectural (deadly) rows.
CONJECTURE_RESIDUAL_TOL = 1e-8

#: The ball radius the certificate's sampling starts at, the feasible
#: samples it takes at each radius, and the smallest radius it retries at.
_RADIUS = 1e-3
_N_SAMPLES = 1000
_MIN_RADIUS = 1e-6

_EYE = np.eye(3)
_MINUS_VEC_EYE = -_EYE.ravel()


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


def _eta_at(theta: float, psi: float, params: ModelParams) -> float:
    return (params.b - params.d - params.d_e * theta) / varrho(theta, psi, params)


def _near(value: float, pivot: float) -> bool:
    """Whether ``value`` is within REGIME_TOL (relative) of ``pivot``: on a regime boundary."""
    if math.isinf(value) or math.isinf(pivot):
        return value == pivot
    return abs(value - pivot) <= REGIME_TOL * max(1.0, abs(value), abs(pivot))


def _guard(value: float, pivot: float, what: str) -> None:
    """Raise MarginalRegime when ``value`` is :func:`_near` ``pivot``."""
    if _near(value, pivot):
        raise MarginalRegime(f"{what}: {value!r} sits on the boundary {pivot!r}")


def nvdf_point(params: ModelParams) -> tuple[float, float]:
    """The no-vaccination endemic level (:attr:`Ratios.nvdf_level`, 0)."""
    ratios = derive_ratios(params)
    if ratios.rho <= 1.0:
        raise RegimeMismatch("no endemic level: rho <= 1")
    return (ratios.nvdf_level, 0.0)


def coexistence_point(params: ModelParams) -> tuple[float, float]:
    """The saturated-acceptance equilibrium (1 - 1/rho - 1/(mu*rho), 1/(mu*rho)), d_e = 0.

    Exists (theta_E > 0) iff mu*rho > mu + 1.  With nu = 0 the point
    degenerates continuously to the no-vaccination level (1 - 1/rho, 0).
    Raises RegimeMismatch where d_e > 0: the point is no zero of the field
    there, and :func:`deadly_coexistence_exact` takes its place.
    """
    if params.d_e > 0.0:
        raise RegimeMismatch("requires d_e = 0")
    ratios = derive_ratios(params)
    rho, mu = ratios.rho, ratios.mu
    if math.isinf(mu):
        if rho <= 1.0:
            raise NoCoexistence("rho <= 1 with no vaccination available")
        return (ratios.nvdf_level, 0.0)
    if mu * rho <= mu + 1.0:
        raise NoCoexistence(
            f"mu*rho = {mu * rho!r} <= mu+1 = {mu + 1.0!r}: theta_E would not be positive"
        )
    psi_e = 1.0 / (mu * rho)
    theta_e = ratios.nvdf_level - psi_e
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
# rows without excess deaths (d_e = 0)
# --------------------------------------------------------------------------


def _nvdf_row(params, ratios, policy) -> tuple[float, float, str]:
    return ratios.nvdf_level, 0.0, "nvdf"


def _fr_disease_free(mu: float, beta: float) -> tuple[float, float, float]:
    return 1.0 - math.sqrt(mu / beta), math.sqrt(mu * beta) - mu, 1.0


def _fr_band_row(params, ratios, policy) -> tuple[float, float, str]:
    """FR's candidate with infection and vaccination co-existing, clamp off."""
    rho, mu, beta = ratios.rho, ratios.mu, policy.beta
    q_int = mu * rho - (mu * rho) ** 2 / beta
    _guard(q_int, 1.0, "interior acceptance vs clamp")
    if q_int < 1.0:
        return mu * rho / beta - 1.0 / rho, 1.0 - mu * rho / beta, "interior"
    return (*coexistence_point(params), "coexistence")


def _saturated(params, ratios) -> tuple[float, float, str]:
    """Pick between the saturated disease-free point and the co-existence point."""
    rho, mu = ratios.rho, ratios.mu
    _guard(mu * rho, mu + 1.0, "mu*rho vs mu+1")
    if mu * rho < mu + 1.0:
        return 0.0, 1.0 / (mu + 1.0), "disease-free-saturated"
    return (*coexistence_point(params), "coexistence")


def _vfc1_row(params, ratios, beta) -> tuple[float, float, str, bool]:
    """Non-deadly (theta, psi, row, proven) of a VFC1 policy."""
    rho, mu = ratios.rho, ratios.mu
    if rho <= 1.0:
        # vigilance needs infection; the origin absorbs for every beta
        return 0.0, 0.0, "origin", True
    pivot = mu * rho * rho / (rho - 1.0)
    _guard(beta, pivot, "beta vs mu*rho^2/(rho-1)")
    level = ratios.nvdf_level
    if beta < pivot:
        return level, 0.0, "nvdf", True
    q_int = mu * rho - mu - (mu * rho) ** 2 / beta
    _guard(q_int, 1.0, "interior acceptance vs clamp")
    if q_int < 1.0:
        proven = beta <= 2.0 * mu * rho * rho
        return mu * rho / beta, level - mu * rho / beta, "interior", proven
    return (*coexistence_point(params), "coexistence", True)


# --------------------------------------------------------------------------
# rows with excess deaths (d_e > 0) -- conjectural, always residual-verified
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
    theta = derive_ratios(p).nvdf_level - p.lam * psi / (p.lam - p.d_e)
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
        theta = ratios.nvdf_level - p.lam * psi / (p.lam - p.d_e)
        if 0.0 < psi < 1.0 and 0.0 < theta and theta + psi < 1.0:
            return theta, psi
    raise RegimeMismatch("no admissible root of the deadly interior quadratic")


def _deadly_saturated(params, ratios) -> tuple[float, float, str]:
    """Pick between the saturated disease-free point and the deadly coexistence."""
    theta, psi = deadly_coexistence_exact(params)
    _guard(theta, 0.0, "deadly coexistence theta_E vs 0")
    if theta > 0.0:
        return theta, psi, "coexistence"
    mu = ratios.mu
    _guard(mu * ratios.rho, mu + 1.0, "mu*rho vs mu+1")
    return 0.0, 1.0 / (mu + 1.0), "disease-free-saturated"


def _deadly_interior_row(interior_point, params, ratios, policy) -> tuple[float, float, str]:
    """The deadly interior point, or the saturated row past its clamp.

    The clamp test reads the bare :func:`policy.propensity_fn`: a point off the
    simplex must reach ``_make``'s RegimeMismatch, not a DomainError.
    """
    theta, psi = interior_point(params, ratios, policy.beta)
    q_tilde = propensity_fn(policy)(theta, psi)
    _guard(q_tilde, 1.0, "deadly interior acceptance vs clamp")
    if q_tilde < 1.0:
        return theta, psi, "interior"
    return _deadly_saturated(params, ratios)


def _deadly_endemic_row(interior_point, params, ratios, policy) -> tuple[float, float, str]:
    """The deadly no-vaccination level where it is stable, else the interior row."""
    margin = _nvdf_deadly_stable(params, ratios, policy.beta)
    _guard(margin, 0.0, "deadly nvdf transverse margin")
    if margin > 0.0:
        return _nvdf_row(params, ratios, policy)
    return _deadly_interior_row(interior_point, params, ratios, policy)


# --------------------------------------------------------------------------
# dispatch and public entry points
# --------------------------------------------------------------------------


#: (disease_free, endemic, band, saturated) of each (family, d_e > 0), walked by
#: :func:`_row`.  ``disease_free`` maps (mu, beta) to the disease-free row's psi
#: and the operands of its clamp test ``value < pivot``; the rows give (theta,
#: psi, row) below beta = mu*rho, in mu*rho <= beta < rho^2*mu (None: no rows
#: of its own) and past the disease-free clamp.
_CATALOGUE = {
    # FC's acceptance at its disease-free candidate is beta - mu, tested as beta vs mu + 1
    (Family.FC, False): (
        lambda mu, beta: (1.0 - mu / beta, beta, mu + 1.0), _nvdf_row, None, _saturated
    ),
    (Family.FR, False): (_fr_disease_free, _nvdf_row, _fr_band_row, _saturated),
    (Family.FC, True): (
        lambda mu, beta: (1.0 - mu / beta, beta - mu, 1.0),
        partial(_deadly_endemic_row, _deadly_fc_interior_point), None, _deadly_saturated,
    ),
    (Family.FR, True): (
        _fr_disease_free, partial(_deadly_endemic_row, _deadly_fr_interior_point),
        partial(_deadly_interior_row, _deadly_fr_interior_point), _deadly_saturated,
    ),
}


def _row(entry, params, ratios, policy) -> tuple[float, float, str]:
    """(theta, psi, row) of an FC or FR policy under its :data:`_CATALOGUE` entry."""
    disease_free, endemic, band, saturated = entry
    rho, mu, beta = ratios.rho, ratios.mu, policy.beta
    if rho > 1.0:
        _guard(beta, mu * rho, "beta vs mu*rho")
        if beta < mu * rho:
            return endemic(params, ratios, policy)
        if band is not None:
            _guard(beta, rho * rho * mu, "beta vs rho^2*mu")
            if beta < rho * rho * mu:
                return band(params, ratios, policy)
    else:
        _guard(beta, mu, "beta vs mu")
        if beta < mu:
            return 0.0, 0.0, "origin"
    psi, value, pivot = disease_free(mu, beta)
    _guard(value, pivot, "disease-free acceptance vs clamp")
    if value < pivot:
        return 0.0, psi, "disease-free"
    return saturated(params, ratios)


def closed_form(params: ModelParams, policy: Policy) -> Attractor:
    """Dispatch (family, rho, mu, beta) onto the equilibrium catalogue.

    Raises MarginalRegime on any dispatch boundary, RegimeMismatch when a
    conjectured (deadly) formula fails its field re-verification, and
    DegenerateState where its arithmetic divides by zero or overflows.
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
    if fam is Family.VFC1 and deadly:
        raise RegimeMismatch("deadly catalogue covers FC and FR families only")
    proven = True
    try:  # admissible rates at the ends of the double range can divide by 0 or overflow
        if fam is Family.VFC1:
            theta, psi, row, proven = _vfc1_row(params, ratios, policy.beta)
        else:
            theta, psi, row = _row(_CATALOGUE[fam, deadly], params, ratios, policy)
        label = f"{fam.value.lower()}{'-deadly' if deadly else ''}/{row}"
        attr = _make(theta, psi, params, row, label, conjectured=deadly, proven=proven)
        if deadly:
            ok, detail = verify_attractor(attr, params, policy, tol=CONJECTURE_RESIDUAL_TOL)
            if not ok:
                raise RegimeMismatch(f"conjectured point failed field verification: {detail}")
    except (ZeroDivisionError, OverflowError) as exc:
        raise DegenerateState(f"closed form left the double range: {exc}") from exc
    return attr


@dataclass(frozen=True)
class Vfc2Prediction:
    """Predicted oscillation centre of the threshold-vigilant limit set.

    The centre is the sliding-mode point on theta = Gamma (see
    :func:`vfc2_limit_set`); ``degenerate_fc`` marks Gamma = 0.
    """

    center_theta: float
    center_psi: float
    degenerate_fc: bool = False


def vfc2_limit_set(params: ModelParams, gamma: float) -> Vfc2Prediction:
    """Centre (Gamma, psi) of the threshold-vigilant limit set, exact for d_e >= 0.

    The orbit slides along theta = Gamma (Filippov's sliding mode), where
    g_theta of :mod:`vaxgame.ode` vanishes: phi*lam - r - d_e - (b - d_e*Gamma)
    = 0 gives the susceptible share phi = (r + b + d_e*(1 - Gamma))/lam, so

        psi = 1 - Gamma - phi = 1 - 1/rho - Gamma + d_e*Gamma/lam.

    Both VFC2 variants share that sliding condition and so the centre.  At
    d_e = 0 the last term is +0.0 and psi is 1 - 1/rho - Gamma bit for bit.
    Up to rounding, psi > 0 exactly when Gamma < :attr:`Ratios.nvdf_level`,
    the no-vaccination endemic level: a threshold is reachable where rho > 1
    and Gamma is below that level, the rule
    :func:`vaxgame.ode.find_equilibrium` reads too, and RegimeMismatch is
    raised elsewhere.  The band width around the centre is an observable of
    the simulation, not a prediction.
    """
    ratios = derive_ratios(params)
    if ratios.rho <= 1.0:
        raise RegimeMismatch("limit set requires an endemic load factor")
    if gamma >= ratios.nvdf_level:
        raise RegimeMismatch(
            f"threshold {gamma!r} is unreachable: no-vaccination level is {ratios.nvdf_level!r}"
        )
    psi = 1.0 - 1.0 / ratios.rho - gamma + params.d_e * gamma / params.lam
    return Vfc2Prediction(center_theta=gamma, center_psi=psi, degenerate_fc=gamma == 0.0)


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
    attr: Attractor, params: ModelParams, policy: Policy
) -> StabilityCertificate:
    """Numeric local-stability certificate at a point attractor.

    (a) eigenvalues of the finite-difference Jacobian (one-sided at faces);
    (b) sampling of the quadratic Lyapunov form from J'P + PJ = -I at
    ``_N_SAMPLES`` points of a radius-``_RADIUS`` ball intersected with the
    simplex: the certificate passes when the form decreases along the field
    at >= 99% of samples.

    The Jacobian takes the scalar field.  The samples are counted round by
    round in one pass of the C kernel where it loads, else by
    :func:`_numpy_tally` over :func:`vaxgame.ode.field_rows` and
    :func:`vaxgame.policy.propensity_fn`; both count as a loop over the
    samples does (:func:`_sample_lyapunov`).  A point whose Jacobian is not
    finite (a NaN ``eta_hat``, say) raises DegenerateState.

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

    jac = field_jacobian(params, policy, x_hat)
    if not np.all(np.isfinite(jac)):
        raise DegenerateState(f"non-finite Jacobian at {x_hat!r}")
    eigs = np.linalg.eigvals(jac)
    eig_max = float(np.max(eigs.real))
    marginal = abs(eig_max) <= 1e-8

    p_form = _EYE
    if eig_max < 0.0:
        # P from jac' P + P jac = -I: with a = jac', the row-major
        # vec(a P + P a') is (kron(I, a) + kron(a, I)) vec(P), a 9 x 9 system
        # whose eigenvalues, the pairwise sums of jac's, have negative real parts here
        try:
            candidate = np.linalg.solve(_kronecker_system(jac.T), _MINUS_VEC_EYE).reshape(3, 3)
            candidate = 0.5 * (candidate + candidate.T)
            if np.all(np.linalg.eigvalsh(candidate) > 0.0):
                p_form = candidate
        except np.linalg.LinAlgError:
            pass  # no usable form: sample the Euclidean one

    r = _RADIUS
    while True:
        result = _sample_lyapunov(params, policy, x_hat, p_form, r, _N_SAMPLES)
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


def _kronecker_system(a: np.ndarray) -> np.ndarray:
    """``np.kron(I, a) + np.kron(a, I)`` for a 3 x 3 a, bit for bit.

    Entry (3i + k, 3j + l) is I[i, j] * a[k, l] + a[i, j] * I[k, l]: the
    products np.kron forms against the identity's 1.0 and 0.0 entries
    (0.0 * a[k, l] is -0.0 where a[k, l] < 0), summed as there.
    """
    return (_EYE[:, None, :, None] * a[None, :, None, :]
            + a[:, None, :, None] * _EYE[None, :, None, :]).reshape(9, 9)


def _draw_offsets(rng: np.random.Generator, attempts: int, radius: float) -> np.ndarray:
    """Offsets of ``attempts`` draws, uniform in the radius ball.

    Each attempt draws a normal direction and then a uniform radius, in that
    order, and gives one row; an all-zero direction draws no radius and
    gives a row of NaN, which no sample is taken from.
    """
    directions = np.full((attempts, 3), np.nan)
    squares = np.full(attempts, np.nan)
    cube_roots = np.full(attempts, np.nan)
    for a in range(attempts):
        direction = rng.normal(size=3)
        square = direction.dot(direction)  # np.linalg.norm's own dot
        if square != 0.0:
            directions[a], squares[a] = direction, square
            cube_roots[a] = rng.random() ** (1.0 / 3.0)
    return directions / np.sqrt(squares)[:, None] * radius * cube_roots[:, None]


class _Draws:
    """The offsets of the seed-0 attempt stream of :func:`_draw_offsets` at ``radius``.

    Attempts are drawn on demand and kept, one offset row each.  A lock
    keeps the drawing of one stream to one thread at a time.
    """

    def __init__(self, radius: float):
        self.rng = np.random.default_rng(0)
        self.radius = radius
        self.offsets = np.empty((0, 3))
        self.lock = threading.Lock()

    def between(self, start: int, stop: int) -> np.ndarray:
        """The offsets of attempts ``start`` to ``stop`` - 1."""
        with self.lock:
            if stop > len(self.offsets):
                more = _draw_offsets(self.rng, stop - len(self.offsets), self.radius)
                self.offsets = np.concatenate([self.offsets, more])
            return self.offsets[start:stop]


#: The kept stream of each radius the certificates have tried.
_draws: dict[float, _Draws] = {}


def _sample_lyapunov(params, policy, x_hat, p_form, radius, n_samples):
    """Pass fractions of the form ``p_form`` and the Euclidean one over feasible ball samples.

    Samples are the first ``n_samples`` feasible points of the attempt
    sequence of :func:`_draw_offsets`, within ``50 * n_samples`` attempts.
    Attempts are taken in rounds sized from the feasible share seen so far,
    attempt a being row a of the offsets; draws past the last sample taken
    are not used, so the samples do not depend on the round sizes.  The
    draws of a radius are kept across calls (``_draws``); ``setdefault``
    keeps one stream per radius where threads race, and a stream that
    loses has drawn nothing.  The five counts of each round
    (:func:`_tally`) are summed.
    """
    tally = _tally(params, policy, x_hat, p_form)
    budget = 50 * n_samples
    draws = _draws.get(radius) or _draws.setdefault(radius, _Draws(radius))
    counts = [0] * 5
    attempts = 0
    while counts[0] < n_samples and attempts < budget:
        kept = counts[0]
        missing = n_samples - kept
        batch = missing if kept == 0 else -(-missing * attempts // kept)
        batch = min(batch, budget - attempts)
        round_counts = tally(draws.between(attempts, attempts + batch), missing)
        counts = [int(a + b) for a, b in zip(counts, round_counts)]
        attempts += batch
    kept, lyap_neg, eucl_neg, side, crossed = counts
    if kept == 0:
        raise RegimeMismatch("no feasible samples near the attractor")
    return lyap_neg / kept, eucl_neg / kept, 0 < side < kept or crossed > 0, kept


def _tally(params, policy, x_hat, p_form):
    """(offsets, missing) -> the counts of one round: the first ``missing``
    feasible samples x = x_hat + offset kept (a NaN offset is not feasible),
    and the kept x with z.(P g) < 0 and with z.g < 0 (z = x - x_hat, g the
    field at x), with the propensity q~ > 1 and with theta across the
    threshold from x_hat.

    One pass of the C kernel of :mod:`vaxgame._native` where that loads,
    else :func:`_numpy_tally`.  Raises DegenerateState where varrho is not
    positive at a kept x, and ValueError for shapes the kernel would read past.
    """
    x_hat = np.asarray(x_hat, float)
    p_form = np.asarray(p_form, float)
    if x_hat.shape != (3,) or p_form.shape != (3, 3):
        raise ValueError(f"expected x_hat (3,), p_form (3, 3), got {x_hat.shape}, {p_form.shape}")
    lib = _native.library()
    if lib is None:
        return _numpy_tally(params, policy, x_hat, p_form)
    law = _native.make_law(params, policy)
    gamma = threshold(policy)
    sample = _native.Sample(
        x_hat=tuple(x_hat.tolist()),
        p_form=tuple(p_form.ravel().tolist()),
        gamma=math.nan if gamma is None else gamma,  # theta > NaN never holds
    )

    def native(offsets: np.ndarray, missing: int) -> list:
        offsets = np.ascontiguousarray(offsets, float)
        if offsets.ndim != 2 or offsets.shape[1] != 3:  # the kernel would read past them
            raise ValueError(f"expected (n, 3) states, got shape {offsets.shape}")
        if lib.vaxgame_certify(ctypes.byref(sample), ctypes.byref(law), offsets.ctypes.data,
                               len(offsets), missing):
            raise DegenerateState(_VARRHO_NOT_POSITIVE)
        return sample.counts[:]

    return native


def _numpy_tally(params, policy, x_hat, p_form):
    """:func:`_tally` in numpy: the reference for the C kernel's ``vaxgame_certify``."""
    g_rows = field_rows(params, policy)
    q_tilde = propensity_fn(policy)
    gamma = threshold(policy)

    def tally(offsets: np.ndarray, missing: int) -> list:
        # silent where x is not finite, as the C pass is: such an x is not feasible
        with np.errstate(over="ignore", invalid="ignore"):
            x = x_hat + offsets
            feasible = (
                (x[:, 0] >= 0.0) & (x[:, 1] >= 0.0) & (x[:, 0] + x[:, 1] <= 1.0) & (x[:, 2] > 0.0)
            )
        x = x[np.flatnonzero(feasible)[:missing]]
        z, g = (x - x_hat).T, g_rows(x).T
        # each sum elementwise in index order, as the C pass forms it, not by a BLAS
        pg = [p_form[j, 0] * g[0] + p_form[j, 1] * g[1] + p_form[j, 2] * g[2] for j in range(3)]
        lyap = z[0] * pg[0] + z[1] * pg[1] + z[2] * pg[2]
        eucl = z[0] * g[0] + z[1] * g[1] + z[2] * g[2]
        side = [q_tilde(theta, psi) > 1.0 for theta, psi, _ in x.tolist()]
        crossed = 0 if gamma is None else (x[:, 0] > gamma) != (x_hat[0] > gamma)
        return [
            len(x), np.count_nonzero(lyap < 0.0), np.count_nonzero(eucl < 0.0),
            sum(side), np.count_nonzero(crossed),
        ]

    return tally
