"""Vaccination-response families.

A policy maps the observable fractions (theta = infected share, psi =
vaccinated share) to the probability that a susceptible accepts vaccination
at a decision epoch:

  FC      q~ = beta * psi                    follow the crowd
  FR      q~ = beta * psi * (1 - psi)        free riding beyond a crowd size
  VFC1    q~ = beta * theta * psi            vigilant follow-the-crowd
  VFC2    q~ = beta * psi * 1{theta > Gamma} threshold-vigilant
  STATIC  q~ = q                             state-independent
  MUTANT  epsilon-mixture of a base policy with a static probability

The acceptance probability is the clamp ``q = min(1, q~)``.  For MUTANT the
mixture is taken at the probability level, i.e. the base propensity is
clamped *before* mixing: ``q = (1-eps) * min(1, q~_base) + eps * p``.  Mixing
first and clamping after would give a different (smaller) mutant response
whenever the base propensity exceeds 1.

VFC2 exposes a variant with propensity ``beta * theta * 1{theta > Gamma}``
behind ``theta_variant=True``; the psi-coupled form is the default because
it is the one whose on/off vaccination cycling we reproduce.  The indicator
is strict: at ``theta == Gamma`` it evaluates false.

The formulas above are written out once, in the family table
``_RESPONSE``.  It builds two bare, unchecked (theta, psi) closures per
policy: :func:`propensity_fn` (q~; a mutant mixes its unclamped base), read
by the deadly catalogue and the certificates in :mod:`vaxgame.attractor`,
and :func:`accept_fn` (q; a mutant mixes its clamped base), read by the
chain's hot loop and by the mean-field field :func:`vaxgame.ode.field`.
:func:`propensity` and :func:`accept_prob` first check theta, psi in [0, 1].
:func:`threshold` gives the Gamma at which a response jumps, for the
integrator's threshold event and the certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .errors import DomainError

#: Inputs this far outside [0, 1] raise DomainError; closer ones are clamped
#: (adaptive integrators legitimately wander by rounding error).
_EDGE_TOL = 1e-9


class Family(Enum):
    FC = "FC"
    FR = "FR"
    VFC1 = "VFC1"
    VFC2 = "VFC2"
    STATIC = "STATIC"
    MUTANT = "MUTANT"


@dataclass(frozen=True)
class Policy:
    family: Family
    beta: float = 0.0
    gamma: float = 0.0
    static_q: float = 0.0
    mutant_base: Optional["Policy"] = None
    mutant_p: float = 0.0
    mutant_eps: float = 0.0
    theta_variant: bool = False  # VFC2 only: propensity beta*theta instead of beta*psi

    def __post_init__(self) -> None:
        if not math.isfinite(self.beta):
            raise DomainError(f"beta must be finite, got {self.beta!r}")
        if self.beta < 0:
            raise DomainError(f"beta must be non-negative, got {self.beta!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise DomainError(f"gamma must lie in [0, 1], got {self.gamma!r}")
        if not 0.0 <= self.static_q <= 1.0:
            raise DomainError(f"static q must lie in [0, 1], got {self.static_q!r}")
        if not 0.0 <= self.mutant_eps <= 1.0:
            raise DomainError(f"eps must lie in [0, 1], got {self.mutant_eps!r}")
        if not 0.0 <= self.mutant_p <= 1.0:
            raise DomainError(f"p must lie in [0, 1], got {self.mutant_p!r}")
        if self.family is Family.MUTANT:
            if self.mutant_base is None:
                raise DomainError("MUTANT requires a base policy")
            if self.mutant_base.family is Family.MUTANT:
                raise DomainError("mutants of mutants are not allowed")

    def describe(self) -> str:
        if self.family is Family.STATIC:
            return f"STATIC(q={self.static_q:g})"
        if self.family is Family.MUTANT:
            assert self.mutant_base is not None
            return (
                f"MUTANT(base={self.mutant_base.describe()}, "
                f"p={self.mutant_p:g}, eps={self.mutant_eps:g})"
            )
        if self.family is Family.VFC2:
            return f"VFC2(beta={self.beta:g}, gamma={self.gamma:g})"
        return f"{self.family.value}(beta={self.beta:g})"


def fc(beta: float) -> Policy:
    return Policy(Family.FC, beta=beta)


def fr(beta: float) -> Policy:
    return Policy(Family.FR, beta=beta)


def vfc1(beta: float) -> Policy:
    return Policy(Family.VFC1, beta=beta)


def vfc2(beta: float, gamma: float, theta_variant: bool = False) -> Policy:
    return Policy(Family.VFC2, beta=beta, gamma=gamma, theta_variant=theta_variant)


def static(q: float) -> Policy:
    return Policy(Family.STATIC, static_q=q)


def mutant(base: Policy, p: float, eps: float) -> Policy:
    return Policy(Family.MUTANT, mutant_base=base, mutant_p=p, mutant_eps=eps)


def threshold(policy: Policy) -> Optional[float]:
    """Gamma of a threshold-vigilant response, VFC2 or a mutant over one, else None.

    Where it is not None the response can jump at theta = Gamma.
    """
    base = policy.mutant_base if policy.family is Family.MUTANT else policy
    return base.gamma if base.family is Family.VFC2 else None


def _check_fraction(value: float, name: str) -> float:
    if value < -_EDGE_TOL or value > 1.0 + _EDGE_TOL:
        raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
    return min(1.0, max(0.0, value))


Response = Callable[[float, float], float]

#: The one definition of each family's response, capped at ``cap``: 1 gives
#: the acceptance probability q = min(1, q~), inf the propensity q~ itself.
_RESPONSE = {
    Family.FC: lambda beta, gamma, q, cap: lambda theta, psi: min(cap, beta * psi),
    Family.FR: lambda beta, gamma, q, cap: lambda theta, psi: min(cap, beta * psi * (1.0 - psi)),
    Family.VFC1: lambda beta, gamma, q, cap: lambda theta, psi: min(cap, beta * theta * psi),
    Family.VFC2: lambda beta, gamma, q, cap: (
        lambda theta, psi: min(cap, beta * psi) if theta > gamma else 0.0
    ),
    # VFC2 with theta_variant: theta drives the response instead of psi
    "VFC2-theta": lambda beta, gamma, q, cap: (
        lambda theta, psi: min(cap, beta * theta) if theta > gamma else 0.0
    ),
    Family.STATIC: lambda beta, gamma, q, cap: lambda theta, psi: q,  # q lies in [0, 1]
}


def _response_key(policy: Policy):
    """The ``_RESPONSE`` key of a non-mutant policy."""
    theta_driven = policy.family is Family.VFC2 and policy.theta_variant
    return "VFC2-theta" if theta_driven else policy.family


def _resolve(policy: Policy, cap: float) -> Response:
    if policy.family is Family.MUTANT:
        base = _resolve(policy.mutant_base, cap)
        eps, p = policy.mutant_eps, policy.mutant_p
        return lambda theta, psi: (1.0 - eps) * base(theta, psi) + eps * p
    formula = _RESPONSE[_response_key(policy)]
    return formula(policy.beta, policy.gamma, policy.static_q, cap)


def propensity_fn(policy: Policy) -> Response:
    """Bare, unchecked (theta, psi) -> q~; MUTANT mixes the unclamped base."""
    return _resolve(policy, math.inf)


def accept_fn(policy: Policy) -> Response:
    """Bare, unchecked (theta, psi) -> q = min(1, q~); MUTANT mixes the clamped base."""
    return _resolve(policy, 1.0)


def propensity(policy: Policy, theta: float, psi: float) -> float:
    """Unclamped propensity q~(theta, psi) >= 0 at checked fractions."""
    return propensity_fn(policy)(_check_fraction(theta, "theta"), _check_fraction(psi, "psi"))


def accept_prob(policy: Policy, theta: float, psi: float) -> float:
    """Acceptance probability q = min(1, q~) at checked fractions."""
    return accept_fn(policy)(_check_fraction(theta, "theta"), _check_fraction(psi, "psi"))
