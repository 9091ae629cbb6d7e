"""Model parameters and their derived load ratios.

The epidemic/demographic rates live in :class:`ModelParams`.  Everything
downstream (jump chain, mean-field ODE, closed-form attractors) consumes
these rates only through the dimensionless ratios of :class:`Ratios`:

  rho    = lam / (r + b + d_e)        infection load factor
  mu     = b / nu                     births per vaccination opportunity
  rho_e  = (lam - d_e) / (r + b)      load factor net of excess deaths

``nu = 0`` (no vaccine available) is admitted and surfaces as ``mu = inf``,
which pushes every regime dispatch into its no-vaccination row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParams


@dataclass(frozen=True)
class ModelParams:
    """Epidemic and demographic rates (all per unit time).

    Attributes:
        lam:  contact/infection rate (> 0); each susceptible meets infected
              individuals at rate ``lam * I / N``.
        r:    recovery rate of an infected individual (>= 0); recovery
              returns the individual to the susceptible pool.
        nu:   vaccination decision/availability rate per susceptible (>= 0).
        b:    per-capita birth rate (> 0); births enter susceptible.
        d:    per-capita natural death rate (>= 0), all compartments.
        d_e:  excess death rate among infected (>= 0).
    """

    lam: float
    r: float
    nu: float
    b: float
    d: float
    d_e: float = 0.0

    def __post_init__(self) -> None:
        validate(self)


def validate(params: ModelParams) -> None:
    """Check every admissibility constraint; raise InvalidParams naming the first violation.

    The binding demographic constraint is ``b > d + d_e``: the population
    must grow on average, otherwise the per-epoch fractions have no
    nontrivial limit.
    """
    for name in ("lam", "r", "nu", "b", "d", "d_e"):
        value = getattr(params, name)
        if not math.isfinite(value):
            raise InvalidParams(f"{name} must be finite, got {value!r}")
        if value < 0:
            raise InvalidParams(f"{name} must be non-negative, got {value!r}")
    if params.lam <= 0:
        raise InvalidParams(f"lam must be positive, got {params.lam!r}")
    if params.b <= 0:
        raise InvalidParams(f"b must be positive, got {params.b!r}")
    if not params.b > params.d + params.d_e:
        raise InvalidParams(
            f"b > d + d_e required, got b={params.b!r}, d={params.d!r}, d_e={params.d_e!r}"
        )


@dataclass(frozen=True)
class Ratios:
    """Dimensionless load ratios derived from :class:`ModelParams`.

    ``mu`` is ``inf`` when ``nu = 0``.  :attr:`nvdf_level` is the one
    definition of the no-vaccination endemic level that every layer reads.
    """

    rho: float
    mu: float
    rho_e: float

    @property
    def nvdf_level(self) -> float:
        """theta of the no-vaccination endemic level (1 - 1/rho_e, 0), exact for d_e >= 0.

        Where d_e = 0 it is 1 - 1/rho bit for bit: lam - 0.0 and (r + b) + 0.0
        round to lam and r + b, so rho_e and rho are the same double.  It is
        positive exactly where rho > 1, up to rounding.
        """
        return 1.0 - 1.0 / self.rho_e


def derive_ratios(params: ModelParams) -> Ratios:
    """Compute (rho, mu, rho_e)."""
    rho = params.lam / (params.r + params.b + params.d_e)
    mu = params.b / params.nu if params.nu > 0 else math.inf
    rho_e = (params.lam - params.d_e) / (params.r + params.b)
    return Ratios(rho=rho, mu=mu, rho_e=rho_e)
