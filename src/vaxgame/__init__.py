"""Epidemic-vaccination game engine.

Three mutually validating layers over one model:

  1. exact simulation of the population jump chain (:mod:`vaxgame.chain`),
  2. its mean-field ODE with integration, equilibrium finding and numeric
     stability certificates (:mod:`vaxgame.ode`, :mod:`vaxgame.attractor`),
  3. closed-form equilibrium catalogues per vaccination-response family and
     the evolutionary-stability classification of those responses against
     static mutants (:mod:`vaxgame.attractor`, :mod:`vaxgame.ess`).

:mod:`vaxgame.harness` orchestrates sweeps and cross-validation;
:mod:`vaxgame.cli` exposes the ``vaxgame`` command.
"""

__version__ = "0.1.0"

from . import errors
from .attractor import (
    Attractor,
    AttractorKind,
    StabilityCertificate,
    Vfc2Prediction,
    certify_stability,
    closed_form,
    coexistence_point,
    deadly_coexistence_exact,
    verify_attractor,
    vfc2_limit_set,
)
from .chain import (
    Event,
    EventDistribution,
    FractionState,
    PopState,
    Trajectory,
    count_crossings,
    estimate_limit,
    event_distribution,
    make_initial,
    one_step_drift,
    simulate,
    simulate_replications,
    step,
)
from .ess import (
    BestResponse,
    CostParams,
    DeadlyEsEquilibrium,
    EssVerdict,
    MutationReport,
    VerdictKind,
    classify_ess,
    deadly_es_equilibrium,
    h_m,
    h_value,
    mutation_stability,
    p_infection,
    static_best_response,
    utility,
)
from .harness import (
    Experiment,
    Layer,
    McSettings,
    OdeSettings,
    RunRecord,
    SweepSpec,
    cross_validate,
    run,
)
from .ode import (
    EquilibriumResult,
    OdePath,
    OdeState,
    find_equilibrium,
    integrate,
    rhs,
    varrho,
)
from .params import ModelParams, Ratios, derive_ratios, validate
from .policy import Family, Policy, accept_prob, fc, fr, mutant, propensity, static, vfc1, vfc2
