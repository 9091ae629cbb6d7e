"""Threshold-vigilant agents never settle: vaccination toggles forever.

Agents who only vaccinate while the infected share exceeds a threshold
drive the system around (Gamma, 1 - 1/rho - Gamma) instead of onto a
point.  That centre is a two-fold point of the switching surface
theta = Gamma: the mean-field orbit crosses the surface, never slides along
it, and spirals into the centre through a burst of threshold crossings (the
integrator reports the accumulation and stops);
the stochastic population keeps oscillating around it indefinitely.
"""

import numpy as np

from vaxgame import (
    ModelParams,
    OdeState,
    count_crossings,
    integrate,
    make_initial,
    simulate,
    vfc2,
    vfc2_limit_set,
)

PARAMS = ModelParams(lam=4.0, r=1.0, nu=2.0, b=1.0, d=0.8)
GAMMA = 0.2
POLICY = vfc2(beta=6.0, gamma=GAMMA)


def main() -> None:
    pred = vfc2_limit_set(PARAMS, GAMMA)
    print(f"predicted centre: ({pred.center_theta}, {pred.center_psi})")

    path = integrate(
        OdeState(0.25, 0.1, 0.1), PARAMS, POLICY,
        horizon=30.0, rtol=1e-9, atol=1e-11, stop_at_equilibrium=False,
    )
    crossings = count_crossings(path.states[:, 0], GAMMA)
    print(
        f"mean field: {crossings} crossings before the two-fold centre, "
        f"truncated at t = {path.endpoint.t:.2f} "
        f"(zeno = {path.zeno_truncated}), endpoint "
        f"({path.endpoint.theta:.4f}, {path.endpoint.psi:.4f})"
    )

    traj = simulate(
        make_initial(40000, 0.25, 0.1), PARAMS, POLICY,
        max_steps=4_000_000, stride=1000, rng=7,
    )
    tail = traj.theta[-int(len(traj) * 0.9):]
    print(
        f"jump chain: {count_crossings(tail, GAMMA)} crossings in the tail, "
        f"infected share averages {tail.mean():.4f} (sd {tail.std():.4f}) "
        f"around Gamma = {GAMMA}"
    )
    psi_tail = traj.psi[-int(len(traj) * 0.9):]
    print(f"            vaccinated share averages {psi_tail.mean():.4f} "
          f"(centre {pred.center_psi})")


if __name__ == "__main__":
    main()
