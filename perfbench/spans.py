"""In-memory spans around the public calls into each vaxgame layer.

Every wrapper is installed on the module attribute its caller resolves at
call time: ``harness`` binds ``closed_form``, ``vfc2_limit_set``,
``certify_stability`` and ``classify_ess`` by name, ``ess`` binds
``find_equilibrium`` by name and ``cli`` binds ``run`` and
``load_experiment`` by name, while ``harness`` reaches ``chain`` and ``ode``
through the module objects.  Nothing inside ``src/`` is changed; the
wrappers are removed again when :meth:`Tracer.installed` exits.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import Counter, defaultdict

import numpy as np

from vaxgame import chain, cli, ess, harness, ode

# cap on the ODE states kept for timing the field evaluation afterwards
_MAX_RHS_STATES = 2000


# counters: (tracer, result, args, kwargs) of one call that returned


def _count_simulate(tracer, result, args, kwargs):
    tracer.counts["chain.epochs"] += result.diagnostics.n_steps
    tracer.counts["chain.frozen"] += bool(result.frozen)


def _count_integrate(tracer, result, args, kwargs):
    tracer.counts["ode.integrate.segments"] += result.n_segments
    tracer.counts["ode.integrate.steps"] += len(result.t)
    tracer.counts["ode.integrate.settled"] += bool(result.settled)
    tracer.counts["ode.integrate.zeno"] += bool(result.zeno_truncated)
    room = _MAX_RHS_STATES - len(tracer.rhs_states)
    if room > 0:
        params, policy = args[1], args[2]
        rows = result.states[:: max(1, len(result.states) // 16)][:room]
        tracer.rhs_states.extend((ode.OdeState(*row), params, policy) for row in rows)


def _count_find_equilibrium(tracer, result, args, kwargs):
    tracer.counts["ode.find_equilibrium.converged"] += bool(result.converged)


def _count_closed_form(tracer, result, args, kwargs):
    tracer.counts["attractor.closed_form.conjectured"] += bool(result.conjectured)


def _count_certificate(tracer, result, args, kwargs):
    radius = kwargs.get("radius", 1e-3)
    tracer.counts["attractor.certify_stability.samples"] += result.n_samples
    tracer.counts["attractor.certify_stability.radius_retries"] += round(
        math.log10(radius / result.radius_used)
    )
    tracer.counts["attractor.certify_stability.passed"] += bool(result.passed)


def _count_mutation(tracer, result, args, kwargs):
    tracer.counts["ess.mutation_stability.probes"] += len(result.probes)


# (module, attribute, span name, counter); each wrapper goes where the
# caller resolves the name at call time
_SITES = [
    (cli, "main", "cli.main", None),
    (cli, "load_experiment", "config.load_experiment", None),
    (cli, "run", "harness.run", None),
    (harness, "write_summary_csv", "harness.write_summary_csv", None),
    (harness, "closed_form", "attractor.closed_form", _count_closed_form),
    (harness, "vfc2_limit_set", "attractor.vfc2_limit_set", None),
    (harness, "certify_stability", "attractor.certify_stability", _count_certificate),
    (harness, "classify_ess", "ess.classify_ess", None),
    (chain, "simulate", "chain.simulate", _count_simulate),
    (chain, "estimate_limit", "chain.estimate_limit", None),
    (chain, "write_trajectory_csv", "chain.write_trajectory_csv", None),
    (ode, "integrate", "ode.integrate", _count_integrate),
    (ode, "write_path_csv", "ode.write_path_csv", None),
    (ess, "find_equilibrium", "ode.find_equilibrium", _count_find_equilibrium),
    (ess, "mutation_stability", "ess.mutation_stability", _count_mutation),
]


class Tracer:
    """Spans (name, start, end, parent, iteration) and counters, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.rhs_states: list = []
        self.iteration = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.iteration]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, result, args, kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, count in _SITES:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # ------------------------------------------------------------------
    # reduction

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls, total, self_time = Counter(), defaultdict(float), defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child_time[index]
        return calls, total, self_time

    def root_seconds(self):
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)

    def rhs_us(self, min_seconds=0.2):
        """Median microseconds per ``ode.rhs`` call over the recorded states."""
        if not self.rhs_states:
            return 0.0
        batches = []
        deadline = time.perf_counter() + min_seconds
        while len(batches) < 5 or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            for state, params, policy in self.rhs_states:
                ode.rhs(state, params, policy)
            batches.append((time.perf_counter() - t0) / len(self.rhs_states))
        return float(np.median(batches)) * 1e6

    def dump(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "iteration": i}
            for n, s, e, p, i in self.spans
        ]
