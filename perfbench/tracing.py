"""Tracing done from outside the package.

Nothing here patches betaflow.  ``integrate`` and ``invert_eta`` accept
any object with the model interface, so a ``ModelProxy`` can stand in for
a model and count and time every call the flow or the inversion makes into
it.  Layers that cannot be reached that way (the scanner's calls into
``det_closed``, the flow's diagnostics) are attributed as a computed call
count times a per-call cost micro-timed by ``LayerCosts``.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import betaflow as bf

# The model methods the flow and the inversion call.
PROXIED = ("eta", "metric", "in_domain", "check_domain", "inversion_start",
           "check_inversion_target")


class ModelProxy:
    """Forwards the model interface to ``model``; each call to a method in
    ``PROXIED`` adds one count and its wall time to ``tally`` under
    ``"<model>.<method>"``."""

    def __init__(self, model, tally):
        self._model = model
        self._tally = tally
        self.name = model.name

    def __getattr__(self, attr):
        return getattr(self._model, attr)


def _forward(method):
    key_suffix = "." + method

    def call(self, *args, **kwargs):
        start = perf_counter()
        try:
            return getattr(self._model, method)(*args, **kwargs)
        finally:
            entry = self._tally[self.name + key_suffix]
            entry[0] += 1
            entry[1] += perf_counter() - start

    call.__name__ = method
    return call


for _method in PROXIED:
    setattr(ModelProxy, _method, _forward(_method))


def new_tally():
    """Per-key ``[calls, seconds]``."""
    return defaultdict(lambda: [0, 0.0])


class Tracer:
    """Spans kept in memory and written out once the run ends.

    A span is one public call into the package (one operation of a
    workload, or one probe); the model calls made inside it are kept on
    the span as counts and seconds rather than as spans of their own,
    which keeps a run of ~10^6 model calls small in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._origin = perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start_s": perf_counter() - self._origin,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end_s"] = perf_counter() - self._origin
            self._stack.pop()


# Timed batches of each micro-timed function in a traced run.
BATCHES = 40


def _batch_us(func, inputs) -> float:
    """Mean wall time per call over one pass through inputs, in microseconds."""
    start = perf_counter()
    for x in inputs:
        func(x)
    return (perf_counter() - start) / len(inputs) * 1e6


class LayerCosts:
    """Micro-timed per-call cost of each layer's public functions on seeded
    in-domain inputs.

    Each ``sample()`` times one batch of every function.  A traced run
    takes its samples between operations, so they spread over the whole
    run, and each cost is the fastest batch: on a shared machine other
    tenants only ever slow a batch down, in spells that can last seconds."""

    def __init__(self, rng, n: int = 64):
        exact = bf.EXACT_MODEL
        stirling = bf.STIRLING_MODEL
        ex_pts = np.exp(rng.uniform(np.log(0.3), np.log(8.0), size=(n, 3)))
        st_pts = np.exp(rng.uniform(np.log(1.2), np.log(6.0), size=(n, 3)))
        # rhs inverts the metric; keep the Stirling points it accepts.
        st_rhs = [p for p in st_pts if abs(stirling.det_closed(p)) > 1e-6]
        scalars = [float(x) for x in ex_pts.sum(axis=1)]
        metrics = [exact.metric(p) for p in ex_pts]
        etas = [exact.eta(p) for p in ex_pts]
        tuples = [tuple(float(v) for v in p) for p in ex_pts]
        trajectory = bf.integrate(exact, ex_pts[0], 2.0, rtol=1e-10, atol=1e-12)
        self._cases = {
            "specfun.digamma_us": (bf.digamma, scalars),
            "specfun.trigamma_us": (bf.trigamma, scalars),
            "specfun.log_gamma_us": (bf.log_gamma, scalars),
            "exact.eta_us": (exact.eta, ex_pts),
            "exact.metric_us": (exact.metric, ex_pts),
            "stirling.eta_us": (stirling.eta, st_pts),
            "stirling.metric_us": (stirling.metric, st_pts),
            "stirling.det_closed_us": (stirling.det_closed, st_pts),
            "stirling.classify_domain_us": (stirling.classify_domain, st_pts),
            "manifold.as_point_us": (bf.as_point, tuples),
            "manifold.invert3_us": (bf.invert3, metrics),
            "manifold.det3_us": (bf.det3, metrics),
            "integrability.hamiltonian_us": (bf.hamiltonian, etas),
            "integrability.lax_pair_us": (bf.lax_pair, etas),
            "rhs.exact": (lambda p: bf.rhs(exact, p), ex_pts),
            "rhs.stirling": (lambda p: bf.rhs(stirling, p), st_rhs),
            "lax_residual": (bf.lax_residual, [trajectory]),
        }
        self._fastest = dict.fromkeys(self._cases, float("inf"))

    def sample(self) -> None:
        for name, (func, inputs) in self._cases.items():
            self._fastest[name] = min(self._fastest[name], _batch_us(func, inputs))

    def costs(self) -> dict[str, float]:
        """The costs keyed by per-layer metric name."""
        costs = dict(self._fastest)
        # Mean of the two models, as the flows workload mixes them 1:1.
        costs["flow.rhs_us"] = 0.5 * (costs.pop("rhs.exact") + costs.pop("rhs.stirling"))
        costs["integrability.lax_residual_ms"] = 1e-3 * costs.pop("lax_residual")
        return costs
