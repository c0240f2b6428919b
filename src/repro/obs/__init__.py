"""repro.obs: zero-dependency observability for the solve pipeline.

One :class:`Obs` object bundles a :class:`~repro.obs.metrics.
MetricsRegistry` (named counters / gauges / histograms with a JSON
``snapshot()``) with an optional :class:`~repro.obs.trace.Tracer`
(nested wall-time spans, exportable as JSON and Chrome trace-event
files).  It is the pipeline's one telemetry sink: every optimizer,
store and resilience event is counted into its registry, and
:class:`~repro.core.optimizer.SweepStats` is a read-only view over
that registry.  Every pipeline entry point -- ``optimize``, ``solve``,
``solve_batch``, ``solve_main_memory``, ``run_study``,
``sensitivity.sweep``, and the CLI via ``--stats`` / ``--trace`` /
``--metrics`` -- accepts an optional ``obs`` argument in one of three
kinds:

* ``None`` (the default): nothing is counted and no clock is read;
* ``Obs(trace=False)``: metrics only -- counters and phase clocks,
  no spans (what the CLI uses unless ``--trace`` is given, and the
  :class:`~repro.core.cacti.CactiD` facade);
* ``Obs()``: metrics plus a tracer recording every span.

The determinism contract is absolute: observability reads clocks and
counts events around existing work, and never changes a solved number.
The golden-equivalence suite asserts bit-identical metrics with every
kind of sink at every job count.

Worker processes build the same kind of ``Obs`` as their parent,
record into it, and ship :meth:`Obs.export_payload` home with their
task's result; :meth:`Obs.absorb_worker` is the one merge.  It stitches
the worker's spans into the parent trace with the worker's pid at the
correct time offset, adds event counters under their own names, and
files clock readings (metric names ending in ``_s``) under a
``worker.`` prefix, so concurrent worker CPU never lands in the
parent's wall-clock phases.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Obs",
    "Span",
    "Tracer",
    "maybe_span",
    "phase",
]


class Obs:
    """A metrics registry and an optional tracer, threaded through one
    run.  ``trace=False`` counts and reads phase clocks but records no
    spans (``tracer`` is None)."""

    def __init__(self, trace: bool = True):
        self.tracer = Tracer() if trace else None
        self.metrics = MetricsRegistry()

    # Thin delegates so call sites stay one line.

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    def inc(self, name: str, n: int | float = 1) -> None:
        self.metrics.counter(name).inc(n)

    def observe(self, name: str, value: float) -> None:
        self.metrics.histogram(name).observe(value)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)

    # ------------------------------------------------------------------ #
    # Worker shipping (see module docstring)

    def export_payload(self) -> dict:
        """Picklable trace + metrics snapshot for shipping to a parent."""
        return {
            "trace": (
                self.tracer.export_payload()
                if self.tracer is not None else None
            ),
            "metrics": self.metrics.snapshot(),
        }

    def absorb_worker(self, payload: dict | None) -> None:
        """Merge a worker's ``export_payload()`` into this Obs.

        Spans are stitched into the trace (when this Obs traces).
        Counters and gauges keep their names, except clock readings --
        names ending in ``_s``, such as the ``phase.<name>_s``
        histograms and the ``optimizer.wall_s`` counter -- which land
        under a ``worker.`` prefix (names already carrying it keep it).
        ``parallel.workers_absorbed`` counts the payload, plus any the
        worker itself absorbed.
        """
        if not payload:
            return
        if self.tracer is not None:
            self.tracer.absorb_payload(payload.get("trace"))
        self.metrics.absorb(payload.get("metrics"), rename=_worker_clock)
        self.inc("parallel.workers_absorbed")


def _worker_clock(name: str) -> str:
    if name.endswith("_s") and not name.startswith("worker."):
        return f"worker.{name}"
    return name


@contextmanager
def maybe_span(obs: Obs | None, name: str, **attrs):
    """A tracer span when ``obs`` traces; a free no-op otherwise."""
    if obs is None or obs.tracer is None:
        yield None
    else:
        with obs.span(name, **attrs) as span:
            yield span


@contextmanager
def phase(name: str, obs: Obs | None = None, **attrs):
    """Time one pipeline phase into ``obs``.

    One wall-clock measurement feeds a ``phase.<name>_s`` latency
    histogram and, when ``obs`` traces, the tracer span of the same
    name (the histogram is timed from the span's own start).  Without
    ``obs`` the clock is never read.
    """
    if obs is None:
        yield None
        return
    with maybe_span(obs, name, **attrs) as span:
        t0 = (
            time.perf_counter() if span is None
            else obs.tracer._epoch + span.start_s
        )
        try:
            yield span
        finally:
            obs.observe(f"phase.{name}_s", time.perf_counter() - t0)
