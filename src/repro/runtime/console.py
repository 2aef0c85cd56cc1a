"""Logging-based console reporting that doubles as a telemetry sink.

The CLI used to narrate runs with ad-hoc ``print()`` lines, which meant
the human-facing status and the (new) machine-readable event log were
produced by different code and could drift apart.  This module replaces
that with one path:

* :func:`configure_console` sets up the ``repro`` logger hierarchy with
  a handler that resolves ``sys.stdout`` *at emit time* (so pytest's
  ``capsys`` and any stream redirection keep working), mapped from the
  CLI's ``--quiet`` / ``--verbose`` flags;
* :class:`ConsoleReporter` is a :class:`~repro.runtime.telemetry.Telemetry`
  *sink*: attach it with ``telemetry.add_sink(reporter)`` and the
  telemetry events themselves drive the progress lines -- one emission,
  two consumers (the JSONL trace and the console), zero drift.

Severity mapping: per-leg sweep progress and a search resuming from its
checkpoint render at INFO (the default), per-generation / per-wave
search progress and checkpoint writes at DEBUG (visible with
``--verbose``); ``--quiet`` raises the threshold to WARNING so only
problems surface.
"""

from __future__ import annotations

import logging
import sys

from .trace_format import TraceEvent

__all__ = ["ConsoleReporter", "configure_console", "console_logger"]

LOGGER_NAME = "repro"


class _DynamicStdoutHandler(logging.StreamHandler):
    """A StreamHandler that looks up ``sys.stdout`` on every emit.

    A plain ``StreamHandler(sys.stdout)`` captures the stream object at
    configure time; test harnesses (and anything else) that swap
    ``sys.stdout`` later would silently lose the output.
    """

    def __init__(self):
        super().__init__(stream=None)

    @property
    def stream(self):
        return sys.stdout

    @stream.setter
    def stream(self, value):  # the base class assigns in __init__; ignore
        pass


def console_logger(name: str = "") -> logging.Logger:
    """The ``repro`` console logger (or a child, e.g. ``cli``/``sweep``)."""
    return logging.getLogger(f"{LOGGER_NAME}.{name}" if name else LOGGER_NAME)


def configure_console(*, quiet: bool = False, verbose: bool = False) -> logging.Logger:
    """Configure the console logger for one CLI invocation; idempotent."""
    logger = logging.getLogger(LOGGER_NAME)
    logger.propagate = False
    if quiet:
        logger.setLevel(logging.WARNING)
    elif verbose:
        logger.setLevel(logging.DEBUG)
    else:
        logger.setLevel(logging.INFO)
    if not any(isinstance(handler, _DynamicStdoutHandler)
               for handler in logger.handlers):
        handler = _DynamicStdoutHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        logger.addHandler(handler)
    return logger


class ConsoleReporter:
    """Renders telemetry events as log lines (attach as a telemetry sink)."""

    def __init__(self, logger: logging.Logger = None):
        self.logger = logger if logger is not None else console_logger()

    # -- the sink entry point ----------------------------------------------------------
    def __call__(self, event: TraceEvent) -> None:
        renderer = getattr(self, "_render_" + event.name.replace(".", "_"), None)
        if renderer is not None:
            renderer(event.fields, event)

    # -- per-event renderers -----------------------------------------------------------
    def _render_sweep_leg(self, fields, event) -> None:
        self.logger.info(
            "  [%9s] %s: %.3fx, %s evaluations (%s fresh, %.1fs)",
            fields.get("status", "?"), fields.get("leg_id", "?"),
            float(fields.get("speedup", 0.0)), fields.get("evaluations", 0),
            fields.get("fresh_evaluations", 0), event.dur or 0.0)

    def _render_search_resume_replay(self, fields, event) -> None:
        self.logger.info("resuming from %s (round %s, %s cached fitness results)",
                         fields.get("path", "?"), fields.get("round", "?"),
                         fields.get("evaluations", 0))

    def _render_search_generation(self, fields, event) -> None:
        best = fields.get("best_fitness")
        self.logger.debug(
            "  generation %s: best %s, %s evaluations (stagnation %s)",
            fields.get("generation", "?"),
            f"{best:.4f} ms" if isinstance(best, (int, float)) else "-",
            fields.get("evaluations", 0), fields.get("stagnation", 0))

    def _render_search_step(self, fields, event) -> None:
        self.logger.debug(
            "  step %s: %s (best %s ms)", fields.get("step", "?"),
            "accepted" if fields.get("accepted") else "rejected",
            fields.get("best_fitness", "-"))

    def _render_search_checkpoint(self, fields, event) -> None:
        self.logger.debug("  checkpoint written: %s (round %s)",
                          fields.get("path", "?"), fields.get("round", "?"))

    def _render_executor_fault(self, fields, event) -> None:
        self.logger.warning("executor fault (%s): %s",
                            fields.get("executor", "?"),
                            fields.get("error", "unknown error"))
