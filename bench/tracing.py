"""Spans around the calls into qng's public functions, installed from outside.

The package is not edited: each traced function is replaced, for the length of
a traced run, by a wrapper in every module namespace that binds it. That
matters because ``from .fock import apply_loss`` copies the name into the
importing module, so patching ``qng.fock`` alone would miss the calls made
from ``qng.witness``. ``TruncatedState`` construction is timed by wrapping the
class's ``__post_init__``, which the dataclass ``__init__`` looks up on the
class at every call.

Spans stay in memory until the run ends. A span's self time is its duration
minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import time

import qng
import qng.bounds
import qng.cli
import qng.error_model
import qng.fock
import qng.quasiprob
import qng.witness

NAMESPACES = (qng, qng.fock, qng.quasiprob, qng.bounds, qng.witness,
              qng.error_model, qng.cli)

# span name -> (defining module, function names). All make_* constructors
# share one span name.
TARGETS = {
    "fock.make_state": (qng.fock, ("make_fock", "make_coherent", "make_squeezed",
                                   "make_pac", "make_pss",
                                   "make_displaced_squeezed")),
    "fock.apply_loss": (qng.fock, ("apply_loss",)),
    "fock.apply_map": (qng.fock, ("apply_map",)),
    "fock.mix": (qng.fock, ("mix",)),
    "fock.moments": (qng.fock, ("moments",)),
    "quasiprob.qs_origin": (qng.quasiprob, ("qs_origin",)),
    "bounds.pure_bound": (qng.bounds, ("pure_bound",)),
    "witness.delta_a": (qng.witness, ("delta_a",)),
    "witness.delta_b": (qng.witness, ("delta_b",)),
    "witness.refine_map": (qng.witness, ("refine_map",)),
    "witness.witness_at_loss": (qng.witness, ("witness_at_loss",)),
    "witness.epsilon_threshold": (qng.witness, ("epsilon_threshold",)),
    "error_model.normalized_bound_stats": (qng.error_model,
                                           ("normalized_bound_stats",)),
    "cli.main": (qng.cli, ("main",)),
}

# Span fields, kept as lists so the wrapper can fill them in place.
NAME, PARENT, START, END, CHILD, OUTCOME = range(6)


def _refine_outcome(args, kwargs, result) -> str:
    """refine_map returns its seed object unless it found a better map."""
    seed = kwargs["seed"] if "seed" in kwargs else args[2]
    return "kept" if result is seed else "improved"


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        outcome = _refine_outcome if name == "witness.refine_map" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            span = [name, parent, time.perf_counter_ns(), 0, 0, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[OUTCOME] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter_ns()
                open_.pop()
                if parent >= 0:
                    spans[parent][CHILD] += span[END] - span[START]
            if outcome is not None:
                span[OUTCOME] = outcome(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        cls = qng.fock.TruncatedState
        self._saved.append((cls, "__post_init__", cls.__post_init__))
        cls.__post_init__ = self._wrap("fock.TruncatedState", cls.__post_init__)
        for name, (module, functions) in TARGETS.items():
            for attr in functions:
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for ns in NAMESPACES:
                    if ns.__dict__.get(attr) is original:
                        self._saved.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            ns, attr, original = self._saved.pop()
            setattr(ns, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_ms, and a count per recorded outcome."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            entry = out.setdefault(span[NAME], {"calls": 0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["self_ms"] += (span[END] - span[START] - span[CHILD]) / 1e6
            if span[OUTCOME] is not None:
                entry[span[OUTCOME]] = entry.get(span[OUTCOME], 0) + 1
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` made, at any depth, inside a call of ``ancestor``."""
        count = 0
        for span in self.spans:
            if span[NAME] != name:
                continue
            parent = span[PARENT]
            while parent >= 0 and self.spans[parent][NAME] != ancestor:
                parent = self.spans[parent][PARENT]
            count += parent >= 0
        return count
