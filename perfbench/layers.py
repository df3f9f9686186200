"""Per-layer spans and counts, recorded from outside the nlie package.

Every function named in SPANS is replaced, at each place it is bound
(module attributes of any nlie module, class attributes including
aliases such as ``__rmul__ = __mul__``, and module-level registries such
as ``brackets.VERIFIERS``), by a wrapper that records the span.  The
originals are put back when the ``installed()`` block ends, so the
source tree is never touched and no wrapper outlives a pass.

A span's self time is its duration minus the durations of the spans it
directly caused, so nested layers do not count twice.  Counts are
exact: they depend only on the inputs, never on the clock.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

# Span name -> (defining module, attribute paths of the wrapped originals).
# A span may cover several functions; their calls are pooled.
SPANS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "poly.mul": ("nlie.poly", ("Polynomial.__mul__",)),
    "poly.pow": ("nlie.poly", ("Polynomial.__pow__",)),
    "poly.partial": ("nlie.poly", ("Polynomial.partial",)),
    "parser.parse_polynomial": ("nlie.parser", ("parse_polynomial",)),
    "groebner.divide": ("nlie.groebner", ("divide",)),
    "groebner.buchberger": ("nlie.groebner", ("buchberger",)),
    "groebner.spoly": ("nlie.groebner", ("spoly",)),
    "brackets.JacobianBracket": ("nlie.brackets", ("JacobianBracket.__call__",)),
    "brackets.TableBracket": ("nlie.brackets", ("TableBracket.__call__",)),
    "brackets.poly_det": ("nlie.brackets", ("poly_det",)),
    "brackets.verify": ("nlie.brackets", (
        "verify_skew", "verify_leibniz", "verify_filippov", "verify_strong",
        "verify_malcev")),
    "structures.make": ("nlie.structures", (
        "make_sl2", "make_elliptic", "make_nlie", "make_quadric",
        "make_nlie_diagonal", "make_malcev_canonical", "make_malcev_abg",
        "make_malcev_splittable", "build_algebra")),
    "quotient.create": ("nlie.quotient", ("QuotientContext.create",)),
    "quotient.reduce": ("nlie.quotient", ("QuotientContext.reduce",)),
    "quotient.verify_grading": ("nlie.quotient", ("QuotientContext.verify_grading",)),
    "analysis.center_probe": ("nlie.analysis", ("center_probe",)),
    "analysis.rational_nullspace": ("nlie.analysis", ("rational_nullspace",)),
    "analysis.kth_root": ("nlie.analysis", ("kth_root",)),
    "analysis.saturate": ("nlie.analysis", ("saturate_poisson_ideal",)),
    "analysis.center_membership": ("nlie.analysis", (
        "center_membership", "center_membership_jacobian",
        "center_membership_table")),
    "suite.item": ("nlie.suite", ("SuiteItem.execute",)),
    "cli.main": ("nlie.cli", ("main",)),
}


# -- exact counts taken at span boundaries ---------------------------------
#
# A hook gets the call's arguments and returns a state for `post`, which
# sees the result (None when the call raised) and adds to `counts`.

def _mul_post(counts, state, args, kwargs, result):
    a, b = args[0], args[1]
    counts["poly.mul.term_pairs"] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def _poly_det_post(counts, state, args, kwargs, result):
    if result is not None and result.is_zero():
        counts["brackets.poly_det.zero"] += 1


def _verify_post(counts, state, args, kwargs, result):
    if result is not None:
        counts["brackets.verify.checks"] += result.trials


def _divide_post(counts, state, args, kwargs, result):
    counts["groebner.divide.terms_in"] += len(args[0].terms)
    if result is not None and result[1].is_zero():
        counts["groebner.divide.zero"] += 1


def _buchberger_pre(args, kwargs):
    # buchberger(gens, order=GREVLEX, budget=None) makes its own budget
    # when none is given; handing it an equal one makes the steps visible
    # without changing what it does.
    from nlie import groebner
    args = list(args)
    if len(args) >= 3:
        budget = args[2]
    else:
        budget = kwargs.get("budget")
    if budget is None:
        budget = groebner.StepBudget(groebner.DEFAULT_BUDGET)
        if len(args) >= 3:
            args[2] = budget
        else:
            kwargs = dict(kwargs, budget=budget)
    return tuple(args), kwargs, (budget, budget.used)


def _buchberger_post(counts, state, args, kwargs, result):
    budget, before = state
    counts["groebner.buchberger.steps"] += budget.used - before
    if result is not None:
        counts["groebner.buchberger.basis_len"] += len(result)


def _nullspace_post(counts, state, args, kwargs, result):
    rows = args[0]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    counts["analysis.rational_nullspace.entries"] += len(rows) * ncols


def _saturate_post(counts, state, args, kwargs, result):
    if result is not None:
        counts["analysis.saturate.rounds"] += len(result.rounds)
        counts["analysis.saturate.steps"] += result.steps_used


# span -> (pre, post).  Spans listed in FREE_COUNTS read their count off
# a return value, so the untraced run records them too at no cost.
HOOKS: Dict[str, Tuple[Optional[Callable], Callable]] = {
    "poly.mul": (None, _mul_post),
    "brackets.poly_det": (None, _poly_det_post),
    "brackets.verify": (None, _verify_post),
    "groebner.divide": (None, _divide_post),
    "groebner.buchberger": (_buchberger_pre, _buchberger_post),
    "analysis.rational_nullspace": (None, _nullspace_post),
    "analysis.saturate": (None, _saturate_post),
}

FREE_COUNTS = ("brackets.verify", "groebner.buchberger", "analysis.saturate")

COUNT_NAMES = (
    "poly.mul.term_pairs", "brackets.poly_det.zero", "brackets.verify.checks",
    "groebner.divide.terms_in", "groebner.divide.zero",
    "groebner.buchberger.steps", "groebner.buchberger.basis_len",
    "analysis.rational_nullspace.entries", "analysis.saturate.rounds",
    "analysis.saturate.steps",
)

# The counts the FREE_COUNTS spans produce.
FREE_COUNT_NAMES = tuple(k for k in COUNT_NAMES if k.rpartition(".")[0] in FREE_COUNTS)


def _originals(module_name: str, paths: Tuple[str, ...]) -> List[object]:
    """The raw function objects named by `paths` in the defining module."""
    mod = sys.modules[module_name]
    out = []
    for path in paths:
        owner, _, attr = path.rpartition(".")
        holder = getattr(mod, owner) if owner else mod
        raw = vars(holder)[attr]
        out.append(raw.__func__ if isinstance(raw, classmethod) else raw)
    return out


def _bindings(original) -> List[Tuple[object, object, str]]:
    """Every (container, key, kind) that binds `original` in an nlie module.

    kind is "attr" for module and class attributes, "classmethod" for a
    classmethod wrapping it, and "item" for a value in a module-level dict.
    """
    found: Dict[Tuple[int, object], Tuple[object, object, str]] = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "nlie" or name.startswith("nlie.")):
            continue
        for key, val in vars(mod).items():
            if val is original:
                found[(id(mod), key)] = (mod, key, "attr")
            elif isinstance(val, type) and val.__module__.startswith("nlie"):
                for ckey, cval in vars(val).items():
                    if cval is original:
                        found[(id(val), ckey)] = (val, ckey, "attr")
                    elif isinstance(cval, classmethod) and cval.__func__ is original:
                        found[(id(val), ckey)] = (val, ckey, "classmethod")
            elif isinstance(val, dict):
                for dkey, dval in val.items():
                    if dval is original:
                        found[(id(val), dkey)] = (val, dkey, "item")
    return list(found.values())


class Tracer:
    """Wraps the SPANS functions; records calls, self time and counts.

    With timed=False only the FREE_COUNTS spans are wrapped and no clock
    is read: that is the untraced run's bookkeeping.
    """

    def __init__(self, timed: bool = True):
        self.timed = timed
        self.spans = list(SPANS) if timed else list(FREE_COUNTS)
        self.calls: Dict[str, int] = {name: 0 for name in SPANS}
        self.self_s: Dict[str, float] = {name: 0.0 for name in SPANS}
        self.counts: Dict[str, int] = {name: 0 for name in COUNT_NAMES}
        self._stack: List[float] = []

    def _wrap(self, name: str, fn):
        pre, post = HOOKS.get(name, (None, None))
        calls, self_s, counts = self.calls, self.self_s, self.counts
        if not self.timed:
            def counting(*args, **kwargs):
                state = None
                if pre is not None:
                    args, kwargs, state = pre(args, kwargs)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    calls[name] += 1
                    post(counts, state, args, kwargs, result)
            return counting

        stack = self._stack
        clock = time.perf_counter

        # Unhooked spans such as poly.partial run hundreds of thousands of
        # times a pass, so they get a wrapper without the hook calls.
        if pre is None and post is None:
            def timed(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    child = stack.pop()
                    calls[name] += 1
                    self_s[name] += dur - child
                    if stack:
                        stack[-1] += dur
            return timed

        def timed_hooked(*args, **kwargs):
            state = None
            if pre is not None:
                args, kwargs, state = pre(args, kwargs)
            stack.append(0.0)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = clock() - t0
                child = stack.pop()
                calls[name] += 1
                self_s[name] += dur - child
                if stack:
                    stack[-1] += dur
                post(counts, state, args, kwargs, result)
        return timed_hooked

    @contextmanager
    def installed(self):
        """Wrap every binding of every span for the duration of the block."""
        saved: List[Tuple[object, object, str, object]] = []
        try:
            for name in self.spans:
                module_name, paths = SPANS[name]
                for original in _originals(module_name, paths):
                    wrapper = self._wrap(name, original)
                    for container, key, kind in _bindings(original):
                        if kind == "item":
                            saved.append((container, key, kind, container[key]))
                            container[key] = wrapper
                        else:
                            saved.append((container, key, kind, vars(container)[key]))
                            setattr(container, key, classmethod(wrapper)
                                    if kind == "classmethod" else wrapper)
            yield self
        finally:
            for container, key, kind, old in reversed(saved):
                if kind == "item":
                    container[key] = old
                else:
                    setattr(container, key, old)
            self._stack.clear()
