"""Per-layer tracing of jetcalc from outside the package.

`Tracer.install()` replaces every public function of each jetcalc module, and
the kernel operators and symmetry methods listed in `_METHODS`, with wrappers
that record spans.  A function is replaced in every module that bound its
name (``euler`` is imported into poisson, symmetry, sigma and cli, for
example), and an operator alias such as ``Poly.__rmul__ = __mul__`` is
replaced together with its original, so no call escapes its span.
`uninstall()` restores every original object.

Each span's self time is its duration minus the durations of its child
spans.  Kernel spans are only aggregated, because a single `check poisson` on
a ten-field sigma model makes hundreds of thousands of them; spans of the
other layers are also kept as records, in memory, up to `SPAN_LIMIT`, and
written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time

import jetcalc
from jetcalc import cli, dsl, kernel, modelfile, poisson, shlie, sigma, symmetry, varcalc

LAYERS = (kernel, dsl, varcalc, poisson, shlie, symmetry, sigma, modelfile, cli)
SPAN_LIMIT = 100_000

# (class, attribute, span name).  Attributes holding the same function object
# as the listed one (operator aliases) are patched with the same wrapper.
_METHODS = (
    (kernel.Poly, "__mul__", "kernel.mul"),
    (kernel.Poly, "__add__", "kernel.add"),
    (kernel.Poly, "__pow__", "kernel.pow"),
    (kernel.Poly, "partial", "kernel.partial"),
    (kernel.Poly, "substitute", "kernel.substitute"),
    (symmetry.Automorphism, "__post_init__", "symmetry.automorphism_validate"),
    (symmetry.Automorphism, "compose", "symmetry.compose"),
    (symmetry.Automorphism, "prolong", "symmetry.prolong"),
    (symmetry.FiniteGroupAction, "__post_init__", "symmetry.group_validate"),
)

# Module functions left unwrapped: `symmetry.prolong` only delegates to
# `Automorphism.prolong`, which is traced under the same span name.
_SKIP = {("symmetry", "prolong")}


def _term_count(operand) -> int:
    if isinstance(operand, kernel.Poly):
        return sum(1 for _ in operand.items())
    return 1 if operand else 0


class Tracer:
    """Span recorder; `aggregate` maps a span name to [calls, total_s, self_s].

    Wrappers record only while `active` is true, so the caller can keep input
    generation and output checks out of the trace.
    """

    def __init__(self):
        self.aggregate: dict[str, list] = {}
        self.counters: dict[str, int] = {
            "kernel.monomial.constructions": 0,
            "kernel.mul.term_pairs": 0,
            "kernel.mul.zero_operand": 0,
            "symmetry.prolong.hits": 0,
            "dsl.parse_expr.chars": 0,
        }
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.task = -1
        self.active = False
        self._stack: list[list] = []   # [span id, start, child seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, record: bool):
        agg = self.aggregate.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._next_id += 1
            frame = [self._next_id, 0.0, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            frame[1] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if record:
                    if len(self.spans) < SPAN_LIMIT:
                        self.spans.append((frame[0], parent, self.task, name, start, end))
                    else:
                        self.spans_dropped += 1

        return wrapper

    def _mul(self, fn):
        counters = self.counters
        span = self._span("kernel.mul", fn, record=False)

        def wrapper(a, b):
            if not self.active:
                return fn(a, b)
            n, k = _term_count(a), _term_count(b)
            counters["kernel.mul.term_pairs"] += n * k
            if not n or not k:
                counters["kernel.mul.zero_operand"] += 1
            return span(a, b)

        return wrapper

    def _prolong(self, fn):
        # A cache hit computes nothing: no varcalc span opens inside it.
        counters = self.counters
        span = self._span("symmetry.prolong", fn, record=False)
        varcalc_calls = [agg for name, agg in self.aggregate.items()
                         if name.startswith("varcalc.")]

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            before = sum(agg[0] for agg in varcalc_calls)
            result = span(*args, **kwargs)
            if sum(agg[0] for agg in varcalc_calls) == before:
                counters["symmetry.prolong.hits"] += 1
            return result

        return wrapper

    def _parse(self, fn):
        counters = self.counters
        span = self._span("dsl.parse_expr", fn, record=True)

        def wrapper(text, *args, **kwargs):
            if not self.active:
                return fn(text, *args, **kwargs)
            counters["dsl.parse_expr.chars"] += len(text)
            return span(text, *args, **kwargs)

        return wrapper

    def _monomial_init(self, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            if self.active:
                counters["kernel.monomial.constructions"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Patch jetcalc in place; call `uninstall` to restore it."""
        namespaces = (jetcalc,) + LAYERS
        for mod in LAYERS:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or (layer, name) in _SKIP):
                    continue
                span_name = f"{layer}.{name}"
                if span_name == "dsl.parse_expr":
                    wrapper = self._parse(obj)
                else:
                    wrapper = self._span(span_name, obj, record=layer != "kernel")
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is obj:
                            self._set(ns, attr, wrapper)
        for cls, attr, span_name in _METHODS:
            original = vars(cls)[attr]
            if span_name == "kernel.mul":
                wrapper = self._mul(original)
            elif span_name == "symmetry.prolong":
                wrapper = self._prolong(original)
            else:
                wrapper = self._span(span_name, original, record=False)
            for alias, value in list(vars(cls).items()):
                if value is original:
                    self._set(cls, alias, wrapper)
        self._set(kernel.Monomial, "__init__", self._monomial_init(kernel.Monomial.__init__))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def calls(self, name: str) -> int:
        return self.aggregate.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.aggregate.get(name, [0, 0.0, 0.0])[2]
