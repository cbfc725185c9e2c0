"""Outside-in tracing of cagekit's layers for the traced benchmark run.

The tracer wraps public functions and methods of cagekit's modules from the
outside; no file of the program changes.  A function imported elsewhere with
`from .linalg import rank` is a second binding of the same object, so every
binding in every loaded cagekit module is replaced, and `unwrapped()` lists
any that were missed.

Each wrapped call is a span.  Spans are not kept one by one: calls and self
time (the span's duration minus the time covered by its child spans) are
summed per span name as the call returns, together with counts taken at the
same boundary.  The tracer's own bookkeeping is charged to no span.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

from cagekit import (cage, demos, field, inscribe, linalg, poly, serialize,
                     verify)

_CHECKS = ("run_suite", "verify_supra_interpolation",
           "verify_degree_minimality", "verify_simplicial_rigidity",
           "fubini_slice_check",
           "cayley_bacharach_check", "cayley_bacharach_pair",
           "transversal_points", "smoothness_check",
           "complete_intersection_span_check", "hilbert_function",
           "group_span", "independence_counterexample")

# (module, function name, span name); every span is printed by the traced
# run, and the spans that only partition time keep it from being charged to
# their caller's self time
FUNCTIONS = (
    [(linalg, name, f"linalg.{name}") for name in
     ("rank", "kernel_basis", "solve", "invert", "in_span", "span_equal")]
    + [(verify, "evaluation_matrix", "verify.evaluation_matrix"),
       (verify, "hilbert_table", "verify.hilbert_table")]
    + [(verify, name, "verify.check") for name in _CHECKS]
    + [(poly, "product_of_linear_forms", "poly.product"),
       (cage, "random_cage", "cage.random_cage"),
       (demos, "run_demo", "demos.run_demo")]
    + [(inscribe, name, f"inscribe.{name}") for name in
       ("make_tangent", "node_differentials", "inscribe_with_tangent",
        "tangent_at_node", "propagate_tangents", "transport_tangent")]
    + [(serialize, name, f"serialize.{name}") for name in
       ("cage_from_json", "cage_to_json", "report_to_json",
        "variety_to_json", "tangent_to_json")]
)

# (class, method name, span name)
METHODS = (
    (poly.HomogPoly, "evaluate", "poly.evaluate"),
    (poly.LinearForm, "evaluate", "poly.evaluate"),
    (cage.Cage, "validate", "cage.validate"),
)

SPAN_NAMES = tuple(dict.fromkeys(
    span for *_, span in list(FUNCTIONS) + list(METHODS)))

# (class, method name, counter name): counted, not timed
COUNTED = (
    (field.FieldElement, "__mul__", "field.mul"),
    (field.FieldElement, "__rmul__", "field.mul"),
    (field.FieldElement, "inverse", "field.inverse"),
)


def _entry_bits(entries) -> int:
    best = 0
    for row in entries:
        for e in row:
            for c in e.coeffs:
                best = max(best, c.numerator.bit_length(),
                           c.denominator.bit_length())
    return best


def _cagekit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cagekit"
                                  or name.startswith("cagekit."))]


class Tracer:
    """Install with `with Tracer() as tr:`; read the sums afterwards."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.child_calls = Counter()   # (parent span, child span) -> calls
        self.counts = Counter()
        self.max_entry_bits = 0
        self._stack = []
        self._undo = []                # (owner, attribute, original)
        self._originals = {}           # id(original) -> original

    # -- installing --------------------------------------------------------

    def __enter__(self):
        hooks = self._hooks()
        for module, name, span in FUNCTIONS:
            original = getattr(module, name)
            before, after = hooks.get(name, (None, None))
            wrapper = self._span(span, original, before, after)
            self._originals[id(original)] = original
            for mod in _cagekit_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)
        for cls, name, span in METHODS:
            original = cls.__dict__[name]
            self._originals[id(original)] = original
            self._set(cls, name, self._span(span, original, None, None))
        for cls, name, counter in COUNTED:
            original = cls.__dict__[name]
            self._originals[id(original)] = original
            self._set(cls, name, self._counted(counter, original))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def _set(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def unwrapped(self) -> list[str]:
        """Bindings of a traced function or method still pointing at the
        original: in any loaded cagekit module, or on the classes."""
        missed = []
        for mod in _cagekit_modules():
            for attr, value in vars(mod).items():
                if id(value) in self._originals and \
                        self._originals[id(value)] is value:
                    missed.append(f"{mod.__name__}.{attr}")
        for cls, name, _ in METHODS + COUNTED:
            value = cls.__dict__[name]
            if self._originals.get(id(value)) is value:
                missed.append(f"{cls.__name__}.{name}")
        return missed

    # -- wrappers ----------------------------------------------------------

    def _counted(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[counter] += 1
            return fn(*args)
        return wrapper

    def _span(self, span, fn, before, after):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            if before is not None:
                before(args)
            frame = [0.0, span]        # time covered by children, name
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.calls[span] += 1
                self.self_s[span] += end - start - frame[0]
                if stack:
                    stack[-1][0] += end - entered
                    self.child_calls[(stack[-1][1], span)] += 1
            if after is not None:
                after(args, result)
                if stack:
                    stack[-1][0] += perf_counter() - end
            return result
        return wrapper

    # -- counts at linalg and verify boundaries ----------------------------

    def _hooks(self):
        counts = self.counts

        def enter_matrix(extra_cols):
            def before(args):
                m = args[0]
                counts["linalg.cells"] += m.rows * (m.cols + extra_cols(m))
                self.max_entry_bits = max(self.max_entry_bits,
                                          _entry_bits(m.entries))
            return before

        def rank_known(rank_of):
            def after(args, result):
                m = args[0]
                r = rank_of(m, result)
                full = r == min(m.rows, m.cols)
                counts["linalg.rank_known_calls"] += 1
                counts["linalg.full_rank_calls"] += full
                counts["linalg.rank_known_cells"] += m.rows * m.cols
                counts["linalg.full_rank_cells"] += full * m.rows * m.cols
            return after

        def eval_cells(args, result):
            counts["verify.evaluation_matrix.cells"] += (
                result.matrix.rows * result.matrix.cols)

        def hilbert_degrees(args, result):
            counts["verify.hilbert_table.degrees"] += len(result)

        return {
            "rank": (enter_matrix(lambda m: 0),
                     rank_known(lambda m, r: r)),
            "kernel_basis": (enter_matrix(lambda m: 0),
                             rank_known(lambda m, k: m.cols - k.dim)),
            "solve": (enter_matrix(lambda m: 1), None),
            "invert": (enter_matrix(lambda m: m.cols), None),
            "evaluation_matrix": (None, eval_cells),
            "hilbert_table": (None, hilbert_degrees),
        }
