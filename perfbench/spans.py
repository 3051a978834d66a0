"""Outside-in tracing of `slcc`, installed inside a benchmark child process.

`install()` replaces the public functions listed in TARGETS with wrappers
that record one span (name, start, end, parent) per call into in-memory
arrays; nothing is written while the program runs.  The child writes them
out with `Tracer.dump()` when it exits, and `summarize()` turns them into
per-layer calls, self time and inclusive time.  Self time is a span's
duration minus the durations of its direct child spans (spans nest
strictly: one thread, no overlap).

A function imported by name into another module (``from .groebner import
normal_form`` in `presentations`, `weyl`, `cli`) is a second binding of the
same object, and so is a value of a module-level dict (`presentations.
_BUILDERS`, which `build` dispatches through).  Every such binding in every
`slcc.*` module gets the wrapper; patching only the defining module would
silently miss those calls.
"""

from __future__ import annotations

import base64
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute, span name).  "Polynomial.x" patches the class itself,
# together with every alias of the same function (e.g. __rmul__ = __mul__).
TARGETS = (
    ("polyring", "Polynomial.__mul__", "polyring.mul"),
    ("polyring", "Polynomial.__add__", "polyring.add"),
    ("polyring", "Polynomial.__sub__", "polyring.sub"),
    ("polyring", "Polynomial.__pow__", "polyring.pow"),
    ("polyring", "Polynomial.leading_term", "polyring.leading_term"),
    ("polyring", "Polynomial.substitute", "polyring.substitute"),
    ("polyring", "Polynomial.__init__", "polyring.new"),
    ("polyring", "Polynomial.__str__", "polyring.str"),
    ("polyring", "parse_poly", "polyring.parse_poly"),
    ("groebner", "groebner_basis", "groebner.groebner_basis"),
    ("groebner", "normal_form", "groebner.normal_form"),
    ("groebner", "member_with_cofactors", "groebner.member_with_cofactors"),
    ("groebner", "ideal_equal", "groebner.ideal_equal"),
    ("groebner", "quotient_hilbert", "groebner.quotient_hilbert"),
    ("groebner", "standard_monomials", "groebner.standard_monomials"),
    ("presentations", "build", "presentations.build"),
    ("presentations", "present_sgr2", "presentations.build"),
    ("presentations", "present_sgr2_relative", "presentations.build"),
    ("presentations", "present_partial_flag", "presentations.build"),
    ("presentations", "present_partial_flag_alt", "presentations.build"),
    ("presentations", "present_max_flag", "presentations.build"),
    ("presentations", "present_sgr_even", "presentations.build"),
    ("presentations", "present_bsl", "presentations.build"),
    ("presentations", "verify_presentation", "presentations.verify_presentation"),
    ("presentations", "sgr_even_collapses_to_sgr2", "presentations.coherence"),
    ("presentations", "relative_specializes_to_absolute", "presentations.coherence"),
    ("presentations", "convention_report", "presentations.coherence"),
    ("weyl", "witness_B", "weyl.witness"),
    ("weyl", "witness_D", "weyl.witness"),
    ("weyl", "invariant_generators", "weyl.invariant_generators"),
    ("spanning", "reduce", "spanning.reduce"),
    ("spanning", "expand", "spanning.expand"),
    ("spanning", "basis", "spanning.basis"),
    ("spanning", "verify_free", "spanning.verify_free"),
    ("charclass", "total_borel", "charclass.total_borel"),
    ("charclass", "complement_borel", "charclass.complement_borel"),
    ("charclass", "verify_cor_dual", "charclass.verify_cor_dual"),
    ("charclass", "euler", "charclass.euler"),
    ("symfunc", "complete", "symfunc.complete"),
    ("symfunc", "elementary", "symfunc.elementary"),
    ("symfunc", "g_poly", "symfunc.g_poly"),
    ("symfunc", "verify_h_split", "symfunc.checks"),
    ("symfunc", "verify_h_peel", "symfunc.checks"),
    ("symfunc", "generating_function_check", "symfunc.checks"),
    ("series", "series_mul", "series.series_mul"),
    # one span per criterion, named by run_check's argument
    ("acceptance", "run_check", "acceptance.*"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    """Span arrays and work counters for one child process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.gb_keys: set = set()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, hook, budget_error):
        clock = time.perf_counter
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack
        )
        counts = self.counts
        fixed = None if name.endswith(".*") else self.intern(name)
        prefix = name[:-1]
        intern = self.intern

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(fixed if fixed is not None else intern(prefix + args[0]))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except budget_error as exc:
                if not getattr(exc, "perfbench_counted", False):
                    exc.perfbench_counted = True
                    counts["groebner.budget_exceeded"] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def dump(self) -> dict:
        """The spans and counters as JSON-ready data, for `summarize`."""
        return {
            "names": self.names,
            "arrays": {
                key: base64.b64encode(getattr(self, key).tobytes()).decode()
                for key in ("name_id", "parent", "start", "end")
            },
            "counts": dict(self.counts),
            "gb_distinct": len(self.gb_keys),
        }


def summarize(dump: dict) -> dict:
    """Per span name: calls, self_s and total_s (inclusive) of one dump."""
    arrays = {}
    for key, code in (("name_id", "H"), ("parent", "l"), ("start", "d"), ("end", "d")):
        arrays[key] = array(code)
        arrays[key].frombytes(base64.b64decode(dump["arrays"][key]))
    start, end, parent, name_id = arrays["start"], arrays["end"], arrays["parent"], arrays["name_id"]
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    names = dump["names"]
    for i, nid in enumerate(name_id):
        name = names[nid]
        d = end[i] - start[i]
        calls[name] += 1
        self_s[name] += d - covered[i]
        total_s[name] += d
    return {"calls": calls, "self_s": self_s, "total_s": total_s}


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _hooks(tracer: Tracer, Polynomial) -> dict:
    counts = tracer.counts

    def mul(args, kwargs, result):
        a, b = args
        counts["polyring.mul.term_products"] += len(a.terms) * (
            len(b.terms) if isinstance(b, Polynomial) else 1
        )

    def leading_term(args, kwargs, result):
        counts["polyring.leading_term.terms_scanned"] += len(args[0].terms)

    def groebner_basis(args, kwargs, result):
        ideal = _arg(args, kwargs, 0, "ideal")
        tracer.gb_keys.add((ideal.ring.vars, ideal.generators))

    def verify_presentation(args, kwargs, result):
        counts["presentations.verify_presentation.basis_size"] += len(
            _arg(args, kwargs, 0, "pres").declared_basis
        )

    def reduce(args, kwargs, result):
        counts["spanning.reduce.out_terms"] += len(result.terms)

    return {
        "polyring.mul": mul,
        "polyring.leading_term": leading_term,
        "groebner.groebner_basis": groebner_basis,
        "presentations.verify_presentation": verify_presentation,
        "spanning.reduce": reduce,
    }


def install() -> Tracer:
    """Wrap every TARGETS entry in every loaded `slcc` namespace.

    Raises LookupError when a target no longer exists, so a renamed function
    fails the traced run instead of silently dropping out of the trace.
    """
    tracer = Tracer()
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "slcc"]
    Polynomial = sys.modules["slcc.polyring"].Polynomial
    budget_error = sys.modules["slcc.groebner"].BudgetExceededError
    hooks = _hooks(tracer, Polynomial)
    for module_name, attr, span in TARGETS:
        module = sys.modules.get(f"slcc.{module_name}")
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(fn_name) if owner is not None else None
        if original is None:
            raise LookupError(f"slcc.{module_name}.{attr} no longer exists; update perfbench/spans.py")
        wrapper = tracer.wrap(original, span, hooks.get(span), budget_error)
        namespaces = [owner] if owner_name else modules
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                elif isinstance(value, dict) and not owner_name:
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
    return tracer
