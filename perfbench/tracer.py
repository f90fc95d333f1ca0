"""Spans and counts at the public entry points of every burnside module.

The program is not edited: wrappers are installed over the functions at
run time and removed afterwards. The modules bind each other's functions
with ``from .x import y``, so a function is replaced in every
``burnside.*`` namespace that holds it, not only where it is defined.
Hot methods (``Perm.compose``, ``Perm.__post_init__``, ``FpPoly.__mul__``,
``FpPoly.__pow__``) are patched on their class and only counted, since a
timed span per call would cost more than the call.

Spans are kept in memory as flat arrays (name, parent, start, end); the
per-layer metrics are aggregated from them when the pass ends.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections.abc import Sized

# module -> functions that get a timed span
SPANNED = {
    "cli": ("main",),
    "classifier": ("classify", "verify_certificate"),
    "groups": ("closure", "derived_series", "enumerate_group", "orbit_of_pair"),
    "permutations": ("relabel_to_translation", "recognize_affine"),
    "automorphisms": ("enumerate_diff_preserving", "mult_stabilizer",
                      "assert_all_affine", "scan_all_subsets",
                      "check_preserves"),
    "trace": ("run_trace", "check_multiset_identity",
              "check_power_sum_identity", "check_vanishing_identity",
              "check_binomial_expansion", "check_leading_coefficient"),
    "polynomials": ("interpolate",),
    "fields": ("power_sum", "min_nonzero_power_sum"),
}

# (module, class, method, span name): counted, not timed
COUNTED = (
    ("permutations", "Perm", "compose", "permutations.compose"),
    ("permutations", "Perm", "__post_init__", "permutations.perm_init"),
    ("polynomials", "FpPoly", "__mul__", "polynomials.mul"),
    ("polynomials", "FpPoly", "__pow__", "polynomials.pow"),
)

# counts kept beside the call counts
EXTRA_COUNTS = ("groups.closure.seeds", "groups.closure.elements",
                "groups.derived_series.levels",
                "automorphisms.enumerate_diff_preserving.solutions",
                "polynomials.mul.coeff_ops")

ROOT_SPAN = "bench.item"


class Tracer:
    """Records spans and counts while installed; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = dict.fromkeys(
            [f"{name}.calls" for *_, name in COUNTED] + list(EXTRA_COUNTS), 0)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, n: int) -> None:
        self.counts[key] += n

    def open(self, sid: int) -> int:
        idx = len(self.start)
        self.name_id.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def begin_item(self) -> int:
        return self.open(self._id(ROOT_SPAN))

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn, extra=None):
        sid = self._id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if extra is not None:
                extra(tracer, args, result)
            return result

        return wrapper

    def _closure(self, fn):
        """Span for groups.closure, materialising ``seeds`` to count them."""
        inner = self._span("groups.closure", fn)

        def wrapper(field, seeds, cap):
            if not isinstance(seeds, Sized):
                seeds = list(seeds)
            self.add("groups.closure.seeds", len(seeds))
            result = inner(field, seeds, cap)
            self.add("groups.closure.elements", len(result))
            return result

        return wrapper

    def install(self, package: str = "burnside") -> None:
        """Replace every binding of the traced functions in ``package.*``."""
        modules = [m for name, m in sys.modules.items()
                   if name == package or name.startswith(package + ".")]
        extras = {
            "groups.derived_series": lambda t, a, r: t.add(
                "groups.derived_series.levels", len(r)),
            "automorphisms.enumerate_diff_preserving": lambda t, a, r: t.add(
                "automorphisms.enumerate_diff_preserving.solutions",
                len(r.automorphisms)),
        }
        for short, functions in SPANNED.items():
            home = sys.modules[f"{package}.{short}"]
            for attr in functions:
                original = getattr(home, attr)
                name = f"{short}.{attr}"
                if name == "groups.closure":
                    wrapper = self._closure(original)
                else:
                    wrapper = self._span(name, original, extras.get(name))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
        for short, cls_name, method, name in COUNTED:
            cls = getattr(sys.modules[f"{package}.{short}"], cls_name)
            self._patch(cls, method, self._counter(name, vars(cls)[method]))

    def _counter(self, name: str, fn):
        counts = self.counts
        calls = name + ".calls"
        if name == "polynomials.mul":
            ops = name + ".coeff_ops"

            def mul(a, b):
                counts[calls] += 1
                counts[ops] += len(a.coeffs) * len(b.coeffs)
                return fn(a, b)

            return mul

        def counted(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- results ---------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, total_ns and self_ns (total minus children)."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        out: dict[str, dict[str, int]] = {}
        for i in range(n):
            row = out.setdefault(self.names[self.name_id[i]],
                                 {"calls": 0, "total_ns": 0, "self_ns": 0})
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_ns"] += dur
            row["self_ns"] += dur - child[i]
        return out

    def root_ns(self) -> int:
        """Summed duration of the top-level (per-item) spans."""
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.start)) if self.parent[i] < 0)

    def malformed(self) -> list[int]:
        """Spans left open (their end is still 0), ending before they start,
        or reaching outside their parent's interval."""
        bad = []
        for i in range(len(self.start)):
            up = self.parent[i]
            if self.end[i] < self.start[i] or up >= 0 and not (
                    self.start[up] <= self.start[i] and self.end[i] <= self.end[up]):
                bad.append(i)
        return bad
