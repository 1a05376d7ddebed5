"""Per-layer spans recorded from outside the verifier.

``install`` wraps the public functions of every layer module, the
arithmetic and public methods of ``RatFunc``, ``CoeffField`` and
``QuadScalar`` (patched on the class), and two private numeric probes of
``report``.  A function is replaced under every name that bound it: in
each ``metallifts`` module and in the ``checks.CHECKS`` table.  ``restore``
puts every original back.  Spans live in memory in flat arrays; a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from array import array
from collections import Counter
from dataclasses import dataclass, field

LAYERS = ("numfield", "symexpr", "geometry", "metallic", "lifts", "integrability",
          "cross_section", "scenario", "checks", "report", "cli")

# Classes whose methods are patched on the class, by layer.
CLASSES = {"numfield": ("QuadScalar",), "symexpr": ("RatFunc", "CoeffField")}
# Dunder methods that do arithmetic or construct a value; other dunders
# (repr, hash, bool, ...) are bookkeeping and stay unwrapped.
DUNDERS = frozenset({"__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                     "__neg__", "__pow__", "__eq__", "__str__"})
# Private functions wrapped anyway: they are where numeric corroboration
# runs, which has no public entry point.
PRIVATE_PROBES = {"report": ("_sample", "_corroborate")}

SECTION_KINDS = ("section_lifts", "section_invariant", "section_not_invariant",
                 "induced_metallic", "section_nijenhuis")
# Library entry points that each evaluate a cross-section identity, and the
# primitives a check calls when it re-derives an identity inline.
IDENTITY_FUNCS = frozenset(f"cross_section.{n}" for n in (
    "lift_decomposition_check", "invariance_check", "section_nijenhuis_check",
    "induced_structure"))
SECTION_PRIMITIVES = frozenset(f"cross_section.{n}" for n in (
    "b_lift", "c_lift", "restrict_to_section"))


@dataclass
class Spans:
    """Flat span storage: span k has name ``names[name_id[k]]``, opened at
    ``start[k]``, closed at ``end[k]``, and parent span ``parent[k]``
    (-1 at the top)."""

    names: list[str] = field(default_factory=list)
    name_id: array = field(default_factory=lambda: array("l"))
    parent: array = field(default_factory=lambda: array("l"))
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))

    def __len__(self):
        return len(self.start)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = Spans()
        self.counters: Counter = Counter()
        self.peak_num_terms = 0
        self.peak_num_degree = 0
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        s = self.spans
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(s.names)
            s.names.append(name)
        k = len(s.start)
        s.name_id.append(nid)
        s.parent.append(self._stack[-1] if self._stack else -1)
        s.end.append(0.0)
        self._stack.append(k)
        s.start.append(self.clock())
        return k

    def close(self, k: int) -> None:
        self.spans.end[k] = self.clock()
        self._stack.pop()

    def observe_ratfunc(self, value) -> None:
        """Track the largest numerator seen (terms and total degree)."""
        num = getattr(value, "num", None)
        if not num:
            return
        self.peak_num_terms = max(self.peak_num_terms, len(num))
        self.peak_num_degree = max(self.peak_num_degree, max(map(sum, num)))


def _wrap(tracer: Tracer, fn, name: str, observe: bool = False):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        k = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.counters[f"{name}!{type(exc).__name__}"] += 1
            raise
        finally:
            tracer.close(k)
        if observe:
            tracer.observe_ratfunc(result)
        return result

    return traced


def _is_function(obj) -> bool:
    return isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))


@dataclass
class Installation:
    """Everything ``install`` replaced, as (owner, key, original)."""

    attrs: list = field(default_factory=list)   # module or class attributes
    items: list = field(default_factory=list)   # dict entries

    def restore(self) -> None:
        for owner, key, orig in reversed(self.items):
            owner[key] = orig
        for owner, key, orig in reversed(self.attrs):
            setattr(owner, key, orig)
        self.attrs.clear()
        self.items.clear()


def _layer_functions(mod, layer: str):
    for name, obj in vars(mod).items():
        if (_is_function(obj) and getattr(obj, "__module__", None) == mod.__name__
                and (not name.startswith("_") or name in PRIVATE_PROBES.get(layer, ()))):
            yield name, obj


def install(tracer: Tracer) -> Installation:
    """Wrap every layer of ``metallifts``."""
    mods = {layer: importlib.import_module(f"metallifts.{layer}") for layer in LAYERS}
    inst = Installation()
    wrapped: dict[int, object] = {}
    for layer, mod in mods.items():
        for name, fn in _layer_functions(mod, layer):
            wrapped[id(fn)] = _wrap(tracer, fn, f"{layer}.{name}")

    # Rebind each wrapped function under every module-level name bound to it.
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "metallifts" or modname.startswith("metallifts.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                inst.attrs.append((mod, attr, obj))
                setattr(mod, attr, wrapped[id(obj)])

    # The check table holds the check functions themselves; label its
    # entries by check kind so inclusive time per kind is one span name.
    table = mods["checks"].CHECKS
    for kind, fn in list(table.items()):
        inst.items.append((table, kind, fn))
        table[kind] = _wrap(tracer, fn, f"checks.kind:{kind}")

    for layer, class_names in CLASSES.items():
        for cname in class_names:
            cls = getattr(mods[layer], cname)
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_") and attr not in DUNDERS:
                    continue
                name = f"{layer}.{cname}.{attr}"
                observe = cname == "RatFunc"
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(_wrap(tracer, raw.__func__, name, observe))
                elif isinstance(raw, types.FunctionType):
                    new = _wrap(tracer, raw, name, observe)
                else:
                    continue
                inst.attrs.append((cls, attr, raw))
                setattr(cls, attr, new)
    return inst


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

@dataclass
class NameStats:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0


def name_stats(spans: Spans) -> dict[str, NameStats]:
    """Calls, inclusive and self time per span name.  Self time is the
    span's duration minus the summed durations of its direct children."""
    n = len(spans)
    child = [0.0] * n
    start, end, parent = spans.start, spans.end, spans.parent
    for k in range(n):
        p = parent[k]
        if p >= 0:
            child[p] += end[k] - start[k]
    stats = [NameStats() for _ in spans.names]
    for k in range(n):
        st = stats[spans.name_id[k]]
        dur = end[k] - start[k]
        st.calls += 1
        st.inclusive_s += dur
        st.self_s += dur - child[k]
    return dict(zip(spans.names, stats))


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def identity_calls(spans: Spans) -> tuple[int, int]:
    """(identity evaluations, section checks) over the section checks.
    A check evaluates an identity once per library identity function it
    calls, plus once if it calls the section primitives itself to derive
    an identity inline."""
    targets = {i for i, nm in enumerate(spans.names)
               if nm.startswith("checks.kind:") and nm.split(":", 1)[1] in SECTION_KINDS}
    checks = {k for k in range(len(spans)) if spans.name_id[k] in targets}
    library: Counter = Counter()
    inline: set[int] = set()
    for k in range(len(spans)):
        p = spans.parent[k]
        if p in checks:
            nm = spans.names[spans.name_id[k]]
            if nm in IDENTITY_FUNCS:
                library[p] += 1
            elif nm in SECTION_PRIMITIVES:
                inline.add(p)
    return sum(library.values()) + len(inline), len(checks)
