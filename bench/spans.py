"""Tracing from outside the library: wrap every public repetend function.

Each public function and method of a loaded ``repetend.*`` module is
wrapped once, by object identity, and the wrapper is installed wherever
the original is referenced: in every ``repetend.*`` module's globals and
in the class dicts.  ``rational`` and ``decimals`` import ``int_to_digits``
and ``digits_to_int`` by name, so patching only ``words`` would miss the
calls made through those names.

A wrapper records one span per call (id, parent, name, start, end, and an
optional size measure) in memory, in flat arrays so that a round of
hundreds of thousands of calls stays small; self times are computed
afterwards as each span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from types import FunctionType

# Operator methods are public API even though they are spelled as dunders.
_OPERATORS = frozenset(
    "__add__ __radd__ __sub__ __mul__ __rmul__ __truediv__ __neg__ __abs__ "
    "__lt__ __le__ __gt__ __ge__".split()
)

# Per-character lookups, called once per digit of every literal parsed or
# printed: a span each would make tracing cost grow with the digits and
# swamp the self time of the formatter that calls them.
_SKIP = frozenset({"words.digit_char", "words.char_digit"})


def _public(name: str) -> bool:
    return not name.startswith("_") or name in _OPERATORS


def _length_arg(args, kwargs):
    return kwargs["length"] if "length" in kwargs else args[2]


# Size measures taken from a call's arguments or result: (stat, how).
MEASURES = {
    "words.int_to_digits": ("digits", lambda a, k, r: _length_arg(a, k)),
    "words.digits_to_int": ("digits", lambda a, k, r: len(a[0])),
    "group.StarElement.__mul__": (
        "max_period",
        lambda a, k, r: len(r.representative),
    ),
    "numtheory.multiplicative_order": (
        "max_bits",
        lambda a, k, r: a[1].bit_length(),
    ),
    "rational.from_ratio": (
        "digits",
        lambda a, k, r: len(r.period) + len(r.delta.digits),
    ),
}


class SpanLog:
    """Spans in parallel arrays, one index per span (its id); the parent
    of a top-level span is -1, and so is a size that was not measured."""

    def __init__(self):
        self.parent = array("q")
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.size = array("q")

    def __len__(self) -> int:
        return len(self.start)

    def open(self, parent: int, name: int, start: int) -> int:
        self.parent.append(parent)
        self.name.append(name)
        self.start.append(start)
        self.end.append(start)
        self.size.append(-1)
        return len(self.start) - 1


def self_times(log: SpanLog) -> list[int]:
    """Per span: its duration minus the union of its children's intervals.

    Spans must be in start order, as a tracer records them.
    """
    parent, start, end = log.parent, log.start, log.end
    covered = [0] * len(log)
    reach = list(start)  # furthest point covered by a child so far
    for i, p in enumerate(parent):
        if p < 0:
            continue
        lo, hi = max(start[i], reach[p]), min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(len(log))]


def _repetend_modules():
    return sorted(
        (name, mod)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repetend" or name.startswith("repetend."))
    )


def _short(modname: str) -> str:
    return modname.split(".", 1)[1] if "." in modname else modname


def _unwrap(raw):
    return raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` puts back exactly
    the objects that were there before."""

    def __init__(self):
        self.log = SpanLog()
        self.names: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def take_spans(self) -> SpanLog:
        """The spans recorded so far; recording restarts with id 0."""
        log, self.log = self.log, SpanLog()
        return log

    def _targets(self) -> dict[int, tuple[FunctionType, str]]:
        """id(function) -> (function, "module.qualname") for every public
        function and method defined in a repetend module."""
        found = {}
        for modname, mod in _repetend_modules():
            for name, value in vars(mod).items():
                if isinstance(value, FunctionType) and value.__module__ == modname:
                    if _public(name):
                        found[id(value)] = (value, f"{_short(modname)}.{name}")
                elif isinstance(value, type) and value.__module__ == modname:
                    for attr, raw in vars(value).items():
                        func = _unwrap(raw)
                        if isinstance(func, FunctionType) and _public(attr):
                            qual = f"{_short(modname)}.{value.__name__}.{attr}"
                            found[id(func)] = (func, qual)
        return {k: v for k, v in found.items() if v[1] not in _SKIP}

    def _wrapper(self, func: FunctionType, name: str):
        stack, clock = self._stack, time.perf_counter_ns
        code = len(self.names)
        self.names.append(name)
        measure = MEASURES[name][1] if name in MEASURES else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            log = self.log
            span = log.open(stack[-1] if stack else -1, code, clock())
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                log.end[span] = clock()
                stack.pop()
            if measure is not None:
                log.size[span] = measure(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> int:
        """Wrap every target; returns the number of references patched."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.log = SpanLog()
        self.names = []
        self._stack.clear()
        targets = self._targets()
        wrappers = {key: self._wrapper(f, name) for key, (f, name) in targets.items()}
        seen_classes = set()
        for _, mod in _repetend_modules():
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers and targets[id(value)][0] is value:
                    self._patch(mod, name, value, wrappers[id(value)])
                elif isinstance(value, type) and id(value) not in seen_classes:
                    seen_classes.add(id(value))
                    for attr, raw in list(vars(value).items()):
                        func = _unwrap(raw)
                        key = id(func)
                        if key in wrappers and targets[key][0] is func:
                            wrapped = wrappers[key]
                            if raw is not func:
                                wrapped = type(raw)(wrapped)
                            self._patch(value, attr, raw, wrapped)
        return len(self._patched)

    def _patch(self, owner, name, original, replacement) -> None:
        setattr(owner, name, replacement)
        self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)


def summarize(log: SpanLog, names: list[str]) -> dict[str, dict]:
    """Per span name: calls, self_s, and the size measure if it has one
    (summed for digits, maximum for max_* stats)."""
    own = self_times(log)
    out: dict[str, dict] = {}
    for i, code in enumerate(log.name):
        name = names[code]
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own[i] * 1e-9
        if log.size[i] >= 0:
            stat = MEASURES[name][0]
            if stat.startswith("max_"):
                entry[stat] = max(entry.get(stat, 0), log.size[i])
            else:
                entry[stat] = entry.get(stat, 0) + log.size[i]
    return out


def write_spans(log: SpanLog, names: list[str], path) -> None:
    """Gzipped JSON lines: a header naming the fields and the span names,
    then one array per span with times in ns from the first span's start."""
    t0 = log.start[0] if len(log) else 0
    with gzip.open(path, "wt") as fh:
        fields = ["id", "parent", "name", "start_ns", "end_ns", "size"]
        fh.write(json.dumps({"fields": fields, "names": names}) + "\n")
        for i in range(len(log)):
            row = [i, log.parent[i], log.name[i], log.start[i] - t0,
                   log.end[i] - t0, log.size[i]]
            fh.write(json.dumps(row) + "\n")
