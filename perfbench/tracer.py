"""Span tracing of the hlcd4 layers from outside the package.

The tracer wraps the package's public callables by rebinding module and
class attributes, records one span per call, and puts every original back
on ``uninstall``.  Nothing inside the package changes, so the private
helpers (``_light_min_weight``, ``_scan_min_weight``, ``_candidate_rng``)
stay inside the self time of the public span that called them.

Spans are kept in memory as tuples and written out by ``dump``.  Self time
is found by a sweep over span boundaries: each instant goes to the spans
that are open and have no open child, split evenly when threads make
several of them open at once.  The self times of all spans inside a root
span therefore add up to the root span's duration exactly.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

LAYERS = ("gf4", "linalg", "code", "transform", "tables", "search", "cli")


def _public_functions(module):
    return [
        name
        for name, obj in vars(module).items()
        if callable(obj)
        and not name.startswith("_")
        and getattr(obj, "__module__", None) == module.__name__
        and not isinstance(obj, type)
    ]


def traced_targets(pkg):
    """(owner, attribute, span name) for every callable the tracer wraps.

    Owners are modules or classes; class attributes are taken from the
    class ``__dict__`` so properties and classmethods keep their kind.
    """
    mods = pkg.modules
    targets = []
    for layer in ("gf4", "linalg", "transform", "search"):
        mod = mods[layer]
        targets += [(mod, name, f"{layer}.{name}") for name in _public_functions(mod)]
    targets += [
        (mods["cli"], name, f"cli.{name}")
        for name in ("main", "parse_code_file", "emit_code_file", "emit_summary")
    ]
    targets += [(mods["tables"], "catalog_pairs", "tables.catalog_pairs")]
    code_cls = mods["code"].LinearCode
    for name in (
        "__init__", "from_symbols", "gram", "hermitian_dual", "hull_dim",
        "is_lcd", "is_even", "min_weight", "summarize",
    ):
        targets.append((code_cls, name, f"code.LinearCode.{name}"))
    table_cls = mods["tables"].BoundsTable
    targets += [(table_cls, "load", "tables.BoundsTable.load")]
    return targets


class Tracer:
    """Records spans for the wrapped callables between install and uninstall."""

    def __init__(self, pkg):
        self._pkg = pkg
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, args=(), kwargs=None, extra=None):
        """Call ``fn`` inside a span.

        ``extra(args, kwargs, result)`` may attach a small record to the
        span; spans named in ``CPU_SPANS`` also record process CPU seconds.
        """
        name_id = self._name_id(name)
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            # A pool worker's outermost call belongs to the span that is
            # open in the thread that owns the pool.
            parent = self._main_stack[-1]
        else:
            parent = -1
        sid = next(self._ids)
        stack.append(sid)
        result = None
        cpu = name in CPU_SPANS
        cpu0 = time.process_time() if cpu else 0.0
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
            return result
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            info = None
            if cpu:
                info = (time.process_time() - cpu0, result)
            elif extra is not None:
                info = extra(args, kwargs or {}, result)
            self.spans.append((sid, parent, name_id, t0, t1, info))

    def _wrap(self, name, fn, extra):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, args, kwargs, extra)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced callable wherever the package refers to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._main_stack
        replacements = {}
        for owner, attr, name in traced_targets(self._pkg):
            raw = vars(owner)[attr]
            extra = _EXTRAS.get(name)
            if isinstance(raw, property):
                new = property(self._wrap(name, raw.fget, extra))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, extra))
            else:
                new = self._wrap(name, raw, extra)
                replacements[id(raw)] = (raw, new)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, new)
        # Names imported into other modules (``from .gf4 import weight``)
        # and the package's re-exports point at the same function objects.
        for mod in [self._pkg.package, *self._pkg.modules.values()]:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        """Put every original attribute back, last patch first."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ----------------------------------------------------------

    def name_of(self, span) -> str:
        return self._names[span[2]]

    def self_times(self) -> dict:
        """Self time in ns of every span id, by the sweep described above."""
        parent = {}
        events = []
        for sid, par, _, t0, t1, _ in self.spans:
            parent[sid] = par
            if t1 > t0:
                # Ends sort before starts at equal times, inner spans first.
                events.append((t0, 1, sid))
                events.append((t1, 0, -sid))
        events.sort()
        self_ns = defaultdict(float)
        open_children = defaultdict(int)
        alive = set()
        leaves = set()
        prev = None
        for t, starts, sid in events:
            sid = abs(sid)
            if prev is not None and leaves and t > prev:
                share = (t - prev) / len(leaves)
                for leaf in leaves:
                    self_ns[leaf] += share
            prev = t
            par = parent[sid]
            if starts:
                alive.add(sid)
                leaves.add(sid)
                if par in alive:
                    open_children[par] += 1
                    leaves.discard(par)
            else:
                alive.discard(sid)
                leaves.discard(sid)
                if par in alive:
                    open_children[par] -= 1
                    if open_children[par] == 0:
                        leaves.add(par)
        return self_ns

    def dump(self, path) -> None:
        """Write the names table and every span as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start_ns", "end_ns"],
                    "names": self._names,
                    "spans": [list(s[:5]) for s in self.spans],
                },
                fh,
                separators=(",", ":"),
            )


def _min_weight_extra(args, kwargs, result):
    code = args[0]
    budget = args[1] if len(args) > 1 else kwargs.get("budget")
    return (code.n, code.k, budget)


def _result_extra(args, kwargs, result):
    return result


CPU_SPANS = frozenset({"search.search"})

_EXTRAS = {
    "code.LinearCode.min_weight": _min_weight_extra,
    "code.LinearCode.is_lcd": _result_extra,
    "code.LinearCode.summarize": _result_extra,
}
