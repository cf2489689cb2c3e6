"""Outside-in tracing of splitlab's layers for the benchmark's traced run.

Wrappers are installed from here on public functions: class attributes for
FieldCtx, TowerCtx, Matrix and SplitInstance, module attributes elsewhere
(and the package's re-export of the same object).  Internal callers reach
them through `linalg.x`, module globals and `ctx.mul`, so they see the
wrappers too.  Nothing under src/ is edited.

Two recorders exist because a timing wrapper on the ~10^7 scalar calls of a
pass would swamp the self time of the functions that make those calls:

- SpanRecorder times every layer function except the scalar ops.  Spans
  (name, start, end, parent, phase) are kept in flat arrays and written when
  the run ends; spans of one phase (setup or pass) share a phase id.
- ScalarCounter, used in a separate pass, counts FieldCtx.add, FieldCtx.mul
  and TowerCtx.mul, and times FieldCtx.mul alone.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from array import array

# (layer module, attribute path, metric name, kind).  kind "call" records a
# span per call; "gen" also records a span per next() of the returned
# iterator; "bool" and "args" add the true_ratio / repeat_ratio counters.
TARGETS = (
    ("fields", "build_extension", "fields.build_extension", "call"),
    ("fields", "generates", "fields.generates", "call"),
    ("integers", "factorize", "integers.factorize", "args"),
    ("polys", "is_irreducible", "polys.is_irreducible", "call"),
    ("polys", "is_primitive", "polys.is_primitive", "call"),
    ("polys", "find_irreducibles", "polys.find_irreducibles", "call"),
    ("polys", "gcd", "polys.gcd", "call"),
    ("linalg", "enumerate_subspaces", "linalg.enumerate_subspaces", "gen"),
    ("linalg", "vec_mat", "linalg.vec_mat", "call"),
    ("linalg", "rows_are_independent", "linalg.rows_are_independent", "bool"),
    ("linalg", "char_poly", "linalg.char_poly", "call"),
    ("linalg", "Matrix.__mul__", "linalg.Matrix.mul", "call"),
    ("linalg", "Matrix.det", "linalg.Matrix.det", "call"),
    ("splitting", "SplitInstance.__init__", "splitting.SplitInstance.init", "call"),
    ("splitting", "count_splitting", "splitting.count_splitting", "call"),
    ("splitting", "pointed_consistency", "splitting.pointed_consistency", "call"),
    ("splitting", "count_splitting_bases", "splitting.count_splitting_bases", "call"),
    ("lfsr", "enumerate_recurrences", "lfsr.enumerate_recurrences", "gen"),
    ("lfsr", "block_companion", "lfsr.block_companion", "call"),
    ("lfsr", "is_primitive_recurrence", "lfsr.is_primitive_recurrence", "bool"),
    ("lfsr", "fiber_count", "lfsr.fiber_count", "call"),
    ("verify", "verify", "verify.verify", "call"),
    ("verify", "emit", "verify.emit", "call"),
)

SCALAR_TARGETS = (
    ("fields", "FieldCtx.add", "fields.FieldCtx.add"),
    ("fields", "FieldCtx.mul", "fields.FieldCtx.mul"),
    ("fields", "TowerCtx.mul", "fields.TowerCtx.mul"),
)

# Per-layer metrics reported by the traced run, in BENCHMARK.json order:
# (metric, unit, better).
PER_LAYER = (
    ("fields.FieldCtx.mul.calls", "count", "lower"),
    ("fields.FieldCtx.add.calls", "count", "lower"),
    ("fields.TowerCtx.mul.calls", "count", "lower"),
    ("fields.FieldCtx.mul.self_s", "s", "lower"),
    ("fields.build_extension.calls", "count", "lower"),
    ("fields.build_extension.self_s", "s", "lower"),
    ("fields.generates.calls", "count", "lower"),
    ("fields.generates.self_s", "s", "lower"),
    ("integers.factorize.calls", "count", "lower"),
    ("integers.factorize.self_s", "s", "lower"),
    ("integers.factorize.repeat_ratio", "ratio", "lower"),
    ("polys.is_irreducible.calls", "count", "lower"),
    ("polys.is_irreducible.self_s", "s", "lower"),
    ("polys.is_primitive.calls", "count", "lower"),
    ("polys.is_primitive.self_s", "s", "lower"),
    ("polys.find_irreducibles.calls", "count", "lower"),
    ("polys.find_irreducibles.self_s", "s", "lower"),
    ("polys.gcd.calls", "count", "lower"),
    ("polys.gcd.self_s", "s", "lower"),
    ("linalg.enumerate_subspaces.yielded", "count", "lower"),
    ("linalg.enumerate_subspaces.self_s", "s", "lower"),
    ("linalg.vec_mat.calls", "count", "lower"),
    ("linalg.vec_mat.self_s", "s", "lower"),
    ("linalg.rows_are_independent.calls", "count", "lower"),
    ("linalg.rows_are_independent.self_s", "s", "lower"),
    ("linalg.rows_are_independent.true_ratio", "ratio", "higher"),
    ("linalg.char_poly.calls", "count", "lower"),
    ("linalg.char_poly.self_s", "s", "lower"),
    ("linalg.Matrix.mul.calls", "count", "lower"),
    ("linalg.Matrix.mul.self_s", "s", "lower"),
    ("linalg.Matrix.det.calls", "count", "lower"),
    ("linalg.Matrix.det.self_s", "s", "lower"),
    ("splitting.SplitInstance.init.calls", "count", "lower"),
    ("splitting.SplitInstance.init.self_s", "s", "lower"),
    ("splitting.count_splitting.self_s", "s", "lower"),
    ("splitting.pointed_consistency.self_s", "s", "lower"),
    ("splitting.count_splitting_bases.calls", "count", "lower"),
    ("splitting.count_splitting_bases.self_s", "s", "lower"),
    ("lfsr.enumerate_recurrences.yielded", "count", "lower"),
    ("lfsr.enumerate_recurrences.self_s", "s", "lower"),
    ("lfsr.enumerate_recurrences.rescan_ratio", "ratio", "lower"),
    ("lfsr.block_companion.calls", "count", "lower"),
    ("lfsr.block_companion.self_s", "s", "lower"),
    ("lfsr.is_primitive_recurrence.calls", "count", "lower"),
    ("lfsr.is_primitive_recurrence.self_s", "s", "lower"),
    ("lfsr.is_primitive_recurrence.true_ratio", "ratio", "higher"),
    ("lfsr.fiber_count.calls", "count", "lower"),
    ("lfsr.fiber_count.self_s", "s", "lower"),
    ("verify.verify.self_s", "s", "lower"),
    ("verify.emit.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _resolve(module: str, path: str):
    """(module, owner, attribute, original) for "func" or "Class.method"."""
    mod = importlib.import_module(f"splitlab.{module}")
    owner = mod
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return mod, owner, attr, getattr(owner, attr)


class _Patches:
    """Attribute replacements, undone in reverse order by restore()."""

    def __init__(self, sl):
        self.sl = sl
        self.undo: list[tuple[object, str, object]] = []

    def replace(self, module: str, path: str, make):
        mod, owner, attr, original = _resolve(module, path)
        wrapper = make(original)
        self.undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if owner is mod and getattr(self.sl, attr, None) is original:
            self.undo.append((self.sl, attr, original))
            setattr(self.sl, attr, wrapper)

    def restore(self) -> None:
        while self.undo:
            owner, attr, original = self.undo.pop()
            setattr(owner, attr, original)


class SpanRecorder:
    """In-memory spans of every TARGETS call, plus the counters that turn
    them into ratios."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.phase_of = array("H")
        self.phase = 0
        self._stack: list[int] = []
        self.yielded: dict[str, int] = {}
        self.true: dict[str, int] = {}
        self.repeats: dict[str, int] = {}
        self._seen_args: dict[str, set] = {}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.phase_of.append(self.phase)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span, under the current one, around a with-block."""
        i = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(i)

    def _wrap(self, name: str, kind: str, fn):
        name_id = self.intern(name)
        rec = self
        self.yielded.setdefault(name, 0)
        self.true.setdefault(name, 0)
        self.repeats.setdefault(name, 0)
        seen = self._seen_args.setdefault(name, set())

        def traced_iter(it):
            while True:
                i = rec.open(name_id)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.close(i)
                rec.yielded[name] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kind == "args":
                if args[0] in seen:
                    rec.repeats[name] += 1
                else:
                    seen.add(args[0])
            i = rec.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(i)
            if kind == "gen":
                return traced_iter(result)
            if kind == "bool" and result:
                rec.true[name] += 1
            return result

        return wrapper

    def install(self, sl) -> _Patches:
        patches = _Patches(sl)
        for module, path, name, kind in TARGETS:
            patches.replace(module, path, functools.partial(self._wrap, name, kind))
        return patches

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per name.  Self time is a span's duration
        minus the durations of its direct children."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = {name: 0 for name in self.names}
        selfs = {name: 0.0 for name in self.names}
        names, name_of = self.names, self.name
        for i in range(n):
            key = names[name_of[i]]
            calls[key] += 1
            selfs[key] += end[i] - start[i] - child[i]
        return calls, selfs

    def write(self, path) -> None:
        """Binary dump: a JSON header line, then the five arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [
                ["name", self.name.typecode, self.name.itemsize],
                ["start", "d", 8],
                ["end", "d", 8],
                ["parent", self.parent.typecode, self.parent.itemsize],
                ["phase", self.phase_of.typecode, self.phase_of.itemsize],
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent, self.phase_of):
                arr.tofile(fh)


class ScalarCounter:
    """Call counts of the scalar ops, and FieldCtx.mul's self time (nested
    prime-field muls of an extension-field mul are subtracted)."""

    def __init__(self):
        self.cells = {name: [0] for _, _, name in SCALAR_TARGETS}
        self.mul_self = [0.0]

    def install(self, sl) -> _Patches:
        patches = _Patches(sl)
        for module, path, name in SCALAR_TARGETS:
            cell = self.cells[name]
            if name == "fields.FieldCtx.mul":
                patches.replace(module, path, functools.partial(self._timed_mul, cell))
            else:
                patches.replace(module, path, functools.partial(_counted, cell))
        return patches

    def _timed_mul(self, cell, fn):
        total = self.mul_self
        nested = [0.0]
        clock = time.perf_counter

        def mul(ctx, a, b):
            cell[0] += 1
            outer = nested[0]
            nested[0] = 0.0
            t = clock()
            out = fn(ctx, a, b)
            d = clock() - t
            total[0] += d - nested[0]
            nested[0] = outer + d
            return out

        return mul


def _counted(cell, fn):
    def counted(ctx, a, b):
        cell[0] += 1
        return fn(ctx, a, b)

    return counted


def _ratio(num: float, den: float) -> float:
    """num / den, and 0.0 where the base is empty (the function never ran)."""
    return num / den if den else 0.0


def layer_metrics(rec: SpanRecorder, scalars: ScalarCounter, recurrence_space: int,
                  overhead_ratio: float) -> dict[str, float]:
    """Every PER_LAYER metric.  recurrence_space is the sum of q^(m*m*n)
    over the census points, the base of rescan_ratio."""
    calls, selfs = rec.self_times()
    out: dict[str, float] = {
        "fields.FieldCtx.mul.calls": scalars.cells["fields.FieldCtx.mul"][0],
        "fields.FieldCtx.add.calls": scalars.cells["fields.FieldCtx.add"][0],
        "fields.TowerCtx.mul.calls": scalars.cells["fields.TowerCtx.mul"][0],
        "fields.FieldCtx.mul.self_s": scalars.mul_self[0],
        "trace.overhead_ratio": overhead_ratio,
    }
    fac = "integers.factorize"
    out[f"{fac}.repeat_ratio"] = _ratio(rec.repeats.get(fac, 0), calls.get(fac, 0))
    for name in ("linalg.rows_are_independent", "lfsr.is_primitive_recurrence"):
        out[f"{name}.true_ratio"] = _ratio(rec.true.get(name, 0), calls.get(name, 0))
    for name in ("linalg.enumerate_subspaces", "lfsr.enumerate_recurrences"):
        out[f"{name}.yielded"] = rec.yielded.get(name, 0)
    out["lfsr.enumerate_recurrences.rescan_ratio"] = _ratio(
        rec.yielded.get("lfsr.enumerate_recurrences", 0), recurrence_space
    )
    for metric, _, _ in PER_LAYER:
        if metric in out:
            continue
        base, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls.get(base, 0)
        elif field == "self_s":
            out[metric] = selfs.get(base, 0.0)
        else:
            raise KeyError(metric)
    return {metric: out[metric] for metric, _, _ in PER_LAYER}
