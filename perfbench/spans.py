"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of every ``zinbiel5`` module (and a
few named methods) from outside the library.  Each call becomes a span with
a name, a start, an end, the span that was open when it started (its
parent), and the id of the benchmark item it ran for.  Spans stay in memory,
in flat arrays, until the pass ends; :func:`summarize` then turns them into
per-name call counts and self times.

Wrappers are installed only by :func:`install`, which only the traced run
calls.  A name bound with ``from .x import f`` is a separate reference in
the importing module, so :func:`install` rebinds every module-level
reference to a wrapped function, in every loaded ``zinbiel5`` module.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = (
    "exactmath",
    "algebra",
    "cohomology",
    "series",
    "degeneration",
    "catalog",
    "cli",
)

# Functions whose repeated inputs are counted: the share of calls whose
# arguments were already seen in the pass is the memoisation headroom.
REPEAT_TRACKED = (
    "algebra.derivation_dimension",
    "cohomology.h2",
    "cohomology.coboundary_space",
    "catalog.instantiate",
)

_NO_PARENT = -1


class Recorder:
    """In-memory span store for one single-threaded pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self._stack = []
        self.current_item = _NO_PARENT
        self.counts = Counter()
        self.seen = {}
        self.requested_trunc = None

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else _NO_PARENT)
        self.item.append(self.current_item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("spans closed out of order")

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    def note_input(self, name: str, key) -> None:
        """Count a call of ``name`` and whether ``key`` was seen before."""
        seen = self.seen.setdefault(name, set())
        self.counts[f"{name}.tracked_calls"] += 1
        if key in seen:
            self.counts[f"{name}.repeat_calls"] += 1
        else:
            seen.add(key)


class _Span:
    __slots__ = ("rec", "nid", "idx")

    def __init__(self, rec, nid):
        self.rec, self.nid = rec, nid

    def __enter__(self):
        self.idx = self.rec.open(self.nid)
        return self.idx

    def __exit__(self, *exc):
        self.rec.close(self.idx)
        return False


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(start, end, parent):
    """Per-span self time: duration minus the part its children cover."""
    children = {}
    for idx, par in enumerate(parent):
        if par != _NO_PARENT:
            children.setdefault(par, []).append((start[idx], end[idx]))
    out = []
    for idx in range(len(start)):
        dur = end[idx] - start[idx]
        kids = children.get(idx)
        out.append(dur - _covered(kids, start[idx], end[idx]) if kids else dur)
    return out


def summarize(rec: Recorder, depth: int = 2) -> dict:
    """Calls and self seconds per span name, the recorder's counts, the self
    time of each root span's tree by root name, and the spans at most
    ``depth`` levels below a root as
    [index, name, start, end, parent index, item] with times relative to the
    first span."""
    selfs = self_times(rec.start, rec.end, rec.parent)
    calls = Counter()
    self_s = Counter()
    for nid, s in zip(rec.name, selfs):
        calls[rec.names[nid]] += 1
        self_s[rec.names[nid]] += s
    t0 = rec.start[0] if len(rec.start) else 0.0
    level = []
    root = []
    tree_self_s = Counter()  # root span name -> self time of its whole tree
    top = []
    for idx, par in enumerate(rec.parent):
        level.append(0 if par == _NO_PARENT else level[par] + 1)
        root.append(idx if par == _NO_PARENT else root[par])
        tree_self_s[rec.names[rec.name[root[idx]]]] += selfs[idx]
        if level[idx] <= depth:
            top.append([
                idx, rec.names[rec.name[idx]], rec.start[idx] - t0, rec.end[idx] - t0,
                par, rec.item[idx],
            ])
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "counts": dict(rec.counts),
        "spans": len(rec.name),
        "tree_self_s": dict(tree_self_s),
        "top_spans": top,
    }


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _freeze(x):
    """A hashable stand-in for a call argument."""
    if isinstance(x, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(v) for v in x)
    try:
        hash(x)
    except TypeError:
        return repr(x)
    return x


def _span_wrapper(rec: Recorder, name: str, fn, probe=None, post=None):
    nid = rec.name_id(name)
    open_, close = rec.open, rec.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if probe is not None:
            args, kwargs = probe(rec, args, kwargs)
        idx = open_(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(idx)
        if post is not None:
            post(rec, result)
        return result

    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn):
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _count_tier(rec: Recorder, report) -> None:
    mode = getattr(report, "mode", None)
    for tier in ("exact", "numeric"):
        if mode in (tier, "mixed"):
            rec.counts[f"degeneration.tier_{tier}"] += 1


def _repeat_probe(name):
    def probe(rec, args, kwargs):
        rec.note_input(name, (_freeze(args), _freeze(kwargs)))
        return args, kwargs

    return probe


def _rows_probe(rec, args, kwargs):
    """Materialise the row iterable once so its length can be counted."""
    if args:
        rows = list(args[0])
        args = (rows,) + tuple(args[1:])
    else:
        rows = kwargs["rows"] = list(kwargs["rows"])
    rec.counts["exactmath.sparse.rows_in"] += len(rows)
    return args, kwargs


def _certificate_probe(rec, args, kwargs):
    """Remember the truncation a certificate verification asked for."""
    trunc = kwargs.get("trunc", args[2] if len(args) > 2 else None)
    if trunc is None:
        from zinbiel5.series import DEFAULT_TRUNCATION as trunc
    rec.requested_trunc = trunc
    return args, kwargs


def _expand_probe(rec, args, kwargs):
    trunc = kwargs.get("trunc", args[2] if len(args) > 2 else None)
    if rec.requested_trunc is not None and trunc == 2 * rec.requested_trunc:
        rec.counts["series.expand_series.retry_calls"] += 1
    return args, kwargs


_PROBES = {
    "exactmath.rank_sparse": _rows_probe,
    "exactmath.kernel_basis_sparse": _rows_probe,
    "degeneration.verify_certificate": _certificate_probe,
    "series.expand_series": _expand_probe,
}
_PROBES.update({name: _repeat_probe(name) for name in REPEAT_TRACKED})
_POSTS = {"degeneration.verify_certificate": _count_tier}

# (module, class, attribute names, span or count name, kind)
_METHODS = (
    ("exactmath", "ExactMatrix", ("rref",), "exactmath.ExactMatrix.rref", "span"),
    ("series", "PuiseuxSeries", ("__mul__", "__rmul__"), "series.PuiseuxSeries.mul", "span"),
    ("series", "Radical", ("__mul__", "__rmul__"), "series.Radical.mul.calls", "count"),
    ("exactmath", "GaussianRational", ("__mul__", "__rmul__"), "exactmath.grat.mul.calls", "count"),
)


# The scalar coercion runs inside every Q(i) operation; a span there would
# cost more than the work it measures.  The operator timings and the
# multiplication count cover the scalar layer instead.
_UNWRAPPED = {"exactmath.grat"}


def _public_functions(layer, mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for attr in names:
        obj = getattr(mod, attr, None)
        if (
            inspect.isfunction(obj)
            and obj.__module__ == mod.__name__
            and not inspect.isgeneratorfunction(obj)
            and f"{layer}.{attr}" not in _UNWRAPPED
        ):
            yield attr, obj


def install(rec: Recorder) -> None:
    """Wrap every layer's public functions and rebind all references."""
    modules = {
        layer: importlib.import_module(f"zinbiel5.{layer}") for layer in LAYERS
    }
    wrapped = {}
    for layer, mod in modules.items():
        for attr, fn in _public_functions(layer, mod):
            name = f"{layer}.{attr}"
            wrapped[fn] = _span_wrapper(
                rec, name, fn, _PROBES.get(name), _POSTS.get(name)
            )
    for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "zinbiel5"]:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])
    for layer, cls_name, attrs, name, kind in _METHODS:
        cls = getattr(modules[layer], cls_name, None)
        done = {}
        for attr in attrs:
            fn = cls.__dict__.get(attr) if cls is not None else None
            if fn is None:
                continue
            if fn not in done:
                done[fn] = (
                    _span_wrapper(rec, name, fn)
                    if kind == "span"
                    else _count_wrapper(rec, name, fn)
                )
            setattr(cls, attr, done[fn])
