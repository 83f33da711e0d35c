"""Span tracer installed from outside the program.

`install` wraps every public function of every `protgo` module, every public
method (and hand-written `__init__`) of the classes they define, and every
name another module bound to one of those functions with `from ... import`.
Each wrapper records a span (name, start, end, parent span, run id) in memory
while the tracer is enabled, plus counts taken at the same boundary. Backward
closures of autodiff ops are wrapped as they are created, so backward time is
charged to the op that recorded it. Nothing under `src/` is changed.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import pkgutil
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.enabled = False
        self.run_id = "-"
        # [span id, parent id, name, start, end, run id]
        self.spans = []
        self._stack = []
        self.counts = defaultdict(float)  # (run id, counter) -> value
        self.broken = set()  # counters whose hook failed: their metrics are omitted
        self.hits = defaultdict(int)  # binding site -> calls while enabled
        self.sites = {}  # binding site -> span name
        self.names = set()  # span names that were installed

    def begin(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, time.perf_counter(), 0.0, self.run_id])
        self._stack.append(sid)
        return sid

    def end(self, sid):
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def count(self, name, value):
        self.counts[(self.run_id, name)] += value

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\trun\n")
            for sid, parent, name, start, end, run in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t{run}\n")


# ---------------------------------------------------------------------------
# counters taken at wrapped boundaries
# ---------------------------------------------------------------------------

def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _count_forward(tracer, fn, args, kwargs, out):
    mask = np.asarray(_arg(fn, args, kwargs, "pad_mask"))
    tracer.count("model.mask_sum", float(mask.sum()))
    tracer.count("model.mask_cells", float(mask.size))


def _count_clusters(tracer, fn, args, kwargs, out):
    tracer.count("splitter.clusters", out.num_clusters)


def _count_saved_bytes(tracer, fn, args, kwargs, out):
    tracer.count("checkpoint.save.bytes", os.path.getsize(_arg(fn, args, kwargs, "path")))


def _count_hashed_bytes(tracer, fn, args, kwargs, out):
    tracer.count("manifest.hashed_bytes", os.path.getsize(_arg(fn, args, kwargs, "path")))


def _count_roc_cells(tracer, fn, args, kwargs, out):
    tracer.count("metrics.micro_roc.cells", np.asarray(_arg(fn, args, kwargs, "scores")).size)


# span name -> (counter, hook, whether the hook needs the call to return).
# Hooks that read only arguments run before the call, so a call that raises
# is still counted.
COUNTERS = {
    "model.ProteinEncoder.forward_classify": ("model.mask_sum", _count_forward, False),
    "model.ProteinEncoder.forward_mlm": ("model.mask_sum", _count_forward, False),
    "splitter.cluster_sequences": ("splitter.clusters", _count_clusters, True),
    "checkpoint.save_checkpoint": ("checkpoint.save.bytes", _count_saved_bytes, True),
    "manifest.sha256_file": ("manifest.hashed_bytes", _count_hashed_bytes, False),
    "metrics.micro_roc": ("metrics.micro_roc.cells", _count_roc_cells, False),
}


def _autodiff_hook(tracer, name, tensor_type):
    """Counts an op's output and wraps the backward closure it recorded."""

    def hook(args, kwargs, out):
        if not isinstance(out, tensor_type):
            return
        if any(out is a for a in args) or any(out is v for v in kwargs.values()):
            return  # the op returned an input unchanged (dropout with p=0)
        tracer.count(f"{name}.out_bytes", out.data.nbytes)
        if out._parents:
            tracer.count("autodiff.graph_nodes", 1)
            tracer.count("autodiff.graph_bytes", out.data.nbytes)
        if out._backward is not None:
            out._backward = _timed(tracer, f"{name}.bwd", out._backward)

    return hook


def _timed(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        sid = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(sid)

    return wrapper


def _run_counter(tracer, counter, fn, args, kwargs, out):
    if counter[0] in tracer.broken:
        return
    try:
        counter[1](tracer, fn, args, kwargs, out)
    except (TypeError, KeyError, AttributeError, OSError):
        tracer.broken.add(counter[0])


def _wrapper(tracer, name, site, fn, hook=None):
    counter = COUNTERS.get(name)
    before = counter is not None and not counter[2]
    after = counter is not None and counter[2]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        tracer.hits[site] += 1
        if before:
            _run_counter(tracer, counter, fn, args, kwargs, None)
        sid = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        if hook is not None:
            hook(args, kwargs, out)
        if after:
            _run_counter(tracer, counter, fn, args, kwargs, out)
        return out

    wrapper.__perfbench_site__ = site
    return wrapper


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def _public_methods(cls):
    for attr, member in vars(cls).items():
        if not inspect.isfunction(member):
            continue
        if attr == "__init__" and not dataclasses.is_dataclass(cls):
            yield attr, member
        elif not attr.startswith("_"):
            yield attr, member


def install(tracer, package):
    """Wrap the package's public functions and methods; returns the modules."""
    modules = {}
    for info in pkgutil.iter_modules(package.__path__):
        modules[info.name] = importlib.import_module(f"{package.__name__}.{info.name}")
    tensor_type = getattr(modules.get("autodiff"), "Tensor", None)

    canonical = {}  # id(function) -> span name
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                canonical[id(obj)] = f"{short}.{attr}"
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for meth, fn in list(_public_methods(obj)):
                    name = f"{short}.{obj.__name__}.{meth}"
                    setattr(obj, meth, _wrapper(tracer, name, name, fn))
                    tracer.sites[name] = name
                    tracer.names.add(name)

    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            name = canonical.get(id(obj)) if inspect.isfunction(obj) else None
            if name is None:
                continue
            site = f"{short}.{attr}"
            hook = None
            if name.startswith("autodiff.") and tensor_type is not None:
                hook = _autodiff_hook(tracer, name, tensor_type)
            setattr(mod, attr, _wrapper(tracer, name, site, obj, hook))
            tracer.sites[site] = name
            tracer.names.add(name)
    return modules


def unpatched_sites(modules, sites):
    """Expected binding sites that exist in the program but carry no wrapper.
    Sites whose name no longer exists are skipped: their metrics go absent."""
    bad = []
    for site in sites:
        parts = site.split(".")
        obj = modules.get(parts[0])
        for part in parts[1:]:
            obj = getattr(obj, part, None) if obj is not None else None
        if obj is None:
            continue
        if getattr(obj, "__perfbench_site__", None) != site:
            bad.append(site)
    return bad


# ---------------------------------------------------------------------------
# span statistics
# ---------------------------------------------------------------------------

def self_times(spans):
    """Per-span (duration, self time) arrays; self = duration minus children."""
    if not spans:
        return np.zeros(0), np.zeros(0)
    parent = np.array([s[1] for s in spans], dtype=np.int64)
    dur = np.array([s[4] - s[3] for s in spans])
    child = np.zeros(len(spans))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur, dur - child


def aggregate(spans, weight_of_run):
    """name -> [calls, inclusive s, self s], each span weighted by its run."""
    dur, self_s = self_times(spans)
    stats = defaultdict(lambda: [0.0, 0.0, 0.0])
    for i, span in enumerate(spans):
        w = weight_of_run(span[5])
        row = stats[span[2]]
        row[0] += w
        row[1] += w * dur[i]
        row[2] += w * self_s[i]
    return stats


def covered_by_run(spans, own, subtree):
    """run id -> self time of the spans some layer row reports: spans named
    in `own` or `subtree`, and every span below one named in `subtree`. The
    stack is empty between runs, so every span's parent belongs to the same
    run, and a parent always comes before its children."""
    _, self_s = self_times(spans)
    below = [False] * len(spans)  # the span or one of its ancestors is in subtree
    out = defaultdict(float)
    for i, (_, parent, name, _, _, run_id) in enumerate(spans):
        below[i] = name in subtree or (parent >= 0 and below[parent])
        if below[i] or name in own:
            out[run_id] += self_s[i]
    return out
