"""Outside-in tracer for the tsakit benchmark.

``install`` wraps every public function of the tsakit layers and rebinds the
attribute in every tsakit module namespace that holds it, so calls inside one
module (``is_stationary -> characteristic_roots``) are caught as well as calls
across modules. No tsakit source changes.

Spans (name, start, end, parent span, op id, raised, argument key) are kept in
memory and written once, when the traced process ends. ``per_op`` turns span
files into per-op self times and call counts.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "pipeline", "series", "regression", "stattests", "correlation",
          "armodel", "spectral", "special", "rng", "_linalg")

# Functions whose argument is recorded, so repeated work on the same input can
# be told apart from new work (distinct_ratio).
_KEY_OF = {"armodel.characteristic_roots": lambda model: hash(model.phi)}


def layer_name(module: str) -> str:
    """Metric prefix of a layer; metric names may not start with '_'."""
    return module.lstrip("_")


class Tracer:
    """In-memory span store plus the wrapper factory that fills it."""

    def __init__(self):
        self.names: list[str] = []
        self.op_id = -1
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.key = array("q")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        key_of = _KEY_OF.get(name)
        tracer, stack = self, self._stack
        name_ids, parents, ops = self.name_id, self.parent, self.op
        starts, ends, raised, keys = self.start, self.end, self.raised, self.key

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            keys.append(key_of(*args, **kwargs) if key_of else 0)
            raised.append(1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            raised[idx] = 0
            return result

        return traced

    def write(self, path, **marks: float) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.array(self.name_id, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 op=np.array(self.op, dtype=np.int32),
                 start=np.array(self.start, dtype=float),
                 end=np.array(self.end, dtype=float),
                 raised=np.array(self.raised, dtype=np.int8),
                 key=np.array(self.key, dtype=np.int64),
                 **{k: np.float64(v) for k, v in marks.items()})


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer, in every namespace holding them."""
    modules = [importlib.import_module(f"tsakit.{m}") for m in LAYERS]
    namespaces = [mod for name, mod in list(sys.modules.items())
                  if name == "tsakit" or name.startswith("tsakit.")]
    for mod in modules:
        layer = layer_name(mod.__name__.rsplit(".", 1)[1])
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            traced = tracer.wrap(f"{layer}.{attr}", fn)
            for ns in namespaces:
                for holder, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, holder, traced)


def per_op(path) -> tuple[dict[int, dict[str, dict]], dict[str, float]]:
    """Per op id, per function: calls, self_s, incl_s, raised, distinct keys.

    Self time is a span's duration minus the durations of its direct children.
    Also returns the scalar marks stored with the spans.
    """
    with np.load(path) as npz:
        data = {key: npz[key] for key in npz.files}
    names = [str(n) for n in data["names"]]
    name_id, parent, op = data["name_id"], data["parent"], data["op"]
    dur = data["end"] - data["start"]
    n = dur.size
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=n)
    self_s = dur - child[:n]
    m = len(names)
    out: dict[int, dict[str, dict]] = {}
    for op_id in np.unique(op).tolist():
        mask = op == op_id
        ids = name_id[mask]
        calls = np.bincount(ids, minlength=m)
        selfs = np.bincount(ids, weights=self_s[mask], minlength=m)
        incls = np.bincount(ids, weights=dur[mask], minlength=m)
        raised = np.bincount(ids, weights=data["raised"][mask], minlength=m)
        keys = data["key"][mask]
        stats = {}
        for j in np.flatnonzero(calls).tolist():
            stats[names[j]] = {
                "calls": int(calls[j]), "self_s": float(selfs[j]),
                "incl_s": float(incls[j]), "raised": int(raised[j]),
                "distinct": len(set(keys[ids == j].tolist())),
            }
        out[int(op_id)] = stats
    marks = {k: float(v) for k, v in data.items() if v.ndim == 0}
    return out, marks
