"""In-memory span tracer installed around gkconv's public functions.

Every public function of the traced modules is wrapped once, and the
wrapper is bound at each gkconv module attribute that names the original
function, because that attribute is where callers look the function up
(``model.py`` imports ``ego_subgraph`` by name, so the binding in
``gkconv.model`` is the one its calls go through). Two hot methods are
wrapped on their class. Nothing under ``src/`` changes: ``uninstall``
puts every original binding back.

A span is (name, start, end, parent index); the run is single-threaded
and synchronous, so child spans nest inside their parent and a span's
self time is its duration minus the durations of its direct children.
Counters are taken from arguments, return values and public fields only.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import gkconv  # noqa: F401  (loads every traced submodule)

LAYERS = ("graphs", "kernels", "model", "quantizer", "head", "drd",
          "experiment", "checkpoint")

# span names that differ from "<module>.<function>"
RENAMES = {
    "kernels.graphlet3_vector": "kernels.graphlet3",
    "quantizer.fit_update": "quantizer.fit",
    "drd.drd_step_batched": "drd.step",
    "checkpoint.save_checkpoint": "checkpoint.save",
    "checkpoint.load_checkpoint": "checkpoint.load",
}

# (module, class, method, span name) wrapped on the class itself
METHODS = (
    ("model", "ForwardEngine", "forward_graphs", "model.forward"),
    ("kernels", "WlColorTable", "refine", "kernels.refine"),
)


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent]
        self.counters = Counter()
        self.samples = defaultdict(list)
        self._stack = []
        self._undo = []      # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec = spans[idx]
                rec[1] = t0
                rec[2] = t1
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every public function of LAYERS at all its bindings."""
        mods = [m for n, m in sys.modules.items()
                if (n == "gkconv" or n.startswith("gkconv.")) and m]
        wrapped = {}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("gkconv.") \
                        or owner not in LAYERS:
                    continue
                if id(obj) not in wrapped:
                    name = f"{owner}.{obj.__name__}"
                    name = RENAMES.get(name, name)
                    hooks = HOOKS.get(name, (None, None))
                    wrapped[id(obj)] = self._wrap(name, obj, *hooks)
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, wrapped[id(obj)])
        for modname, clsname, meth, name in METHODS:
            cls = getattr(sys.modules[f"gkconv.{modname}"], clsname)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(name, orig,
                                          *HOOKS.get(name, (None, None))))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summaries --------------------------------------------------------

    def span_table(self):
        """{name: {"calls", "s", "self_s"}} over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        table = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i]
        return table

    def layer_table(self):
        """{layer: {"s", "self_s"}}: busy time counts a span only when no
        ancestor span belongs to the same layer, so nested calls inside
        one layer are not counted twice."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        layer_of = [name.partition(".")[0] for name, _, _, _ in self.spans]
        outer = [True] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            p = parent
            while p >= 0:
                if layer_of[p] == layer_of[i]:
                    outer[i] = False
                    break
                p = self.spans[p][3]
        table = {layer: {"s": 0.0, "self_s": 0.0} for layer in LAYERS}
        for i, (_, t0, t1, _) in enumerate(self.spans):
            row = table[layer_of[i]]
            if outer[i]:
                row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i]
        return table

    def write(self, path, extra=None):
        """Spans (column form, times relative to the first span) and
        counters as one JSON file."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        base = self.spans[0][1] if self.spans else 0.0
        doc = {
            "names": names,
            "span_name": [ids[s[0]] for s in self.spans],
            "start_s": [round(s[1] - base, 9) for s in self.spans],
            "end_s": [round(s[2] - base, 9) for s in self.spans],
            "parent": [s[3] for s in self.spans],
            "counters": dict(self.counters),
            "samples": dict(self.samples),
        }
        if extra:
            doc.update(extra)
        tmp = f"{path}.tmp"
        with open(tmp, "w") as f:
            json.dump(doc, f, separators=(",", ":"))
        os.replace(tmp, path)


# -- counter hooks --------------------------------------------------------
# before(tracer, args, kwargs) -> (args, kwargs); after(tracer, args,
# kwargs, result). Both read arguments, return values and public fields.

def _refine_after(t, args, kwargs, result):
    t.counters["kernels.refine.nodes"] += args[1].num_nodes


def _forward_after(t, args, kwargs, result):
    engine = args[0]
    nodes = sum(f.shape[0] for f in result.features)
    t.counters["model.forward.egos"] += nodes * engine.net.num_layers


def _fit_after(t, args, kwargs, result):
    t.counters["quantizer.fit.rows"] += len(args[1])
    t.samples["quantizer.displacement"].append(result.last_displacement)
    t.counters["quantizer.degenerate_fits"] += int(result.degenerate)


def _batch_loss_after(t, args, kwargs, result):
    t.counters["head.graphs"] += len(args[1])


def _step_before(t, args, kwargs):
    # drd_step_batched(mask, phase, rng, responses, before_col, grads):
    # the responses callable comes from the forward pass, so time it here
    args = list(args)
    args[3] = t._wrap("drd.responses", args[3])
    return tuple(args), kwargs


def _step_after(t, args, kwargs, result):
    _, ok, est = result
    if ok:
        key = "drd.accepted_effective" if est < 0.0 else "drd.accepted_noop"
    else:
        # est == 0 without acceptance means the phase had no legal edit
        key = "drd.rejected" if est > 0.0 else "drd.no_edit"
    t.counters[key] += 1


def _save_after(t, args, kwargs, result):
    t.counters["checkpoint.bytes"] += os.path.getsize(result)


HOOKS = {
    "kernels.refine": (None, _refine_after),
    "model.forward": (None, _forward_after),
    "quantizer.fit": (None, _fit_after),
    "head.batch_loss": (None, _batch_loss_after),
    "drd.step": (_step_before, _step_after),
    "checkpoint.save": (None, _save_after),
}
