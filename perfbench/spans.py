"""Span tracing around calls into shotrope's public functions.

The tracer wraps functions and methods of the program's modules from the
outside, keeps every span (name, start, end, parent) in memory, and puts
the originals back when it is uninstalled.  Nothing here is imported by
the program, and an untraced run never installs a wrapper.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

# (span name, module, attribute path).  A function bound under the same
# object in other shotrope modules (`from .attention import ...`) is
# wrapped there too.
SPANS = (
    ("engine.train", "shotrope.engine", "train"),
    ("engine.sample", "shotrope.engine", "sample"),
    ("engine.sample_infinite", "shotrope.engine", "sample_infinite"),
    ("engine.metrics", "shotrope.engine", "metrics_on_field"),
    ("engine.adamw", "shotrope.engine", "AdamW.step"),
    ("model.forward", "shotrope.model", "denoiser_forward"),
    ("model.caption_context", "shotrope.model", "caption_context"),
    ("attention.self", "shotrope.attention", "multishot_self_attention"),
    ("attention.cross", "shotrope.attention", "multishot_cross_attention"),
    ("attention.scaled_dot", "shotrope.attention", "scaled_dot_attention"),
    ("tensor.backward", "shotrope.tensor", "GradTape.backward"),
    ("tensor.matmul", "shotrope.tensor", "matmul"),
    ("tensor.gelu", "shotrope.tensor", "gelu"),
    ("tensor.softmax_rows", "shotrope.tensor", "softmax_rows"),
    ("tensor.layernorm", "shotrope.tensor", "layernorm"),
    ("tensor.rope_pairs", "shotrope.tensor", "rope_pairs"),
    ("tensor.slice_cols", "shotrope.tensor", "slice_cols"),
    ("tensor.concat_cols", "shotrope.tensor", "concat_cols"),
    ("tensor.add", "shotrope.tensor", "add"),
    ("tensor.sub", "shotrope.tensor", "sub"),
    ("tensor.mul", "shotrope.tensor", "mul"),
    ("tensor.scale", "shotrope.tensor", "scale"),
    ("tensor.transpose", "shotrope.tensor", "transpose"),
    ("tensor.tmean", "shotrope.tensor", "tmean"),
    ("tensor.concat_rows", "shotrope.tensor", "concat_rows"),
    ("tensor.slice_rows", "shotrope.tensor", "slice_rows"),
    ("tensor.gather_rows", "shotrope.tensor", "gather_rows"),
    ("rope.phase_tables_1d", "shotrope.rope", "phase_tables_1d"),
    ("rope.phase_tables_3d", "shotrope.rope", "phase_tables_3d"),
    ("shots.token_positions", "shotrope.shots", "ShotLayout.token_positions"),
    ("synthetic.make_batch", "shotrope.synthetic", "make_batch"),
    ("checkpoint.load", "shotrope.checkpoint", "load_checkpoint"),
)

# counted on every call, without a span
COUNTERS = (("tensor.tape_nodes", "shotrope.tensor", "GradTape.record"),)

NS_PER_MS = 1e6
ROOTS = ("engine.train", "engine.sample", "engine.sample_infinite")
TENSOR_OTHER = (
    "tensor.add", "tensor.sub", "tensor.mul", "tensor.scale", "tensor.transpose",
    "tensor.tmean", "tensor.concat_rows", "tensor.slice_rows", "tensor.gather_rows",
)

# per-layer metric -> (unit, how it is derived from the span totals)
#   ("incl", names): inclusive ms per operation, summed over names
#   ("self", names): self ms per operation
#   ("calls", names): calls per operation
#   ("count", key): counter per operation
#   ("per_call", name): inclusive ms per call
LAYER_METRICS = {
    "model.forward_ms": ("ms", ("incl", ("model.forward",))),
    "model.forward.self_ms": ("ms", ("self", ("model.forward",))),
    "model.forward_calls": ("count", ("calls", ("model.forward",))),
    "model.caption_context_ms": ("ms", ("incl", ("model.caption_context",))),
    "attention.self_ms": ("ms", ("incl", ("attention.self",))),
    "attention.self.self_ms": ("ms", ("self", ("attention.self",))),
    "attention.cross_ms": ("ms", ("incl", ("attention.cross",))),
    "attention.cross.self_ms": ("ms", ("self", ("attention.cross",))),
    "attention.scaled_dot_ms": ("ms", ("incl", ("attention.scaled_dot",))),
    "tensor.gelu_ms": ("ms", ("incl", ("tensor.gelu",))),
    "tensor.matmul_ms": ("ms", ("incl", ("tensor.matmul",))),
    "tensor.matmul_calls": ("count", ("calls", ("tensor.matmul",))),
    "tensor.matmul_gflop": ("GFLOP", ("count", "tensor.matmul_gflop")),
    "tensor.softmax_rows_ms": ("ms", ("incl", ("tensor.softmax_rows",))),
    "tensor.layernorm_ms": ("ms", ("incl", ("tensor.layernorm",))),
    "tensor.rope_pairs_ms": ("ms", ("incl", ("tensor.rope_pairs",))),
    "tensor.rope_pairs_calls": ("count", ("calls", ("tensor.rope_pairs",))),
    "tensor.head_split_ms": ("ms", ("incl", ("tensor.slice_cols", "tensor.concat_cols"))),
    "tensor.other_ms": ("ms", ("incl", TENSOR_OTHER)),
    "tensor.backward_ms": ("ms", ("incl", ("tensor.backward",))),
    "tensor.tape_nodes": ("count", ("count", "tensor.tape_nodes")),
    "engine.adamw_ms": ("ms", ("incl", ("engine.adamw",))),
    "engine.root.self_ms": ("ms", ("self", ROOTS)),
    "engine.metrics_ms": ("ms", ("incl", ("engine.metrics",))),
    "synthetic.make_batch_ms": ("ms", ("incl", ("synthetic.make_batch",))),
    "rope.phase_tables_ms": ("ms", ("incl", ("rope.phase_tables_1d", "rope.phase_tables_3d"))),
    "rope.phase_tables_calls": ("count", ("calls", ("rope.phase_tables_1d", "rope.phase_tables_3d"))),
    "shots.token_positions_ms": ("ms", ("incl", ("shots.token_positions",))),
    "shots.token_positions_calls": ("count", ("calls", ("shots.token_positions",))),
    "checkpoint.load_ms": ("ms", ("per_call", "checkpoint.load")),
}


def _matmul_gflop(args):
    a, b = (getattr(x, "data", x) for x in args[:2])
    m, k = a.shape
    return 2.0 * m * k * b.shape[1] / 1e9


# counters fed from a span's arguments
SPAN_COUNTERS = {"tensor.matmul": ("tensor.matmul_gflop", _matmul_gflop)}


def _resolve(module_name, path):
    """(owner, attribute, original) or None when the name is gone."""
    mod = sys.modules.get(module_name)
    if mod is None:
        return None
    owner = mod
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    orig = getattr(owner, parts[-1], None)
    if not callable(orig):
        return None
    return owner, parts[-1], orig


class Tracer:
    """Installs span wrappers; records spans as parallel lists."""

    def __init__(self):
        self.names = []  # span name id per span
        self.starts = []
        self.ends = []
        self.parents = []  # index of the enclosing span, -1 at the top
        self.name_table = []
        self.counters = {}
        self.absent = []
        self._stack = [-1]
        self._patches = []

    def _name_id(self, name):
        self.name_table.append(name)
        return len(self.name_table) - 1

    def _span_wrapper(self, fn, name):
        nid = self._name_id(name)
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack,
        )
        clock = time.perf_counter_ns
        counter = SPAN_COUNTERS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                key, amount = counter
                counters[key] = counters.get(key, 0.0) + amount(args)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()

        return wrapper

    def _count_wrapper(self, fn, key):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))
        if isinstance(owner, type):
            return
        # rebind aliases made by `from module import name`
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("shotrope") or mod is owner:
                continue
            for alias, obj in list(vars(mod).items()):
                if obj is orig:
                    setattr(mod, alias, wrapper)
                    self._patches.append((mod, alias, orig))

    def install(self):
        for name, module_name, path in SPANS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, orig = found
            self._patch(owner, attr, orig, self._span_wrapper(orig, name))
        for key, module_name, path in COUNTERS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(key)
                continue
            owner, attr, orig = found
            self.counters[key] = 0
            self._patch(owner, attr, orig, self._count_wrapper(orig, key))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def spans(self):
        """(name, start_ns, end_ns, parent) per span, in call order."""
        table = self.name_table
        return [
            (table[n], s, e, p)
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]

    def write(self, path, extra=None):
        doc = {
            "names": self.name_table,
            "name": self.names,
            "start_ns": self.starts,
            "end_ns": self.ends,
            "parent": self.parents,
            "counters": self.counters,
            "absent": self.absent,
        }
        doc.update(extra or {})
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval covered by its child spans (overlapping children count once).

    spans: sequence of (name, start, end, parent index or -1).
    """
    children = {}
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def totals(spans):
    """name -> [calls, inclusive, self] summed over all spans of a name."""
    acc = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = acc.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += own
    return acc


def layer_metrics(spans, counters, n_ops):
    """Per-layer metrics, per workload operation, from spans and counters."""
    acc = totals(spans)
    out = {}
    for metric, (unit, (kind, arg)) in LAYER_METRICS.items():
        if kind == "incl":
            value = sum(acc.get(n, (0, 0, 0))[1] for n in arg) / NS_PER_MS / n_ops
        elif kind == "self":
            value = sum(acc.get(n, (0, 0, 0))[2] for n in arg) / NS_PER_MS / n_ops
        elif kind == "calls":
            value = sum(acc.get(n, (0, 0, 0))[0] for n in arg) / n_ops
        elif kind == "count":
            value = counters.get(arg, 0) / n_ops
        else:  # per_call
            calls, incl, _ = acc.get(arg, (0, 0, 0))
            value = incl / NS_PER_MS / calls if calls else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out
