"""The benchmark's span table names functions of shotrope; a rename that
drops one would silently zero its per-layer metric."""

import importlib
import os

SPANS_PY = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")

# names the span table lists that the program no longer has
KNOWN_ABSENT = {"tensor.slice_cols", "tensor.concat_cols"}


def _span_tables():
    """SPANS and COUNTERS of the benchmark's span table, read without
    importing it, so that nothing is written under perfbench/."""
    namespace = {"__name__": "perfbench_spans"}
    with open(SPANS_PY) as fh:
        exec(compile(fh.read(), SPANS_PY, "exec"), namespace)
    return namespace["SPANS"] + namespace["COUNTERS"]


def _resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_span_and_counter_resolves():
    table = _span_tables()
    absent = {name for name, module, path in table if not _resolves(module, path)}
    assert absent <= KNOWN_ABSENT, f"absent from shotrope: {sorted(absent - KNOWN_ABSENT)}"
