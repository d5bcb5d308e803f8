"""The benchmark in perfbench/ and tools/bitcheck.py call into shotrope by
name, and read the committed checkpoints' sidecars.  These tests read those
scripts with `ast`, without importing them, so that nothing is written under
their directories; they check that every name the scripts take from shotrope
still resolves, that every keyword they pass to a shotrope callable is still
one of its parameters, and that every committed sidecar still loads.

perfbench/spans.py is left out: it names what it traces as strings and
skips a name that no longer resolves."""

import ast
import glob
import importlib
import inspect
import json
import os

from shotrope import engine as E, model as M, synthetic as S

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
CALLERS = (
    "perfbench/workloads.py",
    "perfbench/make_weights.py",
    "tools/bitcheck.py",
)
SIDECAR_DIRS = ("tests/.cache", "perfbench/weights")
TRAIN_SECTIONS = ("train", "base_train", "finetune")


def _parse(path):
    """The script's syntax tree, and the shotrope name each imported alias binds."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "shotrope":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return tree, bound


def _dotted(node, bound):
    """The dotted shotrope name the expression node reads, or None."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in bound:
        return ".".join([bound[node.id], *reversed(chain)])
    return None


def _shotrope_names(path):
    """Every dotted name under shotrope that the script at path takes: the
    names it imports and the attribute chains it reads off them."""
    tree, bound = _parse(path)
    names = set(bound.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = _dotted(node, bound)
            if name is not None:
                names.add(name)
    return names


def _shotrope_keywords(path):
    """(line, dotted callable, keyword) of every keyword the script at path
    passes by name to a shotrope callable."""
    tree, bound = _parse(path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _dotted(node.func, bound)
            if name is not None:
                found += [(node.lineno, name, kw.arg) for kw in node.keywords if kw.arg]
    return found


def _lookup(dotted):
    """The object `shotrope.<module>.<attribute path>` names."""
    _, module, *path = dotted.split(".")
    obj = importlib.import_module(f"shotrope.{module}")
    for part in path:
        obj = getattr(obj, part)
    return obj


def _resolves(dotted):
    """Whether `shotrope.<module>.<attribute path>` names something."""
    try:
        _lookup(dotted)
    except (ImportError, AttributeError):
        return False
    return True


def _accepts(func, keyword):
    params = inspect.signature(func).parameters.values()
    return any(p.name == keyword or p.kind is p.VAR_KEYWORD for p in params)


def test_every_name_the_benchmark_and_bitcheck_take_from_shotrope_resolves():
    missing = []
    for caller in CALLERS:
        names = _shotrope_names(os.path.join(ROOT, caller))
        assert names, f"{caller} takes no name from shotrope"
        missing += [(caller, name) for name in sorted(names) if not _resolves(name)]
    assert not missing


def test_every_keyword_the_benchmark_and_bitcheck_pass_to_shotrope_is_accepted():
    """A keyword the callee no longer takes fails only when that line runs."""
    rejected = []
    for caller in CALLERS:
        keywords = _shotrope_keywords(os.path.join(ROOT, caller))
        assert keywords, f"{caller} passes no keyword to shotrope"
        rejected += [
            (caller, line, name, kw)
            for line, name, kw in keywords
            if _resolves(name) and not _accepts(_lookup(name), kw)
        ]
    assert not rejected


def test_every_committed_sidecar_loads_and_round_trips():
    paths = sorted(
        p for d in SIDECAR_DIRS for p in glob.glob(os.path.join(ROOT, d, "*.ecsh.json"))
    )
    assert paths
    for path in paths:
        with open(path) as fh:
            sidecar = json.load(fh)
        model_cfg = M.DenoiserConfig.from_dict(sidecar["model"])
        assert model_cfg.to_dict() == sidecar["model"], path
        world = S.SyntheticWorld.from_config(sidecar["world"])
        assert world.config() == sidecar["world"], path
        for section in TRAIN_SECTIONS:
            if section in sidecar:
                train = E.TrainConfig.from_dict(sidecar[section]).to_dict()
                assert json.loads(json.dumps(train)) == sidecar[section], path
