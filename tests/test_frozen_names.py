"""The benchmark in perfbench/ and tools/bitcheck.py call into shotrope by
name, and read the committed checkpoints' sidecars.  These tests read those
scripts with `ast`, without importing them, so that nothing is written under
their directories; they check that every name the scripts take from shotrope
still resolves, and that every committed sidecar still loads.

perfbench/spans.py is left out: it names what it traces as strings and
skips a name that no longer resolves."""

import ast
import glob
import importlib
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


def _shotrope_names(path):
    """Every dotted name under shotrope that the script at path takes: the
    names it imports and the attribute chains it reads off them."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    bound = {}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "shotrope":
            for alias in node.names:
                names.add(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            chain = [node.attr]
            root = node.value
            while isinstance(root, ast.Attribute):
                chain.append(root.attr)
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                names.add(".".join([bound[root.id], *reversed(chain)]))
    return names


def _resolves(dotted):
    """Whether `shotrope.<module>.<attribute path>` names something."""
    _, module, *path = dotted.split(".")
    try:
        obj = importlib.import_module(f"shotrope.{module}")
        for part in path:
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return False
    return True


def test_every_name_the_benchmark_and_bitcheck_take_from_shotrope_resolves():
    missing = []
    for caller in CALLERS:
        names = _shotrope_names(os.path.join(ROOT, caller))
        assert names, f"{caller} takes no name from shotrope"
        missing += [(caller, name) for name in sorted(names) if not _resolves(name)]
    assert not missing


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
