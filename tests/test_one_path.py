"""One path per job in shotrope, checked with `ast`: a seed becomes a numpy
generator only inside `tensor.seeded_rng`, `cli` makes directories only
inside `_run_dir`, which removes them again when its command fails, and the
GELU formula is written only in `tensor._gelu_rows`, which `gelu` and `ffn` share."""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "shotrope")
SEEDING = {"default_rng", "SeedSequence", "RandomState"}
MAKING_DIRS = {"makedirs", "mkdir"}
GELU_FORMULA = {"GELU_K", "tanh"}


def _mention(node):
    """The name node mentions: a variable, an attribute or an imported name."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.split(".")[-1]
    return None


def named_outside(source, names, inside=None):
    """(line, name) of every mention of one of names in source that is not
    within a function called inside."""
    found = []

    def visit(node, allowed):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == inside:
            allowed = True
        name = _mention(node)
        if name in names and not allowed:
            found.append((node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child, allowed)

    visit(ast.parse(source), False)
    return sorted(found)


def _read(name):
    with open(os.path.join(SRC, name)) as fh:
        return fh.read()


def test_the_check_sees_a_generator_made_outside_its_function():
    source = (
        "import numpy as np\nfrom numpy.random import RandomState\n"
        "def seeded_rng(seed):\n    return np.random.default_rng(np.random.SeedSequence(seed))\n"
        "def draw(seed):\n    return np.random.default_rng(seed).uniform()\n"
    )
    assert named_outside(source, SEEDING, "seeded_rng") == [(2, "RandomState"), (6, "default_rng")]


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(SRC, "*.py"))), ids=os.path.basename
)
def test_seeds_become_generators_only_in_seeded_rng(path):
    inside = "seeded_rng" if os.path.basename(path) == "tensor.py" else None
    with open(path) as fh:
        assert named_outside(fh.read(), SEEDING, inside) == []


def test_tensor_names_numpy_seeding_only_to_make_the_generator():
    assert sorted(name for _, name in named_outside(_read("tensor.py"), SEEDING)) == [
        "SeedSequence", "default_rng"
    ]


def test_the_check_sees_a_directory_made_outside_run_dir():
    source = (
        "import os\ndef _run_dir(path):\n    os.makedirs(path)\n"
        "def cmd(args):\n    os.makedirs(args.out, exist_ok=True)\n"
    )
    assert named_outside(source, MAKING_DIRS, "_run_dir") == [(5, "makedirs")]


def test_cli_makes_directories_only_in_run_dir():
    source = _read("cli.py")
    assert named_outside(source, MAKING_DIRS, "_run_dir") == []
    assert named_outside(source, MAKING_DIRS) != []


def test_the_check_sees_a_gelu_formula_outside_its_helper():
    source = (
        "import numpy as np\nGELU_K = 0.044715\n"
        "def _gelu_rows(x):\n    return np.tanh(x + GELU_K * x)\n"
        "def fast_gelu(x):\n    return 0.5 * x * (1.0 + np.tanh(x))\n"
        "def cubic(T):\n    return T.GELU_K\n"
    )
    assert named_outside(source, GELU_FORMULA, "_gelu_rows") == [
        (2, "GELU_K"), (6, "tanh"), (8, "GELU_K")
    ]


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(SRC, "*.py"))), ids=os.path.basename
)
def test_the_gelu_formula_is_written_only_in_its_helper(path):
    """GELU_K and np.tanh are named only inside tensor._gelu_rows; outside
    it, tensor.py names GELU_K once, where it defines it."""
    in_tensor = os.path.basename(path) == "tensor.py"
    with open(path) as fh:
        found = named_outside(fh.read(), GELU_FORMULA, "_gelu_rows" if in_tensor else None)
    assert [name for _, name in found] == (["GELU_K"] if in_tensor else [])
