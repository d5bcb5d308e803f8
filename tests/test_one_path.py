"""One path per job in shotrope, checked with `ast`: a seed becomes a numpy
generator only inside `tensor.seeded_rng`, `cli` makes directories only
inside `_run_dir`, which removes them again when its command fails, the
GELU formula is written only in `tensor._gelu_rows`, which `gelu` and `ffn`
share, a rotary basis's angles become phase tables only in `rope`, a file is
opened only in `checkpoint`, whose atomic writers and `open_input` every
read and write goes through, no function keeps a functools cache: what a
call may reuse is passed to it, guidance is `engine`'s alone: no function of
`model` or `attention` takes it and only `engine` combines the branches with
`model.guided`, and every public function and class of shotrope has a caller
in `src/`, `perfbench/` or `tools/`, but for the references listed in
UNCALLED."""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "shotrope")
SEEDING = {"default_rng", "SeedSequence", "RandomState"}
MAKING_DIRS = {"makedirs", "mkdir"}
GELU_FORMULA = {"GELU_K", "tanh"}
ANGLES = {"angles"}
# rope turns angles into phase tables; analysis sums them for the bound
READS_ANGLES = {"rope.py", "analysis.py"}
OPENING = {"open"}
CACHING = {"lru_cache", "cache"}
ROOT = os.path.join(SRC, os.pardir, os.pardir)
# the scripts that call into shotrope besides shotrope itself; perfbench/tests
# are tests, and perfbench/spans.py names what it traces as strings, which
# call nothing
CALLERS = ("perfbench/*.py", "tools/*.py")
# the public names that no caller runs, each kept for its reason
UNCALLED = {
    "tensor.transpose": "in the unfused chain that attention_core is tested against",
    "tensor.gelu": "in the unfused chain that ffn is tested against",
    "tensor.slice_rows": "a span of perfbench's table, and in the per-segment chain that "
                         "attention_core is tested against",
    "synthetic.decode_motion": "the oracle motion decode that motion adherence will score with",
    "analysis.attention_heatmaps": "the shot-block heatmaps acceptance tests c08 and c10 read",
    "tensor.grad_check": "the finite-difference oracle every gradient test compares with",
    "analysis.logit_bound_check": "the suppression-bound oracle that c03 and "
                                  "TestLogitBoundCheck assert on",
    "attention.segment_attention": "the one-branch segmented attention, with its ends-vs-rows "
                                   "refusal, that the kernel tests and c05 drive",
}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def test_the_check_sees_angles_read_outside_rope():
    source = (
        "import numpy as np\nfrom . import rope\n"
        "def tables(basis, pos):\n    return np.cos(pos[:, None] * basis.angles)\n"
    )
    assert named_outside(source, ANGLES) == [(4, "angles")]


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(SRC, "*.py"))), ids=os.path.basename
)
def test_angles_become_tables_only_in_rope(path):
    """A basis's angles are named only in rope.py (the basis, its tables and
    rope_1d) and analysis.py (the bound), so attention and the model build
    no second table."""
    with open(path) as fh:
        found = named_outside(fh.read(), ANGLES)
    assert (found != []) == (os.path.basename(path) in READS_ANGLES)


def test_the_check_sees_a_file_opened_outside_checkpoint():
    source = (
        "import io\ndef write_curve(rows, path):\n"
        "    with open(path, 'w') as fh:\n        fh.writelines(rows)\n"
        "def read(path, open_input):\n    return io.open(path).read() + open_input(path)\n"
    )
    assert named_outside(source, OPENING) == [(3, "open"), (6, "open")]


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(SRC, "*.py"))), ids=os.path.basename
)
def test_files_are_opened_only_in_checkpoint(path):
    """open is named only in checkpoint.py, so every file shotrope reads or
    writes goes through one module: no second writer, no write that is not
    atomic."""
    with open(path) as fh:
        found = named_outside(fh.read(), OPENING)
    assert (found != []) == (os.path.basename(path) == "checkpoint.py")


def cached_functions(source):
    """(line, name) of every function in source that a functools cache decorates."""
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for dec in node.decorator_list
        if _mention(dec.func if isinstance(dec, ast.Call) else dec) in CACHING
    )


def test_the_check_sees_a_cached_function():
    source = (
        "import functools\nfrom functools import cache\n"
        "@functools.lru_cache(maxsize=1)\ndef tables(n):\n    return n\n"
        "@cache\ndef rows(n):\n    return n\n"
        "@staticmethod\ndef plain(n):\n    return n\n"
    )
    assert cached_functions(source) == [(4, "tables"), (7, "rows")]


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(SRC, "*.py"))), ids=os.path.basename
)
def test_no_function_keeps_a_functools_cache(path):
    with open(path) as fh:
        assert cached_functions(fh.read()) == []


def taking(source, parameter):
    """The names of the functions in source that take parameter."""
    return sorted(
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in ast.walk(node.args)
        if isinstance(arg, ast.arg) and arg.arg == parameter
    )


def test_the_check_sees_a_function_that_takes_guidance():
    source = (
        "def forward(z, guidance=1.0):\n    return z\n"
        "def guided(c, u, *, guidance):\n    return c\n"
        "def step(z, scale):\n    return forward(z, guidance=scale)\n"
    )
    assert taking(source, "guidance") == ["forward", "guided"]


@pytest.mark.parametrize("name", ["model.py", "attention.py"])
def test_no_model_or_attention_function_takes_guidance(name):
    """A forward is one guidance branch: guidance combines two forwards in
    engine, so model and attention never see it."""
    assert taking(_read(name), "guidance") == []


def test_only_the_engine_combines_the_guidance_branches():
    readers = [name for name in sorted(os.listdir(SRC)) if name.endswith(".py")
               and "shotrope.model.guided" in shotrope_reads(_read(name), name[:-3])]
    assert readers == ["engine.py"]


def _imported_module(node):
    """The dotted shotrope module an import-from reads, or None."""
    if node.level:
        return "shotrope" + (f".{node.module}" if node.module else "")
    if (node.module or "").split(".")[0] == "shotrope":
        return node.module
    return None


def shotrope_reads(source, module=None):
    """Every dotted shotrope name that source reads: the names it imports and
    the names and attribute chains bound to them.  For the source of
    `shotrope.<module>`, its own top-level names are bound too, but a name
    read only inside its own definition is not read."""
    tree = ast.parse(source)
    bound, reads = {}, set()
    if module is not None:
        bound = {n.name: f"shotrope.{module}.{n.name}" for n in tree.body if isinstance(n, DEFS)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "shotrope":
                    bound[alias.asname or "shotrope"] = alias.name if alias.asname else "shotrope"
        elif isinstance(node, ast.ImportFrom) and (base := _imported_module(node)):
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{base}.{alias.name}"
                reads.add(f"{base}.{alias.name}")
    for stmt in tree.body:
        own = bound.get(stmt.name) if isinstance(stmt, DEFS) else None
        for node in ast.walk(stmt):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in bound:
                name = ".".join([bound[node.id], *reversed(chain)])
                if name != own:
                    reads.add(name)
    return reads


def unreferenced(modules, callers):
    """The public top-level functions and classes of modules ({name: source}
    of shotrope's modules) that neither modules nor callers (sources) read."""
    reads = set()
    for module, source in modules.items():
        reads |= shotrope_reads(source, module)
    for source in callers:
        reads |= shotrope_reads(source)
    return sorted(
        f"{module}.{node.name}"
        for module, source in modules.items()
        for node in ast.parse(source).body
        if isinstance(node, DEFS) and not node.name.startswith("_")
        and f"shotrope.{module}.{node.name}" not in reads
    )


def test_the_check_sees_an_unreferenced_function():
    """A name read only by itself, in a string or off a value that is not
    shotrope's (numpy's .transpose is not tensor.transpose) is not read."""
    modules = {
        "ops": (
            "import numpy as np\ndef used(x):\n    return x\n"
            "def unused(x):\n    return unused(x)\n"
            "def _private(x):\n    return x\nclass Exported:\n    pass\n"
        ),
        "model": (
            "from . import ops as O\n"
            "def forward(x):\n    return O.used(x).unused() + np.unused(x)\n"
        ),
        "__init__": "from .ops import Exported\n",
    }
    callers = ["from shotrope import model\nmodel.forward(1)\nNAMES = ['ops.unused']\n"]
    assert unreferenced(modules, callers) == ["ops.unused"]
    assert unreferenced(modules, []) == ["model.forward", "ops.unused"]


def test_every_public_name_of_shotrope_has_a_caller():
    names = sorted(os.path.basename(path) for path in glob.glob(os.path.join(SRC, "*.py")))
    modules = {name[:-3]: _read(name) for name in names}
    callers = []
    for pattern in CALLERS:
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            with open(path) as fh:
                callers.append(fh.read())
    assert len(callers) >= 4
    assert unreferenced(modules, callers) == sorted(UNCALLED)
