"""Static checks on the package source, with the standard library's ``ast``.

* No module imports a name it never uses (``__init__`` re-exports count
  as uses through ``__all__``).
* The choice of geometry lives in the per-space models of ``geometry``:
  the whole package compares ``kind`` at most twice (checking a scene's
  or a Space's kind name), and the covering, selection, search and CLI
  modules never do.
* No module imports numpy, in its body or in any function: the
  searches, the CLI and ``covering.covering_number`` draw their seeded
  streams from ``ballcover._rng``, and the geometry samplers draw only
  with ``normal`` and ``uniform`` from the generator their caller gives.
* No module imports ``dataclasses``, anywhere: the records are slotted
  classes or named tuples, so importing the package runs no dataclass
  code generation and does not load ``dataclasses`` or the ``inspect``
  module it imports.
* The line cover (``selection.besicovitch_cover_1d`` and every function
  or class of ``selection.py`` it reaches) calls no ``.insert(`` and no
  ``insort``: inserting into a sorted list costs time linear in its
  length, so a cover built that way is quadratic in the intervals.
* The restart loop of the annealed searches lives in ``search._anneal``
  alone: no other code of ``search.py`` calls ``_restart_rng`` or reads a
  ``.restarts`` attribute, so no search grows its own copy of the loop.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ballcover"
MODULES = sorted(SRC.glob("*.py"))
MAX_KIND_COMPARISONS = 2
# the functions that may import numpy, by module: none
NUMPY_FUNCTIONS = {}
KIND_FREE = {"covering.py", "selection.py", "search.py", "cli.py"}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported_names(tree):
    """(bound name, line) of every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield (a.asname or a.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield (a.asname or a.name), node.lineno


def used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for a in annotations:
            # a quoted annotation names its types inside the string
            if isinstance(a, ast.Constant) and isinstance(a.value, str):
                used |= {n.id for n in ast.walk(ast.parse(a.value)) if isinstance(n, ast.Name)}
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return used


def module_level_numpy_imports(tree):
    """Lines of the numpy imports that run when the module is imported:
    every statement outside a function body."""
    out = []
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        if any(n == "numpy" or n.startswith("numpy.") for n in names):
            out.append(node.lineno)
        todo.extend(n for n in ast.iter_child_nodes(node) if isinstance(n, ast.stmt))
    return sorted(out)


def numpy_import_sites(tree):
    """The innermost enclosing function of each numpy import, None in a
    module or class body."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(n == "numpy" or n.startswith("numpy.") for n in names):
                out.append(where)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(tree, None)
    return out


def dataclasses_imports(tree):
    """Lines of every import of ``dataclasses``, at any depth."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(n == "dataclasses" or n.startswith("dataclasses.") for n in names):
            out.append(node.lineno)
    return sorted(out)


def is_kind(node):
    return (isinstance(node, ast.Attribute) and node.attr == "kind") or (
        isinstance(node, ast.Name) and node.id == "kind"
    )


def kind_comparisons(tree):
    """Lines of the ==, !=, in and not in comparisons with a ``kind`` operand."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for k, op in enumerate(node.ops):
                if isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) and (
                    is_kind(operands[k]) or is_kind(operands[k + 1])
                ):
                    out.append(node.lineno)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = parse(path)
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_numpy_is_not_imported_at_module_level(path):
    lines = module_level_numpy_imports(parse(path))
    assert not lines, f"{path.name} imports numpy at module level (lines {lines})"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_numpy_is_imported_only_where_it_draws_samples(path):
    sites = numpy_import_sites(parse(path))
    allowed = NUMPY_FUNCTIONS.get(path.name, set())
    assert set(sites) <= allowed, f"{path.name} imports numpy in {sites}"


def test_the_numpy_site_check_sees_every_import():
    tree = ast.parse(
        "import numpy\ndef f():\n    import numpy as np\n    def g():\n"
        "        from numpy.random import default_rng\n    import os\n"
        "class C:\n    def m(self):\n        import numpy.linalg\n"
    )
    assert numpy_import_sites(tree) == [None, "f", "g", "m"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_dataclasses_is_never_imported(path):
    lines = dataclasses_imports(parse(path))
    assert not lines, f"{path.name} imports dataclasses (lines {lines})"


def test_the_dataclasses_check_sees_every_import():
    tree = ast.parse(
        "import dataclasses\nfrom dataclasses import dataclass\n"
        "def f():\n    import dataclasses as dc\n"
        "class C:\n    from dataclasses import field\nimport dataclasses_json\n"
    )
    assert dataclasses_imports(tree) == [1, 2, 4, 6]


def test_kind_comparisons_stay_in_the_geometry_models():
    found = {p.name: kind_comparisons(parse(p)) for p in MODULES}
    total = sum(len(lines) for lines in found.values())
    where = {name: lines for name, lines in found.items() if lines}
    assert total <= MAX_KIND_COMPARISONS, f"{total} kind comparisons: {where}"
    assert not {name for name in where if name in KIND_FREE}, where


def test_the_checks_see_what_they_look_for():
    tree = ast.parse(
        "import os\nfrom math import pi, tau\nfrom x import y as z\n"
        "def f(s) -> 'Q':\n    return s.kind == 'a' or 'b' != kind or kind in ('c',) or tau\n"
    )
    assert {n for n, _ in imported_names(tree)} - used_names(tree) == {"os", "pi", "z"}
    assert len(kind_comparisons(tree)) == 3
    tree = ast.parse(
        "import numpy as np\nif True:\n    from numpy import linalg\n"
        "class C:\n    import numpy.random\n    def m(self):\n        import numpy\n"
        "def f():\n    import numpy as np\n    from numpy import zeros\n"
    )
    assert module_level_numpy_imports(tree) == [1, 3, 5]


def reached_definitions(tree, root):
    """The module-level functions and classes that ``root`` names,
    directly or through one another, ``root`` included."""
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    reached, todo = {}, [root]
    while todo:
        name = todo.pop()
        if name in reached or name not in defs:
            continue
        reached[name] = defs[name]
        todo += [n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)]
    return reached


def test_the_line_cover_inserts_into_no_list():
    tree = parse(SRC / "selection.py")
    reached = reached_definitions(tree, "besicovitch_cover_1d")
    assert "besicovitch_cover_1d" in reached and "_phase_b_two_color" in reached
    found = []
    for name, node in sorted(reached.items()):
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if called == "insert" or called.startswith("insort"):
                receiver = ast.unparse(func.value) if isinstance(func, ast.Attribute) else ""
                found.append(f"{name}: {receiver}.{called} (line {call.lineno})")
    assert not found, found


def restart_loop_sites(tree):
    """(innermost enclosing function, line) of every ``_restart_rng`` call
    and every read of a ``.restarts`` attribute."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            called = isinstance(child, ast.Call) and getattr(child.func, "id", "") == "_restart_rng"
            read = isinstance(child, ast.Attribute) and child.attr == "restarts"
            if called or read:
                out.append((where, child.lineno))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, getattr(child, "name", "<lambda>") if inner else where)

    visit(tree, None)
    return out


def test_the_restart_loop_lives_in_the_annealing_driver():
    sites = restart_loop_sites(parse(SRC / "search.py"))
    assert {where for where, _ in sites} == {"_anneal"}, sites


def test_the_restart_loop_check_sees_every_site():
    tree = ast.parse(
        "def _anneal(config):\n    return [_restart_rng(config, r) for r in range(config.restarts)]\n"
        "def search(config):\n    n = config.restarts\n"
        "    def propose():\n        return _restart_rng(config, 0)\n"
        "    return lambda: n or cfg.restarts\n"
        "x = _restart_rng\n"
    )
    assert restart_loop_sites(tree) == [
        ("_anneal", 2), ("_anneal", 2), ("search", 4), ("propose", 6), ("<lambda>", 7),
    ]
