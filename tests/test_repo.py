"""Repository checks: the README's Python examples run, every
module-level definition and every class member in the package has a
user outside itself, the routing records have one builder each, and no
search recurses as deep as its input."""

from __future__ import annotations

import ast
import importlib
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "beamroute"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_readme_python_examples_run(monkeypatch, capsys):
    # the blocks run in order in one namespace, as a reader would paste
    # them: the candidate block reuses the generated scene
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) >= 5
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)
    assert "BS -> IRS" in capsys.readouterr().out
    assert namespace["route"].vertices == (0, 1, 2, 5)


def _references(tree: ast.Module):
    """(name, owner) for every name, attribute and import in a module,
    owner being the top-level definition the reference sits in."""
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif isinstance(node, ast.alias):
                yield node.name, owner


def test_every_package_definition_is_used():
    # code only the tests need lives under tests/, not in the package
    users = defaultdict(set)
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for name, owner in _references(ast.parse(path.read_text(encoding="utf-8"))):
            users[name].add((path, owner))
    unused = [
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, DEFINITIONS) and not users[node.name] - {(path, node.name)}
    ]
    assert unused == []


def _member_uses(tree: ast.Module):
    """(name, node) for every attribute access and call keyword."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node


def test_every_class_member_is_used():
    # a method, property or field of a package class that only the
    # tests read belongs under tests/ too; dunders and overrides of a
    # base class's method are called by Python or by the base class
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    }
    uses = defaultdict(list)
    for tree in trees.values():
        for name, node in _member_uses(tree):
            uses[name].append(node)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            bases = getattr(importlib.import_module(f"beamroute.{path.stem}"), cls.name).__mro__[1:]
            for member in cls.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                else:
                    continue
                if name.startswith("__") and name.endswith("__"):
                    continue
                if any(hasattr(base, name) for base in bases):
                    continue
                own = set(map(id, ast.walk(member)))
                if all(id(node) in own for node in uses[name]):
                    unused.append(f"{path.name}:{cls.name}.{name}")
    assert unused == []


def test_numpy_stays_in_the_generators():
    # the scene, routing and route selection read plain ints and floats;
    # numpy is for the CLI's random scene generator alone
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.name)
    assert importers == {"cli.py"}


def _calls(node: ast.AST, owner: str = ""):
    """(called name, qualified name of the innermost definition around
    the call) for every call of a name or an attribute under node; a
    method called on ``super()`` is named ``super().<method>``."""
    for child in ast.iter_child_nodes(node):
        inner = owner
        if isinstance(child, DEFINITIONS):
            inner = f"{owner}.{child.name}" if owner else child.name
        if isinstance(child, ast.Call):
            yield _called_name(child.func), owner
        yield from _calls(child, inner)


def _called_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if not isinstance(func, ast.Attribute):
        return ""
    parent = func.value
    if isinstance(parent, ast.Call) and getattr(parent.func, "id", "") == "super":
        # a parent class's method, not the caller's own
        return f"super().{func.attr}"
    return func.attr


def test_routing_records_have_one_builder_each():
    # RoutingTopology, LosGraph and PathGraph re-check nothing on
    # construction: the one builder of each makes its invariants, so a
    # second builder in the package must bring its own proof.  Every
    # RoutingSolution comes from _finish, which audits it.
    builders = defaultdict(set)
    for path in PACKAGE.glob("*.py"):
        for name, owner in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            builders[name].add(f"{path.name}:{owner}")
    assert builders["RoutingTopology"] == {"scene.py:Scene.topology"}
    assert builders["LosGraph"] == {"graph.py:build_routing_graph"}
    assert builders["PathGraph"] == {"clique.py:build_path_graph"}
    assert builders["RoutingSolution"] == {"solver.py:_finish"}


def test_no_package_function_calls_itself():
    # Python's stack holds about a thousand frames, and a 1,200-surface
    # chain or a 1,100-user scene is a valid input: a search as deep as
    # its input walks an explicit stack instead.  The sequential walk
    # recurses once per user, at most MAX_SEQUENTIAL_USERS deep.
    recursive = set()
    for path in PACKAGE.glob("*.py"):
        for name, owner in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            if owner and name == owner.rpartition(".")[2]:
                recursive.add(f"{path.name}:{owner}")
    assert recursive <= {"solver.py:solve_sequential.walk"}
