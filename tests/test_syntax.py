import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    """Every source and test file is Python 3.10 syntax, the floor that
    pyproject.toml declares; ast checks the grammar, not the library calls."""
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def _top_level_names(tree: ast.Module) -> list[str]:
    """The names a module's top-level functions, classes and assignments bind."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _referenced_names(tree: ast.Module) -> set[str]:
    """Every name a module reads, as a name, an attribute or an import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_package_name_is_referenced_in_the_package():
    """Each top-level function, class and assignment in src/mixner is read
    somewhere in src/mixner (re-exports in __init__ count), so code that no
    command can reach shows up here rather than lingering as test-only code."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "src" / "mixner").glob("*.py"))}
    referenced = set().union(*map(_referenced_names, trees.values()))
    unreferenced = [f"{module}:{name}" for module, tree in trees.items()
                    for name in _top_level_names(tree)
                    if name not in referenced and not name.startswith("__")]
    assert unreferenced == []
