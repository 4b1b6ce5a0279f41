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
