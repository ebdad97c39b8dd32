"""No module of src/otl imports a name it never reads. No linter runs in
CI, so this stands in for one on `from ... import` lines; `__init__.py`
imports to re-export, and is left out."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "otl"


def unused_imports(source):
    """The names bound by `from ... import` (but not `from __future__`) in
    `source` that it never reads."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    bound = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    return [name for name in bound if name not in read]


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_a_planted_unused_import_is_found():
    source = (SRC / "market.py").read_text(encoding="utf-8")
    planted = source.replace("import numpy as np\n", "import numpy as np\nfrom math import fsum\n")
    assert planted != source
    assert unused_imports(planted) == ["fsum"]
