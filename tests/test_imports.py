"""The library is stdlib-only: every module imports the standard library or ``annuli``."""

import ast
import sys
from pathlib import Path

import annuli

SRC = Path(annuli.__file__).resolve().parent


def _top_level_imports(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_module_imports_only_the_standard_library_or_annuli():
    allowed = set(sys.stdlib_module_names) | {"annuli"}
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10
    outside = {p.name: sorted(_top_level_imports(p) - allowed) for p in modules}
    assert {name: bad for name, bad in outside.items() if bad} == {}
