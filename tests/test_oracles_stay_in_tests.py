"""The reference implementations under ``tests/oracles`` stay test-only.

Production code has one path per layer; the slow literal references
it is checked against live with the tests.  A module under ``src/``
that imports ``tests`` would turn an oracle back into a production
dependency, so this test reads every module's imports and fails on one.
"""

import ast
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _imported_modules(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module or "")
    return names


def test_no_src_module_imports_tests():
    modules = sorted(SRC_DIR.rglob("*.py"))
    assert modules, f"no modules found under {SRC_DIR}"
    offenders = [
        f"{path.relative_to(SRC_DIR)}: import {name}"
        for path in modules
        for name in _imported_modules(path)
        if name == "tests" or name.startswith("tests.")
    ]
    assert offenders == []
