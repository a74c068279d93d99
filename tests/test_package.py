import ast
import pathlib
import sys

import rigidsolv


def test_every_exported_name_resolves():
    missing = [name for name in rigidsolv.__all__ if not hasattr(rigidsolv, name)]
    assert missing == []
    assert len(set(rigidsolv.__all__)) == len(rigidsolv.__all__)


def test_runtime_imports_only_the_standard_library():
    # sympy and hypothesis back the tests only; the package must not need them.
    outside = []
    for path in sorted(pathlib.Path(rigidsolv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert outside == []
