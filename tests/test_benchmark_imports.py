"""The benchmark's replay and worker import names from the package; a
pruning change that removes one would break ``--trace 1`` silently."""
import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _package_imports():
    for script in ("replay.py", "worker.py"):
        for node in ast.walk(ast.parse((PERFBENCH / script).read_text())):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "mvos":
                for alias in node.names:
                    yield script, node.module, alias.name


IMPORTS = list(_package_imports())


def test_scripts_import_from_the_package():
    assert {module for _, module, _ in IMPORTS} >= {"mvos.experiment", "mvos.copula", "mvos.streams"}


@pytest.mark.parametrize("script,module,name", IMPORTS, ids=[f"{s}:{m}.{n}" for s, m, n in IMPORTS])
def test_imported_name_resolves(script, module, name):
    assert hasattr(importlib.import_module(module), name), f"{script} imports {name} from {module}"
