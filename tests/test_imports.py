"""What importing the package costs, and what its modules import."""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import actionsense

PACKAGE = Path(actionsense.__file__).parent

# Counts the functions dataclasses generates (one exec each) while the CLI is imported.
COUNT_GENERATED = """
import dataclasses
made = []
create_fn = dataclasses._create_fn
dataclasses._create_fn = lambda name, *args, **kwargs: made.append(name) or create_fn(name, *args, **kwargs)
import actionsense.cli
print(len(made))
"""


@pytest.mark.skipif(
    not hasattr(dataclasses, "_create_fn"), reason="this Python builds a dataclass's functions in one exec"
)
def test_importing_the_cli_generates_only_the_kept_dataclasses_functions():
    # RunConfig, Providers and _Run make __init__, __repr__ and __eq__; the frozen Corpus
    # and TokenSequence make __hash__, __setattr__ and __delattr__ too: 3 * 3 + 2 * 6.
    # Every other record is a NamedTuple, which generates none.
    result = subprocess.run(
        [sys.executable, "-c", COUNT_GENERATED], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert int(result.stdout) == 21


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports but never names again."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "from dataclasses import dataclass, field\nimport os.path\n@dataclass\nclass A: pass\n"
    assert unused_imports(source) == ["field", "os"]


# __init__.py imports the names the package exports, which it does not use itself
@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_no_module_imports_a_name_it_never_uses(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
