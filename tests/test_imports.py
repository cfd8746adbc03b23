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


def printed_by(script: str) -> int:
    """The number ``script`` prints, run in a fresh interpreter that imports this package."""
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    return int(result.stdout)

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
    assert printed_by(COUNT_GENERATED) == 21


# Counts the ForwardRefs typing makes while the CLI is imported: one per field
# annotation a NamedTuple is given as a string.
COUNT_FORWARD_REFS = """
import typing
made = []
init = typing.ForwardRef.__init__
typing.ForwardRef.__init__ = lambda ref, *args, **kwargs: made.append(1) or init(ref, *args, **kwargs)
import actionsense.cli
print(len(made))
"""


def test_importing_the_cli_makes_no_forward_references():
    assert printed_by(COUNT_FORWARD_REFS) == 0


def thread_uses(source: str) -> list[str]:
    """The thread pools, threads and locks ``source`` imports or builds."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("concurrent")]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").startswith("concurrent"):
                found.append(node.module)
            elif node.module == "threading":
                found += [a.name for a in node.names if a.name != "get_ident"]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "threading"
            and node.attr != "get_ident"
        ):
            found.append(f"threading.{node.attr}")
    return found


def test_thread_uses_are_found():
    source = (
        "import threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
        "import concurrent.futures\nfrom threading import Lock, get_ident\n"
        "lock = threading.Lock()\nthreading.Thread(target=print).start()\n"
        "name = threading.get_ident()\n"
    )
    assert thread_uses(source) == [
        "concurrent.futures", "concurrent.futures", "Lock", "threading.Lock", "threading.Thread"
    ]


# requests go out one at a time: the package starts no thread and takes no lock;
# atomic.py names its temp files by threading.get_ident()
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_starts_threads_or_takes_locks(module):
    assert thread_uses((PACKAGE / module).read_text(encoding="utf-8")) == []


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
