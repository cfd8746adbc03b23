"""The benchmark's span table names only attributes the package defines.

``perfbench/spans.py`` patches each (owner, attribute) of its tables by
looking it up in the owner's own ``__dict__``, so a rename in the package
would break ``perfbench/run.py --trace 1``; this check fails first.
"""

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the tables; patches nothing
    return module


def test_every_traced_and_counted_name_exists_on_its_owner():
    spans = load_spans()
    entries = [(owner, attr) for owner, attr, _ in spans.SPANS + spans.COUNTS]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in entries if attr not in vars(owner)]
    assert len(entries) > 30 and missing == []
