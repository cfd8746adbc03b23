"""The benchmark's span table names only attributes the package defines.

``perfbench/spans.py`` patches each (owner, attribute) of its tables by
looking it up in the owner's own ``__dict__``, so a rename in the package
would break ``perfbench/run.py --trace 1``; this check fails first.
"""

import importlib.util
from pathlib import Path

import pytest

from actionsense import cli
from actionsense.providers import ProviderError

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


def test_http_providers_retry_through_the_cli_name_the_tracer_counts(tmp_path, monkeypatch):
    # Tracer.install reads and replaces cli.with_retries to count providers.retries
    assert "with_retries" in vars(cli)
    retried, sleeps = [], []
    with_retries = cli.with_retries

    def recording(fn, attempts, base_delay):
        retried.append((attempts, base_delay))
        return with_retries(fn, attempts, base_delay, sleep=sleeps.append)

    monkeypatch.setattr(cli, "with_retries", recording)
    url = "http://127.0.0.1:1/parse"  # nothing listens on port 1
    parse = {"kind": "http", "url": url}
    cfg = cli.RunConfig(retries=2, retry_base_delay=0.5, providers={"parse": parse})
    built = cli.make_providers(cfg, tmp_path / "cache")
    try:
        with pytest.raises(ProviderError, match="request to .* failed"):
            built.parse.parse_many(["Chop the onion."])
    finally:
        built.close()
    assert retried == [(2, 0.5)] and sleeps == [0.5]
