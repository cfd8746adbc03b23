import pytest

from actionsense.assembly import build_instance, read_dataset, write_dataset
from actionsense.atomic import write_atomic


def failing(items):
    yield from items
    raise RuntimeError("writer died")


def test_failed_write_keeps_old_file_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.jsonl"
    write_atomic(path, ["old\n"])
    with pytest.raises(RuntimeError):
        write_atomic(path, failing(["new\n", "more\n"]))
    assert path.read_text() == "old\n"
    assert list(tmp_path.glob("*.tmp")) == []


def test_dataset_writer_is_atomic(tmp_path, corpus, fixture_triplets, rc_provider, resolved):
    instances = [
        build_instance(t, corpus, rc=rc_provider, resolved=resolved) for t in fixture_triplets[:2]
    ]
    path = tmp_path / "dataset.jsonl"
    write_dataset(instances, path)
    with pytest.raises(RuntimeError):
        write_dataset(failing(instances), path)
    assert read_dataset(path) == instances
    assert list(tmp_path.glob("*.tmp")) == []
