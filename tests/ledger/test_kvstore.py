"""Unit tests for the versioned key/value store."""

from repro.ledger.kvstore import KeyValueStore, NIL_VERSION, Version


def test_get_missing_key():
    store = KeyValueStore()
    assert store.get("x") is None
    assert store.get_value("x", default=42) == 42
    assert store.get_version("x") == NIL_VERSION


def test_put_and_get():
    store = KeyValueStore()
    version = Version(3, 1)
    store.put("x", "hello", version)
    entry = store.get("x")
    assert entry.value == "hello"
    assert entry.version == version
    assert store.get_version("x") == version


def test_overwrite_bumps_version():
    store = KeyValueStore()
    store.put("x", 1, Version(0, 0))
    store.put("x", 2, Version(1, 0))
    assert store.get_value("x") == 2
    assert store.get_version("x") == Version(1, 0)


def test_apply_writes_atomic_set():
    store = KeyValueStore()
    store.apply_writes({"a": 1, "b": 2}, Version(5, 2))
    assert store.get_version("a") == Version(5, 2)
    assert store.get_version("b") == Version(5, 2)
    assert len(store) == 2


def test_contains_and_len():
    store = KeyValueStore()
    assert "x" not in store
    store.put("x", 1, Version(0, 0))
    assert "x" in store
    assert len(store) == 1


def test_writes_applied_counter():
    store = KeyValueStore()
    store.apply_writes({"a": 1, "b": 2}, Version(0, 0))
    store.put("c", 3, Version(0, 1))
    assert store.writes_applied == 3


def test_version_ordering():
    assert Version(1, 5) < Version(2, 0)
    assert Version(2, 1) < Version(2, 3)
    assert NIL_VERSION < Version(0, 0)


def test_version_string():
    assert str(Version(7, 3)) == "7.3"


def test_snapshot_values():
    store = KeyValueStore()
    store.put("a", 1, Version(0, 0))
    store.put("b", "x", Version(0, 1))
    assert store.snapshot_values() == {"a": 1, "b": "x"}


def test_items_iterates_entries():
    store = KeyValueStore()
    store.put("a", 1, Version(0, 0))
    items = dict(store.items())
    assert items["a"].value == 1


def test_nil_version_distinct_from_genesis_writes():
    assert NIL_VERSION != Version(0, 0)


def test_state_tag_empty_then_untagged_by_direct_writes():
    store = KeyValueStore()
    assert store.state_tag == KeyValueStore().state_tag == ""
    store.put("a", 1, Version(0, 0))
    assert store.state_tag is None
    other = KeyValueStore()
    other.apply_writes({"a": 1}, Version(0, 0))
    assert other.state_tag is None  # equal contents, but nobody vouches for it


def test_apply_block_takes_entries_count_and_tag():
    source = KeyValueStore()
    source.put("a", 1, Version(0, 0))
    source.put("a", 2, Version(0, 1))
    source.put("b", 3, Version(0, 1))
    entries = dict(source.items())
    tag = object()
    store = KeyValueStore()
    store.apply_block(entries, 3, tag)
    assert store.state_tag is tag
    assert store.writes_applied == 3
    assert store.get("a") is source.get("a")
    assert store.snapshot_values() == {"a": 2, "b": 3}
