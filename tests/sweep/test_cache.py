"""Reading the JSON cache directories earlier versions wrote.

Such a directory holds one ``<fingerprint>.json`` file per cell, with
the cache version, the fingerprint and the record.
:meth:`CampaignStore.import_cache` carries its entries into a store
under the rules the cache read them by: anything unreadable, stale or
fingerprint-mismatched is a miss (skipped), and an entry of a newer
schema raises :class:`CacheVersionError`.
"""

import json

import pytest

from repro.campaign import CACHE_VERSION, CacheVersionError, CampaignStore


RECORD = {"fingerprint": "f" * 64, "cost": 12.5, "hw_tasks": ["a", "b"]}


def write_entry(root, fp, doc):
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"{fp}.json"
    text = doc if isinstance(doc, str) else json.dumps(doc)
    path.write_text(text, encoding="utf-8")
    return path


def imported(tmp_path, root):
    """(records imported, the store they went into)."""
    store = CampaignStore(tmp_path / "store.sqlite")
    return store.import_cache(root), store


def test_roundtrip(tmp_path):
    root = tmp_path / "cache"
    fp = "a" * 64
    write_entry(root, fp, {"version": CACHE_VERSION, "fingerprint": fp,
                           "record": RECORD})
    count, store = imported(tmp_path, root)
    assert count == 1
    assert store.get(fp) == RECORD
    assert fp in store


def test_miss_on_absent(tmp_path):
    count, store = imported(tmp_path, tmp_path / "no-such-cache")
    assert count == 0
    assert store.get("b" * 64) is None


def test_corrupt_file_reads_as_miss(tmp_path):
    root = tmp_path / "cache"
    fp = "c" * 64
    write_entry(root, fp, "{not json")
    count, store = imported(tmp_path, root)
    assert count == 0
    assert store.get(fp) is None


def test_older_version_reads_as_miss(tmp_path):
    """Entries from an *older* schema are safe to recompute over."""
    root = tmp_path / "cache"
    fp = "d" * 64
    write_entry(root, fp, {"version": CACHE_VERSION - 1,
                           "fingerprint": fp, "record": RECORD})
    count, store = imported(tmp_path, root)
    assert count == 0
    assert store.get(fp) is None


def test_newer_version_raises_clear_error(tmp_path):
    """An entry written by a newer schema must fail loudly, naming the
    file and both versions, instead of reading as a silent miss that a
    recomputation would clobber."""
    root = tmp_path / "cache"
    fp = "d" * 64
    write_entry(root, fp, {"version": CACHE_VERSION + 1,
                           "fingerprint": fp, "record": RECORD})
    with pytest.raises(CacheVersionError) as exc:
        imported(tmp_path, root)
    message = str(exc.value)
    assert str(CACHE_VERSION + 1) in message
    assert str(CACHE_VERSION) in message
    assert f"{fp}.json" in message


def test_non_integer_version_reads_as_miss(tmp_path):
    root = tmp_path / "cache"
    fp = "e" * 64
    write_entry(root, fp, {"version": "2", "fingerprint": fp,
                           "record": RECORD})
    count, _store = imported(tmp_path, root)
    assert count == 0


def test_fingerprint_mismatch_reads_as_miss(tmp_path):
    root = tmp_path / "cache"
    fp = "e" * 64
    write_entry(root, fp, {"version": CACHE_VERSION,
                           "fingerprint": "0" * 64, "record": RECORD})
    count, store = imported(tmp_path, root)
    assert count == 0
    assert store.get(fp) is None
    assert store.get("0" * 64) is None


def test_overwrite_replaces(tmp_path):
    """Importing a directory again after an entry changed replaces the
    stored record, as rewriting the file replaced the cached one."""
    root = tmp_path / "cache"
    fp = "f" * 64
    store = CampaignStore(tmp_path / "store.sqlite")
    for cost in (1.0, 2.0):
        write_entry(root, fp, {"version": CACHE_VERSION, "fingerprint": fp,
                               "record": {"cost": cost}})
        assert store.import_cache(root) == 1
    assert store.get(fp) == {"cost": 2.0}
    assert len(store) == 1
