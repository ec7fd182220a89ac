"""The content-addressed store's mechanics, run once per configuration:
the JSON cell cache and the pickled function store share one layout,
write path, corrupt-entry policy, memory bound and ``clear``."""

from __future__ import annotations

import json
import logging
import pickle

import pytest

import repro.store
from repro.frontend import compile_c
from repro.inccomp.store import FunctionRecord, FunctionStore
from repro.ir.printer import format_function
from repro.runner.cache import SCHEMA_VERSION, ResultCache

TINY = "int add(int a, int b) {\n    return a + b;\n}\nint main(void) { return add(1, 2); }\n"


def _cell(tag: int = 0) -> dict:
    return {"counters": {"loads": 3 + tag}, "output": "total=45\n", "exit_code": 0}


def _record(tag: int = 0) -> FunctionRecord:
    module = compile_c(TINY, name="tiny")
    return FunctionRecord(
        function=module.functions["add"], stats={"licm.hoisted": tag}
    )


def _cell_view(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k != "schema"}


def _record_view(record: FunctionRecord) -> tuple:
    return format_function(record.function), record.stats


#: configuration -> (store class, extension, make a value, comparable view,
#: decodable bytes that fail the payload check)
CODECS = {
    "cell": (
        ResultCache, ".json", _cell, _cell_view,
        json.dumps({"schema": SCHEMA_VERSION - 1, "output": ""}).encode(),
    ),
    "function": (
        FunctionStore, ".pkl", _record, _record_view,
        pickle.dumps({"not": "a record"}),
    ),
}


@pytest.fixture(params=sorted(CODECS))
def codec(request):
    return CODECS[request.param]


KEY = "ab" + "0" * 62


@pytest.fixture()
def store_log(caplog):
    """Warnings from the store, whatever an earlier CLI test configured."""
    logger = logging.getLogger("repro.store")
    caplog.set_level(logging.WARNING, logger=logger.name)
    logger.addHandler(caplog.handler)
    yield caplog
    logger.removeHandler(caplog.handler)


def test_layout_is_two_hex_shards(codec, tmp_path):
    cls, suffix, make, view, _ = codec
    cls(tmp_path).put(KEY, make())
    assert [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")] == [
        "ab",
        f"ab/{KEY}{suffix}",
    ]
    fresh = cls(tmp_path)
    assert view(fresh.get(KEY)) == view(make())
    assert len(fresh) == 1


def test_round_trip_hands_out_fresh_objects(codec, tmp_path):
    cls, _, make, view, _ = codec
    store = cls(tmp_path)
    store.put(KEY, make())
    first, second = store.get(KEY), store.get(KEY)
    assert first is not second
    assert view(first) == view(second) == view(make())
    if isinstance(first, FunctionRecord):
        assert first.function is not second.function
    assert (store.hits, store.misses) == (2, 0)


def test_corrupt_entry_is_a_miss_and_unlinked(codec, tmp_path, store_log):
    cls, _, make, _, _ = codec
    cls(tmp_path).put(KEY, make())
    path = cls(tmp_path).path_for(KEY)
    path.write_bytes(b"\x00corrupt\xff{{{")
    fresh = cls(tmp_path)
    assert fresh.get(KEY) is None
    assert (fresh.hits, fresh.misses) == (0, 1)
    assert not path.exists()
    assert "dropping corrupt cache entry" in store_log.text


def test_wrong_payload_is_a_miss(codec, tmp_path):
    cls, _, _, _, wrong = codec
    store = cls(tmp_path)
    path = store.path_for(KEY)
    path.parent.mkdir(parents=True)
    path.write_bytes(wrong)
    assert store.get(KEY) is None
    assert (store.hits, store.misses) == (0, 1)


def test_failed_write_leaves_the_value_uncached(codec, tmp_path, store_log):
    cls, _, make, _, _ = codec
    blocker = tmp_path / "file"
    blocker.write_text("a regular file where the root's parent should be")
    store = cls(blocker / "cache")
    store.put(KEY, make())  # must not raise
    assert "left uncached" in store_log.text
    assert cls(blocker / "cache").get(KEY) is None
    assert list(tmp_path.iterdir()) == [blocker]


def test_clear_removes_memory_and_disk(codec, tmp_path):
    cls, _, make, _, _ = codec
    store = cls(tmp_path)
    store.put("aa11", make())
    store.put("bb22", make(1))
    assert len(store) == 2
    assert store.clear() == 2
    assert len(store) == 0
    assert store.get("aa11") is None and store._memory == {}
    # roots that were never written clear and count as empty
    assert cls(tmp_path / "never-made").clear() == 0
    assert len(cls(tmp_path / "never-made")) == 0


def test_pickling_drops_the_memory_layer(codec, tmp_path):
    cls, _, make, view, _ = codec
    store = cls(tmp_path)
    store.put(KEY, make())
    clone = pickle.loads(pickle.dumps(store))
    assert clone._memory == {}
    assert clone.root == store.root
    assert view(clone.get(KEY)) == view(make())  # disk still serves it


def test_fifo_memory_bound(codec, tmp_path, monkeypatch):
    cls, _, make, view, _ = codec
    monkeypatch.setattr(repro.store, "MEMORY_ENTRIES", 2)
    store = cls(tmp_path)
    keys = ["k1", "k2", "k3"]
    for index, key in enumerate(keys):
        store.put(key, make(index))
    # the function store keeps the newest two; the cell cache keeps none
    assert list(store._memory) == (keys[1:] if cls.memory else [])
    for index, key in enumerate(keys):  # evicted entries still read from disk
        assert view(store.get(key)) == view(make(index))


def test_fifo_eviction_bounds_memory_layer(monkeypatch):
    monkeypatch.setattr(repro.store, "MEMORY_ENTRIES", 2)
    store = FunctionStore(root=None)
    for key in ("k1", "k2", "k3"):
        store.put(key, _record())
    assert len(store) == 2
    assert store.get("k1") is None
    assert store.get("k2") is not None and store.get("k3") is not None
