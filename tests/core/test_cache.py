"""The caching layers: fingerprints, the memo, the persistent cache."""

import dataclasses
import hashlib
import json
import os
import shutil
import stat
import sys
import tempfile
import threading

import pytest

from repro import cache as cache_module
from repro.cache import (
    CACHE_VERSION,
    CacheStats,
    ResultCache,
    canonicalize,
    clear_memo,
    fingerprint,
    memo_size,
    memoized,
)
from repro.core.config import ArchitectureConfig, HardwareConfig
from repro.errors import ConfigError


# -- fingerprinting ----------------------------------------------------------


def test_fingerprint_is_deterministic():
    hw = HardwareConfig()
    assert fingerprint(hw) == fingerprint(HardwareConfig())


def _bumped_values(value):
    """Candidate replacements for a field; the first one the config's
    validation accepts is used."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1, max(1, value - 1)]
    if isinstance(value, float):
        return [value * 1.5 + 1.0, value * 0.5]
    if isinstance(value, str):
        return [value + "-x"]
    if isinstance(value, dataclasses.Field):
        return []
    # Enums: any other member of the same class.
    return [m for m in type(value) if m is not value]


def _assert_every_field_changes_fingerprint(base):
    reference = fingerprint(base)
    for f in dataclasses.fields(base):
        value = getattr(base, f.name)
        for bumped in _bumped_values(value):
            try:
                variant = dataclasses.replace(base, **{f.name: bumped})
            except ConfigError:
                continue
            assert fingerprint(variant) != reference, f.name
            break
        else:
            # Validation rejects every candidate from this base (e.g.
            # trainbox requires an FPGA prep device); the field still
            # participates structurally: it is a key in the canonical
            # encoding.
            blob = json.dumps(canonicalize(base))
            assert f'"{f.name}"' in blob


def test_fingerprint_sensitive_to_every_hardware_field():
    """No HardwareConfig field may be invisible to the cache key."""
    _assert_every_field_changes_fingerprint(HardwareConfig())


def test_fingerprint_sensitive_to_every_architecture_field():
    _assert_every_field_changes_fingerprint(ArchitectureConfig.trainbox())


def test_fingerprint_distinguishes_float_and_int():
    assert fingerprint(1) != fingerprint(1.0)


def test_fingerprint_distinguishes_container_shapes():
    assert fingerprint([1, 2]) != fingerprint([2, 1])
    assert fingerprint({"a": 1}) != fingerprint({"a": 2})


def test_canonicalize_rejects_opaque_objects():
    with pytest.raises(ConfigError):
        canonicalize(object())
    with pytest.raises(ConfigError):
        fingerprint(object())


#: Digests recorded with the tree-building ``json.dumps(canonicalize(...))``
#: encoder.  Every persistent cache entry and service fingerprint is keyed
#: on these bytes: a changed digest orphans them all, so a change here must
#: come with a ``CACHE_VERSION`` bump, never a silent re-record.
GOLDEN_DIGESTS = {
    "analytical": "f3ef708dbb32d0223d252b939218e1baebcfdd1c30fea90f108f3f9f98a43ace",
    "des": "f7bff2b64a6f066f73bd5154ff5c7ccfcac1be4425f9a3d6c3de96404f017d47",
    "scaleout": "950f836538389d343e59104ac144f37f4257deba92bbe8e05954e69a1aebf8b9",
    "scaleout_config": "a2704e13cc95d1a054c7d12fa7f0e588c48e829fee3a9a845c95234151978c25",
    "hw_override": "26d08fb144c21c63ec51fd2d8d7ec6d5f71112d6e222f190d3d315ab9d610fd2",
    "fabric_bandwidth": "b520bd09fce5ae2bad140058c4069526ddb50def5cfb06b2eecc25b2950199ee",
    "simulate_request": "c38d13cbaae09339f298da00dc2ca43046c86582a303a89a49af41131b184eaa",
    "sweep_request": "1cafd5224801aa611dd4b36803a6cc6be512794cf1ff0534dc09f17d18ebf9c5",
    "fault_request": "0dae80cd888dab5b482294e592d23bf563e7724f51a2bf612e3694b692635b3c",
    "raw_values": "aaa159b014fda9cdba96e13ec8c7b0ca1aed3cb4c9ac3b7faa34832896aad28f",
}


def _golden_inputs():
    from repro import api
    from repro.core.config import PrepDevice
    from repro.core.scaleout import ScaleOutConfig
    from repro.core.sweeps import SweepPoint, cache_key
    from repro.workloads.registry import get_workload

    resnet = get_workload("Resnet-50")
    tsr = get_workload("Transformer-SR")
    return {
        "analytical": lambda: cache_key(
            SweepPoint(resnet, ArchitectureConfig.trainbox(), 64)
        ),
        "des": lambda: cache_key(
            SweepPoint(
                tsr, ArchitectureConfig.baseline(), 16, engine="des",
                des_iterations=30, des_buffer_batches=2,
            )
        ),
        "scaleout": lambda: cache_key(
            SweepPoint(resnet, None, 8, engine="scaleout")
        ),
        "scaleout_config": lambda: cache_key(
            SweepPoint(
                resnet, None, 4, engine="scaleout",
                scaleout_config=ScaleOutConfig(nic_bandwidth=25e9),
            )
        ),
        "hw_override": lambda: cache_key(
            SweepPoint(
                resnet, ArchitectureConfig.baseline_acc(PrepDevice.GPU), 32,
                hw=HardwareConfig(cpu_cores=32, ssd_read_bandwidth=6.4e9),
            )
        ),
        "fabric_bandwidth": lambda: cache_key(
            SweepPoint(
                tsr, ArchitectureConfig.baseline_acc_p2p(), 8,
                batch_size=512, fabric_bandwidth=75e9, accelerator="gpu",
            )
        ),
        "simulate_request": lambda: api.SimulationRequest(
            "Resnet-50", "trainbox", 64
        ).fingerprint(),
        "sweep_request": lambda: api.SweepRequest(
            workloads=("Resnet-50", "Transformer-SR"),
            archs=("baseline", "trainbox"),
            scales=(1, 8, 64),
        ).fingerprint(),
        "fault_request": lambda: api.FaultScheduleRequest(
            "Resnet-50", "trainbox", 32,
            events=(("tbox0_fpga0", 10.0, 40.0),), horizon=60.0,
        ).fingerprint(),
        "raw_values": lambda: fingerprint(
            {"a": 1, 2: [1.5, None]}, frozenset({1, 2}), b"\x00\xff",
            ("x", True), -0.0, float("inf"),
        ),
    }


def test_cache_key_golden_digests():
    assert CACHE_VERSION == 4
    inputs = _golden_inputs()
    assert sorted(inputs) == sorted(GOLDEN_DIGESTS)
    for _ in range(2):  # cold, then served from the fragment memo
        got = {name: make() for name, make in inputs.items()}
        assert got == GOLDEN_DIGESTS


def _reference(*parts):
    blob = json.dumps(
        canonicalize(list(parts)), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class _Frozen:
    a: object
    b: object = None


@dataclasses.dataclass
class _Mutable:
    a: object
    b: object = None


def test_fingerprint_sees_mutation_of_non_frozen_dataclass():
    value = _Mutable([1], 2)
    before = fingerprint(value)
    value.a.append(3)
    after_list = fingerprint(value)
    value.b = 5
    after_field = fingerprint(value)
    assert len({before, after_list, after_field}) == 3
    assert after_field == _reference(value)
    # A frozen config nested under a mutable one is still re-read.
    holder = _Mutable(_Frozen(1))
    first = fingerprint(holder)
    holder.a = _Frozen(2)
    assert fingerprint(holder) != first == _reference(_Mutable(_Frozen(1)))


def test_fingerprint_sees_mutation_inside_frozen_dataclass():
    value = _Frozen([1, 2], ("t", [3]))
    before = fingerprint(value)
    value.a.append(9)
    assert fingerprint(value) != before
    value.b[1].append(4)
    assert fingerprint(value) == _reference(value)
    assert id(value) not in cache_module._FRAGMENTS


def test_flat_frozen_configs_are_memoized(monkeypatch):
    monkeypatch.setattr(cache_module, "_FRAGMENTS", {})
    hw = HardwareConfig(cpu_cores=7)
    arch = ArchitectureConfig.trainbox()
    nested = _Frozen(hw, (arch, 1.5, frozenset({"x"})))
    digest = fingerprint(nested)
    # Configs of scalars and enum members are memoized; a frozen
    # dataclass holding anything else is re-encoded on every call.
    assert id(hw) in cache_module._FRAGMENTS
    assert id(arch) in cache_module._FRAGMENTS
    assert id(nested) not in cache_module._FRAGMENTS
    assert fingerprint(nested) == digest == _reference(nested)


def test_fragment_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(cache_module, "_FRAGMENTS", {})
    bound = cache_module.FRAGMENT_MEMO_SIZE
    for i in range(bound + 50):
        fingerprint(_Frozen(i))
        assert len(cache_module._FRAGMENTS) <= bound
    assert fingerprint(_Frozen(3)) == _reference(_Frozen(3))


def test_fragment_memo_under_thread_contention(monkeypatch):
    """More threads than cores churning a small memo: every digest stays
    exact and no interleaving of inserts overruns the bound."""
    monkeypatch.setattr(cache_module, "_FRAGMENTS", {})
    monkeypatch.setattr(cache_module, "FRAGMENT_MEMO_SIZE", 16)
    shared = [_Frozen(i, float(i)) for i in range(8)]
    want = {id(v): _reference(v) for v in shared}
    failures = []

    def churn(seed):
        for i in range(400):
            fresh = _Frozen(seed, i)
            got = fingerprint(fresh)
            if got != _reference(fresh):
                failures.append(("fresh", seed, i))
            value = shared[i % len(shared)]
            if fingerprint(value) != want[id(value)]:
                failures.append(("shared", seed, i))
            if len(cache_module._FRAGMENTS) > 16:
                failures.append(("bound", seed, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=churn, args=(seed,)) for seed in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


# -- in-process memo ---------------------------------------------------------


def test_memoized_builds_once_and_shares():
    clear_memo()
    calls = []

    def factory():
        calls.append(1)
        return {"built": True}

    a = memoized(("test-memo", 1), factory)
    b = memoized(("test-memo", 1), factory)
    assert a is b
    assert len(calls) == 1
    assert memo_size() >= 1
    clear_memo()
    assert memo_size() == 0


# -- persistent cache --------------------------------------------------------


def test_cache_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    key = fingerprint("point", 1)
    assert cache.get(key) is None
    cache.put(key, {"throughput": 42.5})
    assert cache.get(key) == {"throughput": 42.5}
    assert cache.stats == CacheStats(hits=1, misses=1, stores=1, discards=0)
    assert len(cache) == 1


def test_cache_roundtrips_floats_exactly(tmp_path):
    cache = ResultCache(tmp_path)
    value = 0.1 + 0.2  # not representable; repr round-trips exactly
    cache.put("k" * 64, {"v": value, "inf": float("inf")})
    got = cache.get("k" * 64)
    assert got["v"] == value
    assert got["inf"] == float("inf")


def test_corrupted_entry_is_quarantined_not_fatal(tmp_path):
    cache = ResultCache(tmp_path)
    key = fingerprint("corrupt-me")
    cache.put(key, {"v": 1})
    path = cache._path(key)
    path.write_text("{ not json")
    assert cache.get(key) is None
    assert cache.stats.discards == 1
    assert cache.stats.quarantined == 1
    assert not path.exists()  # the bad file no longer shadows the key
    # ...but it is preserved next door for post-mortem, not destroyed.
    quarantined = path.with_name(path.name + ".corrupt")
    assert quarantined.exists()
    assert quarantined.read_text() == "{ not json"
    assert len(cache) == 0  # quarantined files are not live entries
    assert cache.get(key) is None  # and the key stays a plain miss
    cache.clear()
    assert not quarantined.exists()  # clear() sweeps quarantine too


def test_stale_version_is_quarantined(tmp_path):
    old = ResultCache(tmp_path, version=CACHE_VERSION)
    key = fingerprint("stale")
    old.put(key, {"v": 1})
    new = ResultCache(tmp_path, version=CACHE_VERSION + 1)
    assert new.get(key) is None
    assert new.stats.discards == 1
    assert new.stats.quarantined == 1
    assert len(new) == 0


def test_entry_must_echo_its_key(tmp_path):
    cache = ResultCache(tmp_path)
    key = fingerprint("echo")
    cache.put(key, {"v": 1})
    path = cache._path(key)
    entry = json.loads(path.read_text())
    entry["key"] = "somebody-else"
    path.write_text(json.dumps(entry))
    assert cache.get(key) is None


def test_cache_clear(tmp_path):
    cache = ResultCache(tmp_path)
    for i in range(3):
        cache.put(fingerprint("clear", i), {"i": i})
    assert len(cache) == 3
    assert cache.clear() == 3
    assert len(cache) == 0


def test_writer_temp_file_is_not_an_entry(tmp_path):
    """A ``.tmp-*.json`` left in a shard (a writer mid-put, or one that
    was killed) is neither counted nor reported as a removed entry."""
    cache = ResultCache(tmp_path)
    key = fingerprint("tmp", 0)
    cache.put(key, {"i": 0})
    (tmp_path / key[:2] / ".tmp-999-1-0.json").write_text("{")
    assert len(cache) == 1
    cache.put(fingerprint("tmp", 1), {"i": 1})
    assert len(cache) == 2
    assert cache.clear() == 2
    assert len(cache) == 0
    assert cache.get(key) is None


# -- entry I/O: raw descriptors, no file objects -----------------------------


def _entry_bytes(key, result):
    return json.dumps(
        {"version": CACHE_VERSION, "key": key, "result": result}
    ).encode("ascii")


def _leftover_tmps(root):
    return [p.name for p in root.rglob(".tmp-*")]


def test_put_completes_an_entry_through_short_writes(tmp_path, monkeypatch):
    real_write = os.write
    sizes = []

    def short_write(fd, data):
        sizes.append(real_write(fd, bytes(data[:7])))
        return sizes[-1]

    cache = ResultCache(tmp_path)
    key = fingerprint("short-writes")
    result = {"v": 0.1 + 0.2, "name": "x" * 50}
    monkeypatch.setattr(os, "write", short_write)
    cache.put(key, result)
    monkeypatch.undo()
    want = _entry_bytes(key, result)
    assert len(sizes) == -(-len(want) // 7) and max(sizes) == 7
    assert cache._path(key).read_bytes() == want
    assert cache.get(key) == result
    assert _leftover_tmps(tmp_path) == []


def test_put_recreates_a_shard_removed_under_a_live_cache(tmp_path):
    cache = ResultCache(tmp_path)
    key = fingerprint("shard-removed")
    cache.put(key, {"v": 1})
    shutil.rmtree(cache._path(key).parent)
    assert cache.get(key) is None
    cache.put(key, {"v": 2})
    assert cache.get(key) == {"v": 2}
    assert cache.stats.stores == 2


def test_failed_replace_raises_and_leaves_no_tmp(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    key = fingerprint("replace-fails")

    def failing_replace(src, dst):
        raise OSError("injected replace failure")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="injected"):
        cache.put(key, {"v": 1})
    monkeypatch.undo()
    assert _leftover_tmps(tmp_path) == []
    assert not cache._path(key).exists()
    assert cache.stats.stores == 0


def test_entry_bytes_and_mode_match_a_mkstemp_entry(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = fingerprint("bytes-and-mode")
    result = {"v": 0.1 + 0.2, "inf": float("inf"), "s": "café", "n": None}
    cache.put(key, result)
    path = cache._path(key)
    assert path.read_bytes() == _entry_bytes(key, result)
    fd, reference = tempfile.mkstemp(dir=tmp_path)
    os.close(fd)
    mode = stat.S_IMODE(os.stat(path).st_mode)
    assert mode == stat.S_IMODE(os.stat(reference).st_mode) == 0o600


def test_entry_written_with_mkstemp_and_a_text_write_is_a_hit(tmp_path):
    cache = ResultCache(tmp_path)
    key = fingerprint("old-writer")
    result = {"v": 0.1 + 0.2, "list": [1, 2.5, None]}
    path = cache._path(key)
    path.parent.mkdir(parents=True)
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", suffix=".json", dir=path.parent)
    with os.fdopen(fd, "w") as handle:
        handle.write(
            json.dumps({"version": CACHE_VERSION, "key": key, "result": result})
        )
    os.replace(tmp, path)
    assert cache.get(key) == result
    assert cache.stats == CacheStats(hits=1)


def test_entry_that_is_not_utf8_is_quarantined_not_raised(tmp_path):
    """The entry's bytes go straight to ``json.loads``, so undecodable
    bytes are a malformed entry like any other: a miss, quarantined."""
    cache = ResultCache(tmp_path)
    key = fingerprint("not-utf8")
    cache.put(key, {"v": 1})
    path = cache._path(key)
    path.write_bytes(b"\x80\x81 not utf-8")
    assert cache.get(key) is None
    assert cache.stats.discards == 1 and cache.stats.quarantined == 1
    assert not path.exists()


def _count_os_calls(monkeypatch, names):
    calls = {name: 0 for name in names}
    for name in names:
        real = getattr(os, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(os, name, counted)
    return calls


def test_os_calls_per_warm_put_and_per_get(tmp_path, monkeypatch):
    """One ``open`` and one ``replace`` per warm put and no ``mkdir``;
    one ``open`` per lookup, hit or miss.  Counts, not timings, so a
    reintroduced per-put ``mkdir`` or a second open fails on any host."""
    cache = ResultCache(tmp_path)
    key = fingerprint("count-os-calls")
    cache.put(key, {"v": 0})  # cold: creates the shard
    names = ("open", "replace", "mkdir", "makedirs", "write", "close")
    calls = _count_os_calls(monkeypatch, names)
    cache.put(key, {"v": 1})
    assert calls == {
        "open": 1, "replace": 1, "mkdir": 0, "makedirs": 0, "write": 1,
        "close": 1,
    }
    calls.update(dict.fromkeys(names, 0))
    assert cache.get(key) == {"v": 1}
    assert calls["open"] == 1 and calls["close"] == 1
    calls.update(dict.fromkeys(names, 0))
    assert cache.get(fingerprint("count-os-calls", "absent")) is None
    assert calls["open"] == 1 and calls["close"] == 0


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_mixed_operations_leak_no_descriptors(tmp_path, monkeypatch):
    """Raw descriptors raise no ``ResourceWarning`` when dropped, so
    only the process's open-fd count shows a leak: it is unchanged
    after 1,000 hits, misses, puts, quarantines and failed writes."""
    cache = ResultCache(tmp_path)
    real_write = os.write
    failing = []

    def write(fd, data):
        if failing:
            raise OSError("injected write failure")
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", write)
    cache.put(fingerprint("fd-warm"), {"v": 0})
    cache.get(fingerprint("fd-warm"))
    before = len(os.listdir("/proc/self/fd"))
    for i in range(1000):
        key = fingerprint("fd", i % 50)
        op = i % 5
        if op == 0:
            cache.put(key, {"i": i})
        elif op == 1:
            cache.get(key)
        elif op == 2:
            assert cache.get(fingerprint("fd-miss", i)) is None
        elif op == 3:
            cache.put(key, {"i": i})
            cache._path(key).write_bytes(b"{ torn")
            assert cache.get(key) is None
        else:
            failing.append(True)
            with pytest.raises(OSError, match="injected"):
                cache.put(key, {"i": i})
            failing.clear()
    assert len(os.listdir("/proc/self/fd")) == before
    assert cache.stats.quarantined == 200
    assert _leftover_tmps(tmp_path) == []
