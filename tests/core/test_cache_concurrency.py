"""ResultCache under concurrent writers: the service's shared tier.

The contract (:class:`repro.cache.CacheLock` + ``locked=True``):

* many processes hammering the same keys never corrupt an entry — every
  read after the dust settles is a valid payload from *some* writer;
* a lock held by a live process makes contenders wait (and time out
  with :class:`LockTimeout` if the holder never releases);
* a lock orphaned by a killed process is detected (dead pid, or stamp
  age) and reclaimed instead of wedging the store.
"""

import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.cache import CacheLock, LockTimeout, ResultCache

KEYS = [f"{i:02x}" + "ab" * 31 for i in range(4)]


def _hammer(directory, worker, rounds):
    cache = ResultCache(directory, locked=True)
    for i in range(rounds):
        key = KEYS[(worker + i) % len(KEYS)]
        cache.put(key, {"worker": worker, "round": i, "key": key})


def test_multiprocess_hammer_leaves_no_corrupt_entries(tmp_path):
    directory = tmp_path / "shared"
    ctx = multiprocessing.get_context("fork")
    procs = [
        ctx.Process(target=_hammer, args=(str(directory), w, 25))
        for w in range(4)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    cache = ResultCache(directory, locked=True)
    for key in KEYS:
        payload = cache.get(key)
        assert payload is not None, f"entry {key} lost"
        assert payload["key"] == key
        assert payload["worker"] in range(4)
    assert cache.stats.discards == 0
    # All locks released, no temp files or reclaim debris left behind.
    leftovers = [
        p.name
        for p in directory.rglob("*")
        if ".lock" in p.name or p.name.startswith(".tmp-")
    ]
    assert leftovers == []


def test_lock_contention_waits_then_times_out(tmp_path):
    path = tmp_path / "entry.lock"
    holder = CacheLock(path).acquire()
    contender = CacheLock(path, timeout=0.2, stale_after=60.0)
    t0 = time.monotonic()
    with pytest.raises(LockTimeout, match="live owner"):
        contender.acquire()
    assert time.monotonic() - t0 >= 0.2
    holder.release()
    # Released: the same contender now wins immediately.
    contender.acquire()
    contender.release()
    assert not path.exists()


def test_lock_contention_resolves_when_holder_releases(tmp_path):
    path = tmp_path / "entry.lock"
    holder = CacheLock(path).acquire()
    acquired = threading.Event()

    def contend():
        with CacheLock(path, timeout=10.0, stale_after=60.0):
            acquired.set()

    t = threading.Thread(target=contend, daemon=True)
    t.start()
    time.sleep(0.05)
    assert not acquired.is_set()  # still held
    holder.release()
    t.join(timeout=10)
    assert acquired.is_set()


def _acquire_and_die(directory, key):
    cache = ResultCache(directory, locked=True)
    cache.lock(key).acquire()
    os._exit(0)  # dies without releasing — the orphaned-lock scenario


def test_stale_lock_from_killed_process_is_reclaimed(tmp_path):
    directory = tmp_path / "shared"
    key = KEYS[0]
    ctx = multiprocessing.get_context("fork")
    p = ctx.Process(target=_acquire_and_die, args=(str(directory), key))
    p.start()
    p.join(timeout=30)
    assert p.exitcode == 0
    cache = ResultCache(directory, locked=True)
    lock_path = cache.lock(key).path
    assert lock_path.exists()  # orphaned
    # The dead owner's pid is detected and the lock reclaimed well
    # before stale_after; the put then proceeds normally.
    t0 = time.monotonic()
    cache.put(key, {"after": "reclaim"})
    assert time.monotonic() - t0 < 5.0
    assert cache.get(key) == {"after": "reclaim"}
    assert not lock_path.exists()


def test_stale_lock_by_age_is_reclaimed(tmp_path):
    # No owner stamp at all (writer died between mkdir and stamp):
    # age alone must eventually reclaim it.
    path = tmp_path / "entry.lock"
    os.mkdir(path)
    time.sleep(0.15)
    lock = CacheLock(path, timeout=5.0, stale_after=0.1)
    lock.acquire()
    lock.release()


def test_reacquire_after_clean_release_cycles(tmp_path):
    path = tmp_path / "entry.lock"
    for _ in range(20):
        with CacheLock(path, timeout=1.0):
            assert path.exists()
    assert not path.exists()


def test_unlocked_concurrent_puts_still_readable(tmp_path):
    # Even without locking, atomic rename means readers only ever see
    # whole entries (last writer wins).
    directory = tmp_path / "plain"
    ctx = multiprocessing.get_context("fork")
    procs = [
        ctx.Process(target=_hammer_unlocked, args=(str(directory), w, 25))
        for w in range(4)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    cache = ResultCache(directory)
    for key in KEYS:
        payload = cache.get(key)
        assert payload is not None and payload["key"] == key
    assert cache.stats.discards == 0


def _hammer_unlocked(directory, worker, rounds):
    cache = ResultCache(directory)
    for i in range(rounds):
        key = KEYS[(worker + i) % len(KEYS)]
        cache.put(key, {"worker": worker, "round": i, "key": key})
