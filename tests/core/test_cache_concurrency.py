"""ResultCache shared by concurrent processes, with no lock.

Writers publish an entry only through ``os.replace`` of a private temp
file, so a reader finds either no entry or a whole one: many processes
writing the same keys while others read them never show a reader a
torn or foreign entry, and leave nothing but entries behind.
"""

import multiprocessing

from repro.cache import ResultCache

KEYS = [f"{i:02x}" + "ab" * 31 for i in range(4)]
#: Pads an entry to about 4 KB, the size of a service payload.
PAD = "x" * 4000


def _hammer(directory, worker, rounds):
    cache = ResultCache(directory)
    for i in range(rounds):
        key = KEYS[(worker + i) % len(KEYS)]
        cache.put(key, {"worker": worker, "round": i, "key": key, "pad": PAD})


def _read(directory, done, out):
    """Get every key until the writers are done, then once more; report
    ``(hits, foreign hits, discards, quarantined)``."""
    cache = ResultCache(directory)
    foreign = 0
    while True:
        finished = done.is_set()
        for key in KEYS:
            payload = cache.get(key)
            if payload is not None and payload["key"] != key:
                foreign += 1
        if finished:
            break
    stats = cache.stats
    out.put((stats.hits, foreign, stats.discards, stats.quarantined))


def test_unlocked_concurrent_puts_still_readable(tmp_path):
    # Writers alone, with no reader racing them: once they all exit,
    # every key holds one whole entry (last writer wins).
    directory = tmp_path / "plain"
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
    cache = ResultCache(directory)
    for key in KEYS:
        payload = cache.get(key)
        assert payload is not None and payload["key"] == key
    assert cache.stats.discards == 0


def test_multiprocess_hammer_leaves_no_corrupt_entries(tmp_path):
    directory = str(tmp_path / "cache")
    ctx = multiprocessing.get_context("fork")
    done = ctx.Event()
    out = ctx.Queue()
    readers = [
        ctx.Process(target=_read, args=(directory, done, out))
        for _ in range(2)
    ]
    writers = [
        ctx.Process(target=_hammer, args=(directory, w, 500))
        for w in range(4)
    ]
    for p in readers + writers:
        p.start()
    for p in writers:
        p.join(timeout=60)
        assert p.exitcode == 0
    done.set()
    reports = [out.get(timeout=60) for _ in readers]
    for p in readers:
        p.join(timeout=60)
        assert p.exitcode == 0
    for hits, foreign, discards, quarantined in reports:
        assert hits > 0
        assert (foreign, discards, quarantined) == (0, 0, 0)

    cache = ResultCache(directory)
    for key in KEYS:
        payload = cache.get(key)
        assert payload is not None, f"entry {key} lost"
        assert payload["key"] == key
        assert payload["worker"] in range(4)
    assert (cache.stats.discards, cache.stats.quarantined) == (0, 0)
    leftovers = [
        p.name
        for p in (tmp_path / "cache").rglob("*")
        if p.name.startswith(".tmp-")
        or p.name.endswith((".lock", ".corrupt"))
    ]
    assert leftovers == []
