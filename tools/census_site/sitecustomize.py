"""Reachability probe for ``tools/census.py``.

Python imports ``sitecustomize`` at start-up from the first directory on
``sys.path`` that holds one; ``tools/census.py`` puts this directory on
``PYTHONPATH``, so every interpreter of a census run loads it: the test
process, the CLI subprocesses it starts with an inherited environment,
and ``multiprocessing`` workers, whether spawned (a fresh interpreter)
or forked (they inherit the hook).

It does nothing unless ``REPRO_CENSUS_DIR`` is set.  Then it installs a
profile hook, on this thread and on every thread started later, that
appends each code object under ``REPRO_CENSUS_ROOT`` to
``$REPRO_CENSUS_DIR/<pid>.txt`` as ``<real path>:<first line>`` the
first time this process runs it.  Writing on first sight, line by line,
rather than on exit keeps what a worker saw even when its supervisor
terminates it or it leaves through ``os._exit``.
"""

import os
import sys
import threading


def _install(out_dir: str, root: str) -> None:
    # Keyed by id(); keeping each code object alive means no later
    # object can reuse a recorded id.
    seen = {}
    sink = {"pid": None, "file": None}

    def record(code) -> None:
        path = os.path.realpath(code.co_filename)
        if not path.startswith(root):
            return
        pid = os.getpid()
        if sink["pid"] != pid:  # first record, or first after a fork
            sink["pid"] = pid
            sink["file"] = open(
                os.path.join(out_dir, f"{pid}.txt"), "a", buffering=1
            )
        sink["file"].write(f"{path}:{code.co_firstlineno}\n")

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in seen:
                seen[id(code)] = code
                record(code)

    sys.setprofile(profile)
    threading.setprofile(profile)


if os.environ.get("REPRO_CENSUS_DIR"):
    _install(
        os.environ["REPRO_CENSUS_DIR"],
        os.environ.get("REPRO_CENSUS_ROOT", ""),
    )
