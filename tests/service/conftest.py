"""Shared service-test fixtures."""

import threading

import pytest

from repro.service import server as server_mod


@pytest.fixture
def engine_gate(monkeypatch):
    """A ``threading.Event`` that every fault-schedule pricing waits on.

    A test holds an engine thread busy by sending a fault-schedule
    request (priced whole, on a thread of its own) and frees it with
    ``gate.set()``; lone items (DES points, fault schedules) queued
    behind it wait until then, while analytical points, priced on the
    event loop, do not wait at all.  The gate opens at teardown (and any
    wait gives up after 30 s), so a failing test cannot wedge executor
    shutdown."""
    gate = threading.Event()
    real = server_mod.execute_request

    def gated(request):
        gate.wait(timeout=30.0)
        return real(request)

    monkeypatch.setattr(server_mod, "execute_request", gated)
    yield gate
    gate.set()
