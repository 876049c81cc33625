"""Deterministic fault injection for the simulation service.

Sibling of :mod:`repro.dataprep.chaos`, which proved the prep engine's
retry/quarantine machinery against seeded faults; this module does the
same for the serving stack.  A frozen :class:`ServiceChaosSpec` decides
every fault as a **pure function of (seed, fault kind, token)** — the
token is a content hash (a work item's key) or
a stable ordinal, never arrival order — so two runs with the same seed
inject the same faults into the same work no matter how threads
interleave, and a drill failure replays exactly.

Fault kinds and where they bite:

* ``compute_error`` — :class:`ChaosError` raised on an executor thread
  before a work item is priced on its own (not by the kernel) — an
  "executor task exception"; the broker's never-raises hardening must
  turn it into an ``internal`` error envelope, and a resend heals it
  (``first_attempt_only``).
* ``compute_delay`` — added latency before such an item is priced;
  answers stay bit-identical, deadlines and drains must still hold.
* ``point_error`` — one kernel-priced point inside a batch dispatch
  fails; per-item error isolation means only requests containing that
  point see an error.
* ``dispatch_error`` — a whole kernel dispatch dies before computing,
  failing each of its items with an ``internal error``.  Driven by an
  explicit ordinal list, not a rate, so a drill knows exactly how many
  dispatches die (``service.batch_dispatch_errors`` must equal it).
* ``disk_error`` — :class:`ChaosResultCache` raises ``OSError`` from a
  disk-tier get or put; the tier degrades (``service.cache_errors``), the
  request is still answered bit-identically.
* ``drop_connection`` — decided for the drill's client loop, which
  slams the socket mid-request to exercise EOF cancellation.

The injector is the small stateful wrapper around the spec: it tracks
per-token attempt counts (so ``first_attempt_only`` faults heal on
resend — the heal path is the point of the drill) and tallies injected
faults per kind.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError

__all__ = [
    "FAULT_KINDS",
    "ChaosError",
    "ChaosInjector",
    "ChaosResultCache",
    "ServiceChaosSpec",
]

#: Every fault kind an injector can fire, in documentation order.
FAULT_KINDS = (
    "compute_error",
    "compute_delay",
    "point_error",
    "dispatch_error",
    "disk_error",
    "drop_connection",
)


class ChaosError(RuntimeError):
    """An injected fault (never raised by real engine code).

    Deliberately *not* a :class:`~repro.errors.ReproError`: it must
    exercise the broker's unexpected-exception hardening and surface as
    an ``internal`` error envelope, exactly like a genuine engine bug.
    """


def _rates_valid(*rates: float) -> bool:
    return all(0.0 <= rate <= 1.0 for rate in rates)


@dataclass(frozen=True)
class ServiceChaosSpec:
    """The frozen fault plan: seed + per-kind rates.

    ``dispatch_fault_ordinals`` lists the kernel dispatches (counted
    from 0 in the order the event loop prices them) that die wholesale.

    ``decide(kind, token)`` maps into ``[0, 1)`` via a keyed hash; a
    fault fires when that value falls under the kind's rate.  Content
    tokens make decisions timing-independent; ``first_attempt_only``
    (handled by the injector) makes them heal on resend, which is what
    lets a drill assert eventual bit-identical recovery.
    """

    seed: int = 0
    compute_error_rate: float = 0.0
    compute_delay_rate: float = 0.0
    compute_delay_ms: float = 2.0
    point_error_rate: float = 0.0
    dispatch_fault_ordinals: Tuple[int, ...] = ()
    disk_error_rate: float = 0.0
    drop_rate: float = 0.0
    first_attempt_only: bool = True

    def __post_init__(self) -> None:
        if not _rates_valid(
            self.compute_error_rate,
            self.compute_delay_rate,
            self.point_error_rate,
            self.disk_error_rate,
            self.drop_rate,
        ):
            raise ConfigError("chaos rates must be within [0, 1]")
        if self.compute_delay_ms < 0:
            raise ConfigError("compute_delay_ms must be >= 0")
        if any(o < 0 for o in self.dispatch_fault_ordinals):
            raise ConfigError("dispatch_fault_ordinals must be >= 0")

    def decide(self, kind: str, token: str) -> float:
        """The fault coin for ``(seed, kind, token)`` in ``[0, 1)``."""
        digest = hashlib.sha256(
            f"{self.seed}|{kind}|{token}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64


class ChaosInjector:
    """Stateful fault driver shared by the service and the drill.

    Thread-safe: compute hooks run on engine threads, dispatch and
    point hooks on the service's event-loop thread, disk hooks on
    either, connection-drop decisions on client threads.  ``counts`` (via
    :meth:`snapshot`) tallies the faults actually injected.
    """

    def __init__(self, spec: ServiceChaosSpec) -> None:
        self.spec = spec
        self._lock = threading.Lock()
        self._attempts: Dict[Tuple[str, str], int] = {}
        self._dispatch_ordinals = itertools.count()
        self._counts: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    def _fires(self, kind: str, rate: float, token: str) -> bool:
        """One fault decision; counts the attempt either way."""
        with self._lock:
            attempt = self._attempts.get((kind, token), 0)
            self._attempts[(kind, token)] = attempt + 1
        if rate <= 0.0:
            return False
        if self.spec.first_attempt_only and attempt > 0:
            return False
        if self.spec.decide(kind, token) >= rate:
            return False
        with self._lock:
            self._counts[kind] += 1
        return True

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    # -- hooks the service calls ---------------------------------------------

    def before_compute(self, key: str) -> None:
        """An item priced on its own, executor thread: maybe delay,
        maybe die."""
        spec = self.spec
        if self._fires("compute_delay", spec.compute_delay_rate, key):
            time.sleep(spec.compute_delay_ms / 1000.0)
        if self._fires("compute_error", spec.compute_error_rate, key):
            raise ChaosError(f"chaos: injected compute fault ({key[:12]})")

    def before_dispatch(self) -> None:
        """Kernel dispatch, event-loop thread: ordinal-listed dispatches die
        wholesale.  Ordinals, not hashes: a drill knows how many
        dispatches it kills, whatever points they hold."""
        with self._lock:
            ordinal = next(self._dispatch_ordinals)
        if ordinal in self.spec.dispatch_fault_ordinals:
            with self._lock:
                self._counts["dispatch_error"] += 1
            raise ChaosError(
                f"chaos: injected dispatch fault (ordinal {ordinal})"
            )

    def point_error(self, key: str) -> Optional[BaseException]:
        """Batch kernel scatter: the exception to poison ``key`` with."""
        if self._fires("point_error", self.spec.point_error_rate, key):
            return ChaosError(f"chaos: injected point fault ({key[:12]})")
        return None

    def maybe_disk_fault(self, op: str, key: str) -> None:
        if self._fires("disk_error", self.spec.disk_error_rate, f"{op}:{key}"):
            raise OSError(f"chaos: injected disk fault ({op} {key[:12]})")

    def drop_connection(self, token: str) -> bool:
        """Client-side: whether the drill should slam this connection."""
        return self._fires("drop_connection", self.spec.drop_rate, token)

    def wrap_cache(self, cache) -> Optional["ChaosResultCache"]:
        """Fault-wrap one cache tier (identity for an absent tier)."""
        if cache is None:
            return None
        return ChaosResultCache(cache, self)


class ChaosResultCache:
    """A :class:`~repro.cache.ResultCache` proxy that injects OSErrors.

    Every service-side tier access is already guarded with ``except
    OSError`` (counted as ``service.cache_errors``), so injected disk
    faults degrade the tier without failing the request — which is
    exactly the claim the drill verifies.
    """

    def __init__(self, inner, injector: ChaosInjector) -> None:
        self._inner = inner
        self._injector = injector

    def get(self, key: str):
        self._injector.maybe_disk_fault("get", key)
        return self._inner.get(key)

    def put(self, key: str, payload) -> None:
        self._injector.maybe_disk_fault("put", key)
        self._inner.put(key, payload)

    def __len__(self) -> int:
        return len(self._inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)
