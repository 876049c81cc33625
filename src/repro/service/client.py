"""A small synchronous client for the simulation service.

Blocking sockets on purpose: callers are CLIs, tests and drill
clients that want a dead-simple request/response surface.  The client
still exploits the protocol's pipelining — :meth:`ServiceClient.
request_many` writes a whole batch of frames before reading any
responses and correlates the out-of-order replies by ``id``.

Resilience is opt-in via :class:`RetryPolicy`: the server's ``rejected``
envelopes carry ``retry_after`` hints, and requests are idempotent by
content-hash fingerprint, so resending is always safe.  A policy-armed
client retries retryable rejections with jittered, capped exponential
backoff (never fewer seconds than the server's hint), and transparently
reconnects on a broken pipe — both for :meth:`ServiceClient.call` and
mid-pipeline in :meth:`ServiceClient.request_many`, which resends only
the frames that never got an answer.  ``deadline_exceeded`` and
``draining`` rejections are **not** retried by default: the first needs
a bigger budget, not a resend; the second needs a different replica.

Usage::

    from repro import api
    from repro.service import RetryPolicy, ServiceClient

    with ServiceClient(
        "127.0.0.1", 7543, tenant="team-a", retry=RetryPolicy()
    ) as client:
        response = client.call(
            api.SimulationRequest("Resnet-50", "trainbox", 256)
        )
        assert response["status"] == "ok"
        result = response["payload"]["result"]
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.service import protocol

__all__ = ["ConnectionLost", "RetryPolicy", "ServiceClient", "ServiceError"]


class ServiceError(ConfigError):
    """The server answered ``status: error`` to a strict call."""


class ConnectionLost(ConfigError):
    """The connection died mid-conversation (EOF or broken pipe).

    Retryable by resending: the server never saw (or never answered)
    the request, and requests are idempotent by fingerprint.
    """

    retryable = True


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, jittered, server-hint-honoring retry behaviour.

    The delay before attempt *n*'s resend is
    ``max(retry_after, base_backoff * 2**n)`` capped at ``max_backoff``,
    then stretched by up to ``jitter`` (a fraction) of itself so a
    thundering herd of rejected clients decorrelates.  ``seed`` pins the
    jitter stream for deterministic tests and chaos drills.
    """

    max_attempts: int = 4        # total attempts (first try included)
    base_backoff: float = 0.05   # seconds before the first resend
    max_backoff: float = 2.0     # backoff cap (pre-jitter)
    jitter: float = 0.5          # up-to fraction added to each delay
    retry_codes: Tuple[str, ...] = ("backpressure", "quota")
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.base_backoff < 0 or self.max_backoff < 0:
            raise ConfigError("backoff seconds must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ConfigError("jitter must be within [0, 1]")

    def delay(
        self, attempt: int, retry_after: float, rng: random.Random
    ) -> float:
        base = min(self.max_backoff, self.base_backoff * (2 ** attempt))
        delay = min(self.max_backoff, max(float(retry_after), base))
        if self.jitter:
            delay *= 1.0 + self.jitter * rng.random()
        return delay


class ServiceClient:
    """One TCP connection to a simulation server.

    Not thread-safe: use one client per thread (the chaos drill spawns
    one per simulated tenant).  ``timeout`` guards every socket operation so
    a dead server fails the call instead of hanging it.
    """

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str = "anon",
        timeout: float = 60.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.tenant = tenant
        self.retry = retry
        self._host = host
        self._port = port
        self._timeout = timeout
        self._rng = random.Random(retry.seed if retry is not None else None)
        self._next_id = 0
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._connect()

    # -- plumbing ------------------------------------------------------------

    def _connect(self) -> None:
        try:
            self._sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout
            )
        except OSError as exc:
            raise ConfigError(
                f"cannot reach repro service at {self._host}:{self._port}: "
                f"{exc}"
            ) from None
        self._reader = self._sock.makefile("rb")

    def _reconnect(self) -> None:
        """Drop the dead socket and dial again (ids keep increasing, so
        responses from the old connection can never be confused in)."""
        self.close()
        self._connect()

    def _send(self, envelope: Dict) -> None:
        try:
            self._sock.sendall(protocol.encode_frame(envelope))
        except (BrokenPipeError, ConnectionError, OSError) as exc:
            raise ConnectionLost(f"send failed: {exc}") from None

    def _recv(self) -> Dict:
        try:
            line = self._reader.readline(protocol.MAX_FRAME_BYTES + 1)
        except (ConnectionError, OSError) as exc:
            raise ConnectionLost(f"read failed: {exc}") from None
        if not line:
            raise ConnectionLost("service closed the connection")
        if len(line) > protocol.MAX_FRAME_BYTES:
            raise ConfigError("service response exceeded the frame cap")
        return protocol.decode_frame(line)

    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _envelope(
        self, request, profile: bool, deadline_ms: Optional[float]
    ) -> Dict:
        envelope: Dict = {
            "id": self._take_id(),
            "tenant": self.tenant,
            "request": request.to_dict(),
        }
        if profile:
            envelope["profile"] = True
        if deadline_ms is not None:
            envelope["deadline_ms"] = deadline_ms
        return envelope

    @staticmethod
    def _retryable_rejection(response: Dict, policy: RetryPolicy) -> bool:
        if response.get("status") != protocol.STATUS_REJECTED:
            return False
        code = (response.get("error") or {}).get("code")
        return code in policy.retry_codes

    # -- the call surface ----------------------------------------------------

    def call(
        self,
        request,
        profile: bool = False,
        deadline_ms: Optional[float] = None,
    ) -> Dict:
        """Send one request, return its response envelope.

        With a :class:`RetryPolicy`, retryable rejections are resent
        after a backoff honoring the server's ``retry_after`` hint, and
        a broken connection is redialed — bounded by ``max_attempts``
        either way.  Safe because requests are idempotent by
        fingerprint: a resend can only hit a cache tier or coalesce.
        """
        policy = self.retry
        attempts = policy.max_attempts if policy is not None else 1
        for attempt in range(attempts):
            last = attempt == attempts - 1
            envelope = self._envelope(request, profile, deadline_ms)
            try:
                self._send(envelope)
                response = self._recv()
            except ConnectionLost:
                if last:
                    raise
                time.sleep(self._rng.random() * 0.05)
                self._reconnect()
                continue
            if response.get("id") != envelope["id"]:
                raise ConfigError(
                    f"response id {response.get('id')!r} does not match "
                    f"request id {envelope['id']} (interleaved use of one "
                    f"client?)"
                )
            if (
                policy is not None
                and not last
                and self._retryable_rejection(response, policy)
            ):
                retry_after = float(
                    (response.get("meta") or {}).get("retry_after", 0.0)
                )
                time.sleep(policy.delay(attempt, retry_after, self._rng))
                continue
            return response
        raise ConfigError("unreachable: retry loop exhausted")  # pragma: no cover

    def call_strict(self, request, profile: bool = False) -> Dict:
        """Like :meth:`call` but raises on non-``ok`` responses and
        returns the payload directly."""
        response = self.call(request, profile=profile)
        if response.get("status") != protocol.STATUS_OK:
            error = response.get("error") or {}
            raise ServiceError(
                f"service answered {response.get('status')}: "
                f"{error.get('code')}: {error.get('message')}"
            )
        return response["payload"]

    def request_many(
        self,
        requests: Sequence,
        deadline_ms: Optional[float] = None,
    ) -> List[Dict]:
        """Pipeline a batch: write every frame, then collect responses.

        Responses arrive in completion order; the returned list is
        re-sorted into *request* order via the echoed ids.

        A connection that breaks mid-pipeline is redialed and only the
        *unanswered* requests are resent (under fresh ids) — answers
        already collected are kept.  Redials are bounded by the retry
        policy's ``max_attempts`` (one redial without a policy); safe
        because requests are idempotent by fingerprint.
        """
        redials = (
            self.retry.max_attempts - 1 if self.retry is not None else 1
        )
        # Position-keyed bookkeeping survives id reassignment on resend.
        slot_by_id: Dict[int, int] = {}
        answers: List[Optional[Dict]] = [None] * len(requests)
        unanswered = list(range(len(requests)))
        for dial in range(redials + 1):
            try:
                for slot in unanswered:
                    envelope = self._envelope(requests[slot], False, deadline_ms)
                    slot_by_id[envelope["id"]] = slot
                    self._send(envelope)
                while unanswered:
                    response = self._recv()
                    slot = slot_by_id.get(response.get("id"))
                    if slot is None or answers[slot] is not None:
                        continue  # stale answer from a pre-redial send
                    answers[slot] = response
                    unanswered.remove(slot)
                break
            except ConnectionLost:
                if dial == redials:
                    raise
                time.sleep(self._rng.random() * 0.05)
                self._reconnect()
        if unanswered:
            raise ConfigError(
                f"service never answered requests at positions {unanswered}"
            )
        return [answer for answer in answers]

    def ping(self) -> Dict:
        rid = self._take_id()
        self._send({"id": rid, "op": "ping"})
        return self._recv()

    def stats(self) -> Dict:
        """The server's live counters/config (the ``stats`` op)."""
        rid = self._take_id()
        self._send({"id": rid, "op": "stats"})
        response = self._recv()
        if response.get("status") != protocol.STATUS_OK:
            raise ServiceError(f"stats failed: {response.get('error')}")
        return response["payload"]

    def raw(self, envelope: Dict) -> Dict:
        """Send an arbitrary envelope (protocol tests, ``repro client``)."""
        self._send(envelope)
        return self._recv()

    def close(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
