"""Shared-resource primitives: counted resources and object stores.

These model contention points in the simulated system: NIC processing
engines, the serializing wire, and bounded queues all sit on top of
:class:`Resource` or :class:`Store`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.errors import SimulationError
from repro.sim.core import Environment, Event, _PENDING


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Fires when the slot is granted.  Must be released via
    :meth:`Resource.release` (or used as a context manager inside a
    process via ``with``-style helpers in caller code).
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # Event.__init__, inlined: one request per wire chunk claimed.
        self.env = resource.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._processed = False
        self._defused = False
        self.resource = resource


class Resource:
    """A resource with ``capacity`` identical slots and a FIFO wait queue.

    >>> res = Resource(env, capacity=1)
    >>> def worker(env, res):
    ...     req = res.request()
    ...     yield req
    ...     yield env.timeout(1.0)     # hold the resource
    ...     res.release(req)
    """

    __slots__ = ("env", "capacity", "_users", "_waiting")

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: set[Request] = set()
        self._waiting: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when granted."""
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed(req)
        else:
            self._waiting.append(req)
        return req

    def claim(self) -> Request:
        """Claim a slot, taking a free one in place.

        A free slot is granted without touching the event queue: the
        returned request is already *processed*
        (``req.callbacks is None``) and the caller carries on.  Only a
        busy resource hands back a live event to wait on, exactly as
        :meth:`request` would::

            req = res.claim()
            if req.callbacks is not None:     # busy: wait for the hand-off
                yield req
            ...
            res.release(req)

        Yielding an in-place grant anyway is legal (the process resumes
        at once); it just pays the event this method exists to save.
        """
        if len(self._users) >= self.capacity:
            return self.request()
        req = Request(self)
        self._users.add(req)
        req._ok = True
        req._value = req
        req._processed = True
        req.callbacks = None
        return req

    def release(self, req: Request) -> None:
        """Return a previously granted slot and wake the next waiter."""
        if req in self._users:
            self._users.remove(req)
        elif req in self._waiting:
            # Cancelling a queued request.
            self._waiting.remove(req)
            return
        else:
            raise SimulationError("release() of a request that holds no slot")
        if self._waiting:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            nxt.succeed(nxt)


class Store:
    """An unbounded (or bounded) FIFO of Python objects.

    ``put`` fires immediately unless the store is full; ``get`` fires when
    an item is available.  Used for message queues between simulated
    components.
    """

    __slots__ = ("env", "capacity", "items", "_getters", "_putters")

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Deposit ``item``; returned event fires once it is stored."""
        ev = Event(self.env)
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            ev.succeed(None)
        elif len(self.items) < self.capacity:
            self.items.append(item)
            ev.succeed(None)
        else:
            self._putters.append((ev, item))
        return ev

    def push(self, item: Any) -> None:
        """Deposit ``item`` with no event: for producers that never wait.

        Same hand-off as :meth:`put` — the oldest parked getter gets the
        item, else it queues — minus the put event nobody would yield.
        The store must have room (an unbounded one always does).
        """
        if self._getters:
            self._getters.popleft().succeed(item)
        elif len(self.items) < self.capacity:
            self.items.append(item)
        else:
            raise SimulationError("push() on a full Store; yield put() instead")

    def hand_off(self, item: Any) -> None:
        """Deposit ``item``, resuming a parked consumer *in place*.

        :meth:`push` wakes a parked getter through the event queue: one
        dispatch whose only effect is to resume the consumer at the same
        ``(time, priority)`` the producer is already running at.  This
        hands the item over as a direct call instead — the consumer's
        next step runs inside this one, up to its next ``yield``, and
        then the producer carries on.  No virtual time passes either
        way.  The producer must therefore call it with its own state
        settled (as the last thing it does with ``item``), and the
        consumer must not need to observe anything the producer does
        afterwards at this timestamp.  With nobody parked it is
        :meth:`push`.
        """
        if not self._getters:
            self.push(item)
            return
        getter = self._getters.popleft()
        getter._ok = True
        getter._value = item
        getter._processed = True
        callbacks, getter.callbacks = getter.callbacks, None
        for callback in callbacks:
            callback(getter)

    def drain(self) -> list:
        """Remove and return every queued item (no waiter interaction).

        Used when a consumer dies (a QP dropping to ERROR flushes its
        send queue): parked putters, if any, are admitted first so their
        items drain too and their events fire.
        """
        while self._putters and len(self.items) < self.capacity:
            putter, item = self._putters.popleft()
            self.items.append(item)
            putter.succeed(None)
        out = list(self.items)
        self.items.clear()
        return out

    def pop(self) -> Any:
        """Withdraw the oldest item in place; the store must hold one.

        The event-free half of :meth:`get`, for a consumer that checks
        ``store.items`` first and parks only on an empty store::

            item = store.pop() if store.items else (yield store.get())
        """
        item = self.items.popleft()
        if self._putters:
            putter, queued = self._putters.popleft()
            self.items.append(queued)
            putter.succeed(None)
        return item

    def get(self) -> Event:
        """Withdraw the oldest item; returned event fires with the item."""
        ev = Event(self.env)
        if self.items:
            ev.succeed(self.pop())
        else:
            self._getters.append(ev)
        return ev
