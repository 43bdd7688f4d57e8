"""Shared-resource primitives: counted resources and object stores.

These model contention points in the simulated system: NIC processing
engines and the serializing wire sit on :class:`Resource`, the queues
between components on :class:`Store`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.errors import SimulationError
from repro.sim.core import Environment, Event, _count, _park_error


class Request:
    """A claim on a :class:`Resource` slot; release it with
    :meth:`Resource.release`.

    ``waiter`` is the process queued for the slot, ``None`` once the
    slot is granted.
    """

    __slots__ = ("waiter",)

    def __init__(self, waiter=None):
        self.waiter = waiter


class Resource:
    """A resource with ``capacity`` identical slots and a FIFO wait queue.

    >>> res = Resource(env, capacity=1)
    >>> def worker(env, res):
    ...     req = res.claim()
    ...     if req.waiter is not None:
    ...         yield PARKED           # busy: wait for the hand-off
    ...     yield env.timeout(1.0)     # hold the resource
    ...     res.release(req)
    """

    __slots__ = ("env", "capacity", "_users", "_waiting")

    def __init__(self, env: Environment, capacity: int = 1):
        self.env = env
        self.capacity = _count("capacity", capacity)
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

    def claim(self) -> Request:
        """Claim a slot, taking a free one in place.

        A free slot is granted without touching the event queue and the
        caller carries on.  A busy resource queues the active process
        itself (no grant event), and the caller yields
        :data:`~repro.sim.core.PARKED` at once::

            req = res.claim()
            if req.waiter is not None:        # busy: wait for the hand-off
                yield PARKED
            ...
            res.release(req)
        """
        if len(self._users) < self.capacity:
            req = Request()
            self._users.add(req)
            return req
        proc = self.env.active_process
        if proc is None or proc._target is not None:
            raise _park_error(proc, "Resource.claim()")
        req = Request(proc)
        self._waiting.append(req)
        proc._target = self
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
            # Granted: the waiter resumes where ``succeed(None)`` on a
            # grant event would have put it.
            self.env._cur_normal.append(nxt.waiter)
            nxt.waiter = None

    def _unpark(self, proc) -> None:
        for req in self._waiting:
            if req.waiter is proc:
                self._waiting.remove(req)
                return


class Store:
    """An unbounded FIFO of Python objects.

    ``push`` (or ``hand_off``) deposits an item; ``get`` fires when one
    is available.  Used for message queues between simulated components.
    """

    __slots__ = ("env", "items", "_getters")

    def __init__(self, env: Environment):
        self.env = env
        #: Queued items, oldest first.  Lists, not deques, here and for
        #: the parked :meth:`get` events: an empty deque costs 760 bytes
        #: (a list 56), a cluster holds hundreds of stores, mostly idle,
        #: and a busy one queues a handful of items, so ``pop(0)`` is cheap.
        self.items: list[Any] = []
        #: The simulator's stores have one consumer each, so at most one
        #: getter waits.
        self._getters: list[Event] = []

    def __len__(self) -> int:
        return len(self.items)

    def push(self, item: Any) -> None:
        """Deposit ``item`` with no event: the oldest parked getter gets
        it (through the event queue), else it queues."""
        if self._getters:
            self._getters.pop(0).succeed(item)
        else:
            self.items.append(item)

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
            self.items.append(item)
            return
        getter = self._getters.pop(0)
        getter._ok = True
        getter._value = item
        getter._processed = True
        callbacks, getter.callbacks = getter.callbacks, None
        for callback in callbacks:
            callback(getter)

    def drain(self) -> list:
        """Remove and return every queued item (no waiter interaction).

        Used when a consumer dies (a QP dropping to ERROR flushes its
        send queue).
        """
        out = list(self.items)
        self.items.clear()
        return out

    def pop(self) -> Any:
        """Withdraw the oldest item in place; the store must hold one.

        The event-free half of :meth:`get`, for a consumer that checks
        ``store.items`` first and parks only on an empty store::

            item = store.pop() if store.items else (yield store.get())
        """
        return self.items.pop(0)

    def get(self) -> Event:
        """Withdraw the oldest item; returned event fires with the item."""
        ev = Event(self.env)
        if self.items:
            ev.succeed(self.items.pop(0))
        else:
            self._getters.append(ev)
        return ev
