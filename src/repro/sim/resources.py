"""Shared-resource primitives: counted resources and object stores.

These model contention points in the simulated system: NIC processing
engines and the serializing wire sit on :class:`Resource`, the queues
between components on :class:`Store`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.errors import SimulationError
from repro.sim.core import PARKED, Environment, _count, _park_error


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
    """An unbounded FIFO of Python objects with one consumer.

    ``push`` (or ``hand_off``) deposits an item; a consumer that finds
    the store empty parks on :meth:`get` as itself, and its producer
    hands the next item over in :attr:`handed`, outside :attr:`items`::

        if store.items:
            item = store.items.pop(0)
        else:
            yield store.get()                        # PARKED
            item, store.handed = store.handed, None  # take it
    """

    __slots__ = ("env", "items", "handed", "_getter")

    def __init__(self, env: Environment):
        self.env = env
        #: Queued items, oldest first.  A list, not a deque: an empty
        #: deque costs 760 bytes (a list 56), a cluster holds hundreds of
        #: stores, mostly idle, and a busy one queues a handful of items,
        #: so ``pop(0)`` is cheap.
        self.items: list[Any] = []
        #: The item handed to the waking consumer, outside ``items`` (a
        #: drain does not see it); cleared as it is taken.
        self.handed: Any = None
        #: The parked consumer, if any.
        self._getter = None

    def __len__(self) -> int:
        return len(self.items)

    def push(self, item: Any) -> None:
        """Deposit ``item``: a parked consumer is handed it and goes into
        the current batch (where a get event would have); else it queues."""
        getter = self._getter
        if getter is None:
            self.items.append(item)
            return
        self._getter = None
        self.handed = item
        self.env._cur_normal.append(getter)

    def hand_off(self, item: Any) -> None:
        """Deposit ``item``, resuming a parked consumer *in place*.

        Where :meth:`push` resumes it through the batch, at the producer's
        own ``(time, priority)``, this runs its next step inside the call.
        The producer must call it with its own state settled, and the
        consumer must not need to observe anything the producer does
        afterwards at this timestamp.  With nobody parked it is
        :meth:`push`.
        """
        getter = self._getter
        if getter is None:
            self.items.append(item)
            return
        self._getter = None
        self.handed = item
        getter._resume(getter)

    def get(self):
        """Park the active process, the consumer, until :attr:`handed`
        holds an item (at once, through the batch, if one is queued);
        ``yield`` the result (:data:`~repro.sim.core.PARKED`)."""
        env = self.env
        proc = env.active_process
        if proc is None or proc._target is not None:
            raise _park_error(proc, "Store.get()")
        if self._getter is not None:
            raise SimulationError(
                f"Store.get(): {self._getter.name!r} already waits; a store "
                "has one consumer")
        if self.items:
            self.handed = self.items.pop(0)
            env._cur_normal.append(proc)
        else:
            self._getter = proc
            proc._target = self
        return PARKED

    def _unpark(self, proc) -> None:
        if self._getter is proc:
            self._getter = None
