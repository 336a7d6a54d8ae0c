"""Runtime half of the convention checks: a lock-order sanitizer.

The static rules keep code *shape* honest; the concurrency rules from
PRs 5–8 are about *order*: the store's LRU lock is taken before
instrument leaf locks (``_shard`` bumps counters while holding the LRU
lock), the registry lock guards only series creation and is never held
across an instrument read, fn-gauges may take the store lock at snapshot
time precisely **because** no instrument lock is held then.  Those
invariants hold today by review; this module makes them hold by machine.

:class:`CheckedLock` wraps a :class:`threading.Lock` with a *name* (one
name per lock **class** — ``store.lru``, ``obs.instrument``, …) and
reports every acquisition to the installed
:class:`LockOrderSanitizer`, which maintains the global
first-observed-order digraph between lock names.  An acquisition that
would close a cycle in that digraph — lock *B* acquired while holding
*A* after some thread acquired *A* while holding *B* — raises
:class:`LockOrderError` naming the cycle, turning a once-in-a-blue-moon
deadlock into a deterministic test failure the first time the two orders
are *ever* exhibited, even seconds apart on different threads.

Production code creates its locks through :func:`new_lock`, which
returns a plain ``threading.Lock`` unless a sanitizer is installed —
zero hot-path overhead outside the test suite.  The test suite installs
one session-wide (see ``tests/conftest.py``), so the 16-thread
store-churn and router fault-injection tests double as lock-discipline
tests.

Same-name locks (two ``Counter`` instances) are not ordered against
each other — the discipline is between lock classes; re-acquiring the
*same* (non-reentrant) lock object on one thread is reported
immediately, since that is a guaranteed self-deadlock.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set, Tuple

__all__ = [
    "CheckedLock",
    "LockOrderError",
    "LockOrderSanitizer",
    "install",
    "installed",
    "new_lock",
    "uninstall",
]


class LockOrderError(RuntimeError):
    """An acquisition inverted the observed global lock order (or
    re-entered a non-reentrant lock)."""


class LockOrderSanitizer:
    """Records the lock-name acquisition digraph and raises on cycles."""

    def __init__(self):
        # Guards the digraph only.  Deliberately a *plain* lock: the
        # sanitizer must never report on itself.
        self._graph_lock = threading.Lock()
        # name -> set of names acquired while name was held (order edges).
        self._edges: Dict[str, Set[str]] = {}
        # (held, acquired) -> thread name that first exhibited the edge,
        # kept for the error message when the reverse order shows up.
        self._witnesses: Dict[Tuple[str, str], str] = {}
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _held(self) -> List["CheckedLock"]:
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = []
        return held

    def note_acquire(self, lock: "CheckedLock") -> None:
        """Validate (and record) acquiring *lock* given this thread's
        currently held locks.  Called **before** blocking on the real
        lock, so an order inversion is reported even when it does not
        happen to deadlock this time."""
        held = self._held()
        for other in held:
            if other is lock:
                raise LockOrderError(
                    f"re-acquisition of non-reentrant lock "
                    f"{lock.name!r} on thread "
                    f"{threading.current_thread().name} (self-deadlock)")
        for other in held:
            if other.name != lock.name:
                self._note_edge(other.name, lock.name)

    def note_acquired(self, lock: "CheckedLock") -> None:
        self._held().append(lock)

    def note_release(self, lock: "CheckedLock") -> None:
        held = self._held()
        # Release order may legally differ from acquire order; remove by
        # identity, scanning from the most recent acquisition.
        for index in range(len(held) - 1, -1, -1):
            if held[index] is lock:
                del held[index]
                return

    # ------------------------------------------------------------------
    def _note_edge(self, before: str, after: str) -> None:
        thread_name = threading.current_thread().name
        with self._graph_lock:
            successors = self._edges.setdefault(before, set())
            if after in successors:
                return  # edge already known and already validated
            cycle = self._path_locked(after, before)
            if cycle is not None:
                chain = " -> ".join(cycle + [after])
                witness = self._witnesses.get((cycle[0], cycle[1]),
                                              "<unknown thread>")
                raise LockOrderError(
                    f"lock-order inversion: thread {thread_name} acquires "
                    f"{after!r} while holding {before!r}, but the opposite "
                    f"order {chain} was established earlier (first witness: "
                    f"thread {witness})")
            successors.add(after)
            self._witnesses[(before, after)] = thread_name

    def _path_locked(self, start: str,
                     goal: str) -> Optional[List[str]]:
        """A path start -> ... -> goal in the observed-order digraph, or
        ``None``.  Tiny graph (one node per lock class), so a plain DFS."""
        stack = [(start, [start])]
        seen = {start}
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            for succ in self._edges.get(node, ()):
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, path + [succ]))
        return None

    # ------------------------------------------------------------------
    def observed_edges(self) -> Set[Tuple[str, str]]:
        """Every (held, acquired) name pair observed so far — lets tests
        assert the sanitizer actually saw the discipline it guards."""
        with self._graph_lock:
            return {(before, after)
                    for before, afters in self._edges.items()
                    for after in afters}


class CheckedLock:
    """A named ``threading.Lock`` that reports acquisition order to a
    :class:`LockOrderSanitizer`.  Drop-in for the subset of the ``Lock``
    API this codebase uses (``with``, ``acquire``/``release``,
    ``locked``)."""

    __slots__ = ("name", "_lock", "_sanitizer")

    def __init__(self, name: str, sanitizer: LockOrderSanitizer):
        self.name = name
        self._lock = threading.Lock()
        self._sanitizer = sanitizer

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._sanitizer.note_acquire(self)
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._sanitizer.note_acquired(self)
        return acquired

    def release(self) -> None:
        self._lock.release()
        self._sanitizer.note_release(self)

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "locked" if self._lock.locked() else "unlocked"
        return f"<CheckedLock {self.name!r} {state}>"


_installed: Optional[LockOrderSanitizer] = None


def install(sanitizer: Optional[LockOrderSanitizer] = None) -> LockOrderSanitizer:
    """Arm the sanitizer: every lock created through :func:`new_lock`
    from now on is a :class:`CheckedLock` reporting to it.  Idempotent —
    installing over an existing sanitizer keeps the existing one (locks
    already created hold references to it)."""
    global _installed
    if _installed is None:
        _installed = sanitizer if sanitizer is not None else LockOrderSanitizer()
    return _installed


def uninstall() -> None:
    """Disarm: :func:`new_lock` returns plain locks again.  Existing
    CheckedLocks keep their sanitizer reference and stay functional."""
    global _installed
    _installed = None


def installed() -> Optional[LockOrderSanitizer]:
    return _installed


def new_lock(name: str):
    """The lock factory the store/obs/serve layers use: a plain
    ``threading.Lock`` in production (zero overhead), a
    :class:`CheckedLock` under an installed sanitizer (the test suite)."""
    sanitizer = _installed
    if sanitizer is None:
        return threading.Lock()
    return CheckedLock(name, sanitizer)
