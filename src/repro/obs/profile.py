"""Continuous sampling profiler: what the serving threads are executing.

Metrics say a routed query was slow; traces say which span the time went
to; the :class:`SamplingProfiler` says what the process was *doing* — a
background daemon thread samples ``sys._current_frames()`` at a
configurable rate and folds each thread's stack into a bounded aggregate:

* frames are collapsed to ``repro`` modules (everything outside the
  package — asyncio plumbing, selector waits, numpy internals — is
  dropped; a thread with no repro frame on its stack is counted under the
  ``~external`` pseudo-stack so idle-vs-busy is still visible);
* stacks are keyed by **thread role**, classified from the thread names
  the stack already uses — ``shard-serve`` (the asyncio event loop: a
  :class:`~repro.serve.ThreadedServer` thread, or the thread
  ``repro-kron serve`` runs its loop on, where a fleet's router and slice
  workers all serve, store calls included), the profiler's own sampling
  thread, and the main thread;
* the aggregate is bounded (``max_stacks`` distinct stacks per role;
  overflow folds into ``~overflow``), so a pathological workload cannot
  grow the profile without bound.

:class:`ProfileStats` is the aggregate itself: plain data with
accumulator-style ``+`` — the range router merges per-worker profiles
exactly like it merges trace recorders, ``sum(worker_profiles, start)`` —
plus :meth:`collapsed` emitting the folded-stack text format flamegraph
tools ingest (``role;module:func;module:func count`` lines).

The profiler's lock goes through :func:`repro.lint.runtime.new_lock`
under the class name ``obs.profiler`` and is a leaf: sampling holds it
only to fold the already-collected stacks, and never acquires another
lock under it.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Dict, List, Optional

from repro.lint.runtime import new_lock

__all__ = ["ProfileStats", "SamplingProfiler", "thread_role"]

#: Stack key for a thread whose sample held no repro frame at all.
EXTERNAL_STACK = "~external"
#: Stack key distinct stacks beyond ``max_stacks`` fold into.
OVERFLOW_STACK = "~overflow"

#: Thread-name prefix -> role, most specific first.  These are the names
#: the serving stack already assigns (the serving loop's thread); the
#: profiler names its own thread ``repro-profiler``.
_ROLE_PREFIXES = (
    ("shard-serve", "event_loop"),
    ("repro-profiler", "profiler"),
    ("MainThread", "main"),
)

_PACKAGE_MARKER = f"{os.sep}repro{os.sep}"


def thread_role(name: str) -> str:
    """Classify a thread name into the profile's role key."""
    for prefix, role in _ROLE_PREFIXES:
        if name.startswith(prefix):
            return role
    return "other"


def _fold_frame(frame) -> Optional[str]:
    """``module:function`` label for one frame, or ``None`` outside repro."""
    filename = frame.f_code.co_filename
    marker = filename.rfind(_PACKAGE_MARKER)
    if marker < 0:
        return None
    module = filename[marker + 1:]
    if module.endswith(".py"):
        module = module[:-3]
    module = module.replace(os.sep, ".")
    return f"{module}:{frame.f_code.co_name}"


def fold_stack(frame) -> str:
    """Collapse one thread's live stack to its repro frames, root first.

    The returned string is one flamegraph folded-stack path
    (``repro.serve.server:_store_call;repro.store.query:_shard``); a stack
    with no repro frame folds to :data:`EXTERNAL_STACK`.
    """
    labels: List[str] = []
    while frame is not None:
        label = _fold_frame(frame)
        if label is not None:
            labels.append(label)
        frame = frame.f_back
    if not labels:
        return EXTERNAL_STACK
    labels.reverse()
    return ";".join(labels)


class ProfileStats:
    """A folded-stack aggregate: sample count plus per-role stack counts.

    Plain JSON-able data with value semantics — :meth:`as_dict` /
    :meth:`from_dict` round-trip over the wire, ``+`` merges two
    aggregates (the router's rollup), ``==`` compares contents.
    """

    __slots__ = ("samples", "stacks")

    def __init__(self, samples: int = 0,
                 stacks: Optional[Dict[str, Dict[str, int]]] = None):
        self.samples = int(samples)
        self.stacks: Dict[str, Dict[str, int]] = {
            role: dict(counts) for role, counts in (stacks or {}).items()}

    def record(self, role: str, stack: str, *,
               max_stacks: Optional[int] = None) -> None:
        """Count one sampled stack under *role*, folding into
        :data:`OVERFLOW_STACK` once *max_stacks* distinct stacks exist."""
        counts = self.stacks.setdefault(role, {})
        if (max_stacks is not None and stack not in counts
                and len(counts) >= max_stacks):
            stack = OVERFLOW_STACK
        counts[stack] = counts.get(stack, 0) + 1

    def __add__(self, other: "ProfileStats") -> "ProfileStats":
        if not isinstance(other, ProfileStats):
            return NotImplemented
        merged = ProfileStats(self.samples + other.samples, self.stacks)
        for role, counts in other.stacks.items():
            into = merged.stacks.setdefault(role, {})
            for stack, count in counts.items():
                into[stack] = into.get(stack, 0) + count
        return merged

    def __radd__(self, other) -> "ProfileStats":
        if other == 0:  # sum() support
            return ProfileStats(self.samples, self.stacks)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProfileStats):
            return NotImplemented
        return self.samples == other.samples and self.stacks == other.stacks

    def __repr__(self) -> str:
        n_stacks = sum(len(counts) for counts in self.stacks.values())
        return (f"ProfileStats(samples={self.samples}, "
                f"roles={sorted(self.stacks)}, stacks={n_stacks})")

    def as_dict(self) -> dict:
        """Wire form: ``{"samples": n, "stacks": {role: {stack: count}}}``."""
        return {"samples": self.samples,
                "stacks": {role: dict(counts)
                           for role, counts in sorted(self.stacks.items())}}

    @classmethod
    def from_dict(cls, payload: dict) -> "ProfileStats":
        return cls(payload.get("samples", 0), payload.get("stacks") or {})

    def collapsed(self) -> str:
        """Folded-stack text (``role;stack count`` lines, sorted) — the
        input format of flamegraph renderers; the role rides as the root
        frame so one graph shows every pool side by side."""
        lines = [f"{role};{stack} {count}"
                 for role, counts in sorted(self.stacks.items())
                 for stack, count in sorted(counts.items())]
        return "\n".join(lines) + ("\n" if lines else "")


class SamplingProfiler:
    """Background-thread sampling profiler over ``sys._current_frames()``.

    Parameters
    ----------
    hz:
        Sampling rate (samples per second, > 0).  ``start(hz=...)`` can
        override per run.
    max_stacks:
        Bound on distinct stacks kept per thread role; the tail folds
        into :data:`OVERFLOW_STACK`.

    ``start()`` / ``stop()`` are idempotent and thread-safe; ``stop()``
    joins the sampling thread, so a snapshot taken afterwards is frozen —
    the property the router's merge test relies on.  The aggregate
    survives across runs until :meth:`reset`.
    """

    def __init__(self, hz: float = 67.0, *, max_stacks: int = 256):
        if hz <= 0:
            raise ValueError(f"hz must be > 0, got {hz}")
        self.hz = float(hz)
        self.max_stacks = int(max_stacks)
        self._lock = new_lock("obs.profiler")
        self._stats = ProfileStats()
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self, *, hz: Optional[float] = None) -> bool:
        """Arm the sampling thread; ``True`` if this call started it
        (``False``: already running — the rate is left untouched)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return False
            if hz is not None:
                if hz <= 0:
                    raise ValueError(f"hz must be > 0, got {hz}")
                self.hz = float(hz)
            self._stop_event = threading.Event()
            self._thread = threading.Thread(
                target=self._run, name="repro-profiler", daemon=True)
            self._thread.start()
            return True

    def stop(self) -> bool:
        """Disarm and join the sampler; ``True`` if it was running.
        After ``stop()`` returns, the aggregate no longer changes."""
        with self._lock:
            thread, self._thread = self._thread, None
            self._stop_event.set()
        if thread is None or not thread.is_alive():
            return False
        # Join outside the lock: the sampler takes it to fold each sample.
        thread.join()
        return True

    def snapshot(self) -> ProfileStats:
        """A value copy of the aggregate (safe to keep across samples)."""
        with self._lock:
            return ProfileStats(self._stats.samples, self._stats.stacks)

    def reset(self) -> None:
        with self._lock:
            self._stats = ProfileStats()

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Sampling thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        interval = 1.0 / self.hz
        stop_event = self._stop_event
        while not stop_event.wait(interval):
            self._sample_once()

    def _sample_once(self) -> None:
        names = {thread.ident: thread.name
                 for thread in threading.enumerate()}
        # Snapshot the frames *before* taking the fold lock: folding is
        # pure reads over the captured frame objects.
        frames = sys._current_frames()
        folded = [(thread_role(names.get(ident, "other")), fold_stack(frame))
                  for ident, frame in frames.items()]
        del frames
        with self._lock:
            self._stats.samples += 1
            for role, stack in folded:
                self._stats.record(role, stack, max_stacks=self.max_stacks)
