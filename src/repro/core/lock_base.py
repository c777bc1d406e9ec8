"""Abstract interfaces shared by every lock implementation.

A lock comes in two pieces:

* a **spec** — pure data describing window layout, thresholds and topology
  mappings.  Specs are created once (before the runtime starts), contribute
  their window words, and know how to initialize each rank's window.
* a **handle** — the per-process object a rank program obtains by calling
  ``spec.make(ctx)`` inside the runtime.  Handles issue the actual RMA calls.

Mutual-exclusion locks expose ``acquire``/``release``; reader-writer locks
additionally expose ``acquire_read``/``release_read`` (and alias
``acquire``/``release`` to the writer side so an RW lock can be dropped in
wherever a plain lock is expected).

A protocol is written **once**, as ``*_steps`` generators that yield their
RMA requests (see "Step programs" in :mod:`repro.rma.runtime_base`); the
blocking methods are derived from them here, by running the generator through
``ctx.run_steps``.  Step programs compose handles with ``yield from
lock.acquire_steps()``; blocking programs, ``held()``/``reading()``/
``writing()``, ``Cluster.session`` and the tests keep calling
``lock.acquire()``.  A handle may instead override only the blocking methods
(the way third-party locks written before step programs do): it keeps working
wherever its caller runs on a rank thread, and :meth:`LockHandle.implements_steps`
tells the harness to arrange one (:func:`program_for_spec`).
"""

from __future__ import annotations

import abc
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Mapping

from repro.rma.runtime_base import (
    ProcessContext,
    RuntimeError_,
    Steps,
    blocking_program,
    is_step_program,
)

__all__ = [
    "LockHandle",
    "LockSpec",
    "RWLockHandle",
    "RWLockSpec",
    "blocking_form",
    "program_for_spec",
]


def blocking_form(steps_name: str) -> Callable[..., Any]:
    """The blocking method derived from the ``*_steps`` generator method ``steps_name``.

    Used in class bodies — ``acquire = blocking_form("acquire_steps")`` — by
    every handle whose protocol is written as generators.  The steps method
    is looked up on the instance, so subclasses override the generator only.
    """

    def method(self: Any, *args: Any, **kwargs: Any) -> Any:
        return self.ctx.run_steps(getattr(self, steps_name)(*args, **kwargs))

    method.__name__ = method.__qualname__ = steps_name[: -len("_steps")]
    method.__doc__ = f"Blocking form of :meth:`{steps_name}` (runs it through ``ctx.run_steps``)."
    return method


def _steps_from_blocking(handle: Any, base: type, name: str) -> Steps:
    """The steps of a blocking-only handle: call its blocking ``name`` method.

    Valid wherever the caller runs on a rank thread (under ``ctx.run_steps``);
    inside a step program stepped inline the blocking call raises, which is
    why the harness checks :meth:`LockHandle.implements_steps` first.
    """
    method = getattr(type(handle), name)
    if method is getattr(base, name):
        raise NotImplementedError(
            f"{type(handle).__name__} implements neither {name}_steps() nor {name}()"
        )
    method(handle)
    return
    yield  # pragma: no cover - makes this function a generator


def _overrides(handle: Any, base: type, *names: str) -> bool:
    return all(getattr(type(handle), name) is not getattr(base, name) for name in names)


class LockHandle(abc.ABC):
    """Per-process handle of a mutual-exclusion lock.

    Subclasses implement :meth:`acquire_steps` and :meth:`release_steps` (or,
    blocking-only, :meth:`acquire` and :meth:`release`) and set ``self.ctx``.
    """

    #: The context the handle was made for.
    ctx: ProcessContext

    def acquire_steps(self) -> Steps:
        """Spin until the calling process owns the lock (step form)."""
        return _steps_from_blocking(self, LockHandle, "acquire")

    def release_steps(self) -> Steps:
        """Release the lock; the caller must currently own it (step form)."""
        return _steps_from_blocking(self, LockHandle, "release")

    acquire = blocking_form("acquire_steps")
    release = blocking_form("release_steps")

    def implements_steps(self) -> bool:
        """False for a blocking-only handle, whose caller needs a rank thread."""
        return _overrides(self, LockHandle, "acquire_steps", "release_steps")

    @contextmanager
    def held(self) -> Iterator[None]:
        """Context manager form: ``with lock.held(): ...``."""
        self.acquire()
        try:
            yield
        finally:
            self.release()


class RWLockHandle(LockHandle):
    """Per-process handle of a reader-writer lock."""

    def acquire_read_steps(self) -> Steps:
        """Enter the critical section as a reader (shared access)."""
        return _steps_from_blocking(self, RWLockHandle, "acquire_read")

    def release_read_steps(self) -> Steps:
        """Leave the critical section as a reader."""
        return _steps_from_blocking(self, RWLockHandle, "release_read")

    def acquire_write_steps(self) -> Steps:
        """Enter the critical section as a writer (exclusive access)."""
        return _steps_from_blocking(self, RWLockHandle, "acquire_write")

    def release_write_steps(self) -> Steps:
        """Leave the critical section as a writer."""
        return _steps_from_blocking(self, RWLockHandle, "release_write")

    acquire_read = blocking_form("acquire_read_steps")
    release_read = blocking_form("release_read_steps")
    acquire_write = blocking_form("acquire_write_steps")
    release_write = blocking_form("release_write_steps")

    # A reader-writer lock used through the plain Lock interface behaves as a
    # writer (exclusive) lock.
    def acquire_steps(self) -> Steps:
        return self.acquire_write_steps()

    def release_steps(self) -> Steps:
        return self.release_write_steps()

    def implements_steps(self) -> bool:
        return _overrides(
            self, RWLockHandle,
            "acquire_read_steps", "release_read_steps",
            "acquire_write_steps", "release_write_steps",
        )

    @contextmanager
    def reading(self) -> Iterator[None]:
        """Context manager for the reader side."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def writing(self) -> Iterator[None]:
        """Context manager for the writer side."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


class LockSpec(abc.ABC):
    """Shared, immutable description of a lock instance."""

    @property
    @abc.abstractmethod
    def window_words(self) -> int:
        """Number of window words the lock needs (counting from offset 0)."""

    @abc.abstractmethod
    def init_window(self, rank: int) -> Mapping[int, int]:
        """Initial window contents for ``rank`` (offsets not listed stay 0)."""

    @abc.abstractmethod
    def make(self, ctx: ProcessContext) -> LockHandle:
        """Create the per-process handle bound to ``ctx``."""

    # Convenience so several specs (lock + DHT + scratch) can be combined.
    @staticmethod
    def merge_inits(*inits: Mapping[int, int]) -> Dict[int, int]:
        """Merge window-init dictionaries, rejecting conflicting offsets."""
        merged: Dict[int, int] = {}
        for init in inits:
            for offset, value in init.items():
                if offset in merged and merged[offset] != value:
                    raise ValueError(f"conflicting initial values for window offset {offset}")
                merged[offset] = value
        return merged


class RWLockSpec(LockSpec):
    """Spec whose handles implement :class:`RWLockHandle`."""

    @abc.abstractmethod
    def make(self, ctx: ProcessContext) -> RWLockHandle:  # type: ignore[override]
        """Create the per-process reader-writer handle bound to ``ctx``."""


# --------------------------------------------------------------------------- #
# Matching a step program to the handles it will drive
# --------------------------------------------------------------------------- #

class _ProbeContext(ProcessContext):
    """What ``spec.make`` sees when asked which kind of handle it makes.

    Identity only (rank 0 of the machine); a handle constructor has no
    business issuing RMA calls, and none is possible here.
    """

    rng = None
    observer = None

    def __init__(self, machine: Any):
        self.rank = 0
        self.nranks = machine.num_processes
        self.machine = machine

    def _no_rma(self, *args: Any, **kwargs: Any) -> Any:
        raise RuntimeError_("a lock handle's constructor must not issue RMA calls")

    put = get = accumulate = fao = cas = flush = _no_rma
    spin_on_cells = compute = barrier = _no_rma

    def now(self) -> float:
        return 0.0


def program_for_spec(spec: LockSpec, machine: Any, program: Callable[..., Any]) -> Callable[..., Any]:
    """``program`` in the form that the handles of ``spec`` can run in.

    A step program composes handles with ``yield from lock.acquire_steps()``.
    When the handles implement those generators it is returned as it is (and
    the horizon runtime steps it inline, with no rank thread); when they are
    blocking-only it is returned as
    :func:`~repro.rma.runtime_base.blocking_program`, so the same loop runs on
    one thread per rank where the blocking ``acquire()`` can wait — on
    horizon each of its calls is handed to the same scheduling loop, one
    thread handoff per call.  The handle kind is read off one probe handle; a
    spec whose ``make`` cannot be probed counts as blocking-only, which is
    correct for every handle.
    """
    if not is_step_program(program):
        return program
    try:
        if spec.make(_ProbeContext(machine)).implements_steps():
            return program
    except Exception:  # noqa: BLE001 - third-party make() on a stand-in context
        pass
    return blocking_program(program)
