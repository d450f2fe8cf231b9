"""Zero-copy shared-memory transport for columnar NumPy arrays.

The bound engine's precomputed factor tables (`repro.model.batch`) are
a handful of contiguous int64 blocks, and `multiprocessing.shared_memory`
can hand parallel branch-and-bound workers *views* of those blocks
instead of pickling them into every worker. :class:`ShmArrayBundle` packs a named dict of arrays into one
shared segment and ships a tiny picklable :class:`BundleHandle`
(segment name + per-array dtype/shape/offset specs); workers attach and
get read-only ndarray views backed by the same physical pages.

Lifecycle discipline (mirrors the probe-tested pool semantics):

* the **driver** creates the segment (`share`) and is the only process
  that ever calls :meth:`ShmArrayBundle.unlink` — in a ``finally``, so a
  crashed or SIGKILLed worker can never leak ``/dev/shm`` entries;
* **workers** attach (`attach`) and simply drop their references; pool
  children inherit the driver's resource tracker, so no per-worker
  unregister dance is needed (attach re-registers into the same set and
  the driver's single unlink clears it).

When ``multiprocessing.shared_memory`` is unavailable — or
segment creation fails at runtime (e.g. ``/dev/shm`` full) — the bundle
degrades to a **pickle fallback**: the handle carries the arrays
themselves and ``attach`` just hands them back. Same API, same data,
``transport`` records which path actually ran (the same degrade-never-
fail discipline as the fork→spawn→sequential pool ladder).
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

try:  # pragma: no cover - stdlib, but gate like numpy for odd builds
    from multiprocessing import shared_memory as _shared_memory

    HAS_SHM = True
except ImportError:  # pragma: no cover
    _shared_memory = None  # type: ignore[assignment]
    HAS_SHM = False

#: Prefix of every segment this module creates. Tests (and operators)
#: can assert cleanliness by globbing ``/dev/shm`` for it.
SEGMENT_PREFIX = "repro_shm_"

#: Per-array alignment inside the segment. 64 bytes keeps every view
#: cache-line aligned regardless of the preceding array's size.
_ALIGN = 64


@dataclass(frozen=True)
class ArraySpec:
    """Placement of one array inside a shared segment."""

    name: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        size = int(np.dtype(self.dtype).itemsize)
        for extent in self.shape:
            size *= int(extent)
        return size


@dataclass
class BundleHandle:
    """Picklable descriptor of a shared bundle.

    ``transport`` is ``"shm"`` (``segment`` + ``specs`` describe the
    views) or ``"pickle"`` (``payload`` carries the arrays verbatim).
    """

    transport: str
    segment: Optional[str] = None
    specs: Tuple[ArraySpec, ...] = ()
    payload: Optional[Dict[str, Any]] = field(default=None, repr=False)


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class ShmArrayBundle:
    """A named dict of arrays living in one shared-memory segment.

    Use :meth:`share` on the driver side and :meth:`attach` on the
    worker side; ``arrays`` maps names to ndarray views either way.
    """

    def __init__(
        self,
        handle: BundleHandle,
        arrays: Dict[str, Any],
        shm: Any = None,
        owner: bool = False,
    ) -> None:
        self.handle = handle
        self.arrays = arrays
        self._shm = shm
        self._owner = owner

    @property
    def transport(self) -> str:
        return self.handle.transport

    @classmethod
    def share(
        cls, arrays: Mapping[str, Any], allow_shm: bool = True
    ) -> "ShmArrayBundle":
        """Copy ``arrays`` into a fresh shared segment (driver side).

        One copy in; attaches are zero-copy. Falls back to carrying the
        arrays inside the (pickled) handle when shared memory is
        unavailable or the segment cannot be created.
        """
        if not (allow_shm and HAS_SHM):
            return cls._share_pickled(arrays)
        specs = []
        offset = 0
        sources = {}
        for name, array in arrays.items():
            src = np.ascontiguousarray(array)
            offset = _aligned(offset)
            specs.append(
                ArraySpec(
                    name=name,
                    dtype=src.dtype.str,
                    shape=tuple(int(x) for x in src.shape),
                    offset=offset,
                )
            )
            sources[name] = src
            offset += src.nbytes
        segment = SEGMENT_PREFIX + uuid.uuid4().hex[:16]
        try:
            shm = _shared_memory.SharedMemory(
                create=True, size=max(offset, 1), name=segment
            )
        except OSError:
            return cls._share_pickled(arrays)
        views: Dict[str, Any] = {}
        for spec in specs:
            view = np.ndarray(
                spec.shape, dtype=spec.dtype, buffer=shm.buf, offset=spec.offset
            )
            view[...] = sources[spec.name]
            views[spec.name] = view
        handle = BundleHandle(
            transport="shm", segment=segment, specs=tuple(specs)
        )
        return cls(handle, views, shm=shm, owner=True)

    @classmethod
    def _share_pickled(cls, arrays: Mapping[str, Any]) -> "ShmArrayBundle":
        payload = dict(arrays)
        handle = BundleHandle(transport="pickle", payload=payload)
        return cls(handle, payload)

    @classmethod
    def attach(cls, handle: BundleHandle) -> "ShmArrayBundle":
        """Open read-only views over an existing bundle (worker side)."""
        if handle.transport == "pickle":
            return cls(handle, dict(handle.payload or {}))
        if not HAS_SHM:  # pragma: no cover - driver gates
            raise RuntimeError(
                "cannot attach a shared-memory bundle without "
                "multiprocessing.shared_memory"
            )
        shm = _shared_memory.SharedMemory(name=handle.segment)
        views: Dict[str, Any] = {}
        for spec in handle.specs:
            view = np.ndarray(
                spec.shape, dtype=spec.dtype, buffer=shm.buf, offset=spec.offset
            )
            view.flags.writeable = False
            views[spec.name] = view
        return cls(handle, views, shm=shm, owner=False)

    def close(self) -> None:
        """Drop this process's views and mapping (best effort)."""
        self.arrays = {}
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover - outstanding views
                pass
            self._shm = None

    def unlink(self) -> None:
        """Remove the segment name (driver side, exactly once).

        Existing mappings stay valid until every holder closes; the name
        just disappears from ``/dev/shm`` so nothing can leak.
        """
        if self._owner and self._shm is not None:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._owner = False

    def release(self) -> None:
        """Driver-side cleanup: unlink the name, then drop the mapping."""
        self.unlink()
        self.close()

    def __enter__(self) -> "ShmArrayBundle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()
