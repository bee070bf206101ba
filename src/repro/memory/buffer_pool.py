"""Shared ring buffers for pipeline partitions (paper Fig. 6).

Without reuse, each of the n partitions of TDI / TM / TDO owns its slice
of a full-size tensor — the "memory bubbles" at the top of Fig. 6.  With
reuse, a *role* (tdi/tm/tdo) owns a small ring of physical slots that
successive partitions write in turn:

* ``tdi`` and ``tdo`` need **two** slots each — one being filled by the
  communication stream while the other is read/written by compute;
* ``tm`` needs **one** slot — it is produced and consumed inside a
  single compute stage.

Slot arrays are real numpy buffers (so functional execution through
them genuinely overwrites earlier partitions — the hazard the restore
strategies exist to fix) and every acquisition is metered through a
:class:`~repro.sim.memory_allocator.CachingAllocator` when one is given,
which is how Fig. 10's *achieved* savings are measured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.memory_allocator import CachingAllocator

#: Physical slots per role under memory reuse (Fig. 6 bottom).
SLOTS_PER_ROLE = {"tdi": 2, "tdo": 2, "tm": 1}


@dataclass
class _Ring:
    slots: list[np.ndarray]
    handles: list[int]


class SharedBufferPool:
    """Ring-buffer manager for one device's pipeline partitions."""

    def __init__(
        self,
        allocator: CachingAllocator | None = None,
        dtype=np.float64,
    ) -> None:
        self.allocator = allocator
        self.dtype = np.dtype(dtype)
        self._rings: dict[str, _Ring] = {}

    def create_role(
        self, role: str, chunk_shape: tuple[int, ...], num_slots: int | None = None
    ) -> None:
        """Allocate the ring for ``role`` with slots of ``chunk_shape``."""
        if role in self._rings:
            raise ValueError(f"role {role!r} already created")
        if num_slots is None:
            try:
                num_slots = SLOTS_PER_ROLE[role]
            except KeyError:
                raise KeyError(
                    f"role {role!r} has no default slot count; pass num_slots"
                ) from None
        if num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        slots, handles = [], []
        nbytes = int(np.prod(chunk_shape)) * self.dtype.itemsize
        for i in range(num_slots):
            slots.append(np.zeros(chunk_shape, dtype=self.dtype))
            if self.allocator is not None:
                handles.append(self.allocator.allocate(nbytes, label=f"{role}[{i}]"))
        self._rings[role] = _Ring(slots=slots, handles=handles)

    def get(self, role: str, partition: int) -> np.ndarray:
        """Physical slot that partition ``partition`` of ``role`` uses.

        Partitions map round-robin onto slots, so partition i and i+k*slots
        share storage — writing partition i+slots genuinely clobbers
        partition i's data.
        """
        ring = self._ring(role)
        if partition < 0:
            raise IndexError("partition must be non-negative")
        return ring.slots[partition % len(ring.slots)]

    def release_all(self) -> None:
        """Free every ring (end of backward pass)."""
        if self.allocator is not None:
            for ring in self._rings.values():
                for handle in ring.handles:
                    self.allocator.free(handle)
        self._rings.clear()

    def total_bytes(self) -> int:
        return sum(
            slot.nbytes for ring in self._rings.values() for slot in ring.slots
        )

    def _ring(self, role: str) -> _Ring:
        try:
            return self._rings[role]
        except KeyError:
            raise KeyError(f"role {role!r} not created") from None

    def __contains__(self, role: str) -> bool:
        return role in self._rings
