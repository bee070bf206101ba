"""CPU offload target.

Models the pinned host memory that strategies S1-S3 swap activations
into (paper Sec. III-D "Data offloading").  Functionally it is a keyed
store of copied arrays — a fetch returns exactly the stored bytes, which
is what makes offload-based restoration bitwise-exact.  The pool tracks
its high-water mark so experiments can report host-memory cost too.
"""

from __future__ import annotations

import numpy as np


class HostBufferPool:
    """Keyed store of offloaded arrays with byte accounting."""

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._store: dict[object, np.ndarray] = {}
        self.bytes_used = 0
        self.peak_bytes = 0
        self.num_offloads = 0
        self.num_fetches = 0

    def offload(self, key: object, array: np.ndarray) -> None:
        """Copy ``array`` to host under ``key`` (device buffer may now be reused)."""
        if key in self._store:
            raise KeyError(f"key {key!r} already offloaded; fetch or discard first")
        copied = np.array(array, copy=True)
        if self.capacity is not None and self.bytes_used + copied.nbytes > self.capacity:
            raise MemoryError(
                f"host pool over capacity: {self.bytes_used + copied.nbytes} > "
                f"{self.capacity}"
            )
        self._store[key] = copied
        self.bytes_used += copied.nbytes
        self.peak_bytes = max(self.peak_bytes, self.bytes_used)
        self.num_offloads += 1

    def fetch(self, key: object, discard: bool = True) -> np.ndarray:
        """Prefetch an array back to the device; ``discard`` frees the host copy."""
        try:
            arr = self._store[key]
        except KeyError:
            raise KeyError(f"no offloaded array under key {key!r}") from None
        self.num_fetches += 1
        if discard:
            del self._store[key]
            self.bytes_used -= arr.nbytes
            return arr
        return arr.copy()

    def clear(self) -> None:
        self._store.clear()
        self.bytes_used = 0

    def __contains__(self, key: object) -> bool:
        return key in self._store

    def __len__(self) -> int:
        return len(self._store)
