"""Torn-read-safe file writes, shared by every file the sweep stack keeps.

Cache entries, federated-store entries, run manifests, run reports and
traces all land through :func:`write_atomic`, so a concurrent reader —
another sweep, a serving thread, ``rsync`` — sees the old file or the
new one, never a partial write.  Standard library only, like the rest
of :mod:`repro.obs`.
"""

from __future__ import annotations

import os
import tempfile


def write_atomic(path, text: str) -> str:
    """Write ``text`` to ``path`` via a temp file and a rename."""
    path = os.fspath(path)
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path
