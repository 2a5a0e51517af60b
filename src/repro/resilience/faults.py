"""Crash simulation for artifact and checkpoint tests.

:func:`torn_write` simulates the partial-write crash window: it writes
only a prefix of the intended bytes, the on-disk state a kill
mid-``write()`` leaves behind.  The checkpoint journal's torn-tail
recovery and the atomic artifact writer are tested against it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union


def torn_write(path: Union[str, Path], blob: bytes,
               keep: float = 0.5) -> None:
    """Simulate a crash mid-write: leave only a prefix of ``blob``.

    Models the window an in-place writer is exposed to (and the atomic
    artifact writer closes): the file exists, its name resolves, but
    its content is a truncated prefix with no delimiter.
    """
    if not 0.0 <= keep <= 1.0:
        raise ValueError("keep must be within [0, 1]")
    Path(path).write_bytes(blob[:int(len(blob) * keep)])
