"""Atomic text-file replacement shared by the service and progress writers.

A reader of the target path sees either the previous content or the
new content, never a torn file: the text goes to a temp file in the
target's directory, which :func:`os.replace` then renames over the
target.  The temp name carries the process id *and* the thread id, so
concurrent writers -- threads of the job server, or several processes
sharing a data dir -- never write, rename or remove each other's temp
file.
"""

from __future__ import annotations

import os
import threading

__all__ = ["atomic_write_text"]


def atomic_write_text(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8) in one atomic rename."""
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
