"""The one way run artifacts and manifests reach disk.

The response cache is not written here: it appends to its own log
(``providers.ResponseCache``).
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Iterable


def write_atomic(path, chunks: Iterable[str]) -> None:
    """Write the concatenated ``chunks`` to ``path`` all at once or not at all.

    Chunks stream into a temp file in the target's directory, which then
    replaces the target, so readers see the old file or the whole new one.
    If writing fails, the temp file is removed and the old file is untouched.
    The temp name is unique per process and thread, and the file is created
    with ``open`` so that it gets the usual umask permissions.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
