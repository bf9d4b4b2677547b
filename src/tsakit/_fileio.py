"""Output files that are replaced only once they are complete, opened in
binary mode: each holds exactly the bytes written to it, on every OS."""
from __future__ import annotations

import contextlib
import os
import stat


@contextlib.contextmanager
def staged_files():
    """Yield ``open_staged(path)``, which opens a file for writing bytes.

    A path that does not exist or is a regular file is written as
    ``.<name>.<pid>.tmp`` in its directory, with the mode of the file it will
    replace. When the block ends normally every temporary is renamed onto its
    path; when it raises, every temporary is removed and the paths keep what
    they held. Any other path (a symlink, a FIFO, a device such as /dev/null)
    is opened and written directly, as ``open`` would: renaming onto it would
    replace the link, pipe or device node itself.
    """
    staged: list[tuple[str, str]] = []  # (temporary, final)

    def open_staged(path):
        path = os.fspath(path)
        try:
            mode = os.lstat(path).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            return open(path, "wb")
        directory, name = os.path.split(os.path.abspath(path))
        temporary = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
        fh = open(temporary, "wb")
        staged.append((temporary, path))
        if mode is not None:
            os.chmod(temporary, stat.S_IMODE(mode))
        return fh

    try:
        yield open_staged
        for temporary, final in staged:
            os.replace(temporary, final)
    except BaseException:
        for temporary, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(temporary)
        raise
