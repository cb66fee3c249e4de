"""One append-only JSONL journal with one crash contract.

The run store (``runs.jsonl``) and the campaign event log
(``events.jsonl``) are both append-only JSONL files that several
processes may write at once.  :class:`Journal` is the single writer and
reader both use, so the contract is stated here once:

* **Appends are serialised.**  An appender holds an exclusive advisory
  ``flock`` on the journal file itself while it writes, flushes and
  fsyncs; it unlocks only after the fsync.
* **A line is committed once its newline is on disk.**  Readers count
  only newline-terminated lines; a final line without one (a writer
  killed mid-append, or an append still in flight on a host without
  ``flock``) is skipped, never parsed.
* **An unterminated tail is repaired by the next append.**  Under the
  lock, an appender first truncates any unterminated tail, so its own
  lines never glue onto a fragment.
* **Interior corruption is an error.**  A terminated line that does not
  parse raises the owning store's error with ``path:line``.

Nothing derived from a journal is kept on disk: a reader parses the
committed lines it needs.

On hosts without ``fcntl`` appends degrade to lockless writes.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Iterator, Sequence, Tuple, Type

try:  # POSIX advisory locking; other hosts degrade to lockless appends.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts
    fcntl = None

from ..errors import ReproError

#: Bytes read per step when scanning backwards for the last newline.
_TAIL_CHUNK = 4096


def _committed_size(handle) -> int:
    """Length of the newline-terminated prefix of a readable file."""
    pos = handle.seek(0, os.SEEK_END)
    while pos > 0:
        step = min(pos, _TAIL_CHUNK)
        pos -= step
        handle.seek(pos)
        cut = handle.read(step).rfind(b"\n")
        if cut >= 0:
            return pos + cut + 1
    return 0


class Journal:
    """An append-only JSONL file under the contract above.

    ``error`` is the exception a corrupt line raises and ``what`` names
    one line in its message (``record``, ``event``).
    """

    def __init__(self, path: str, error: Type[ReproError], what: str) -> None:
        self.path = path
        self.error = error
        self.what = what

    @contextmanager
    def locked(self) -> Iterator[None]:
        """Hold the journal's exclusive lock.  Not re-entrant."""
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.path, "a") as handle:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def write(self, lines: Sequence[str]) -> None:
        """Append ``lines`` (serialised, without newlines) while the
        caller holds :meth:`locked`."""
        with open(self.path, "a+b") as handle:
            size = os.fstat(handle.fileno()).st_size
            committed = _committed_size(handle)
            if committed < size:
                handle.truncate(committed)
            handle.write("".join(line + "\n" for line in lines).encode())
            handle.flush()
            os.fsync(handle.fileno())

    def append(self, docs: Sequence[object]) -> None:
        """Serialise ``docs`` one per line and append them atomically."""
        lines = [json.dumps(doc, sort_keys=True) for doc in docs]
        with self.locked():
            self.write(lines)

    def scan(self, offset: int = 0,
             lineno: int = 0) -> Iterator[Tuple[int, int, object]]:
        """Parse the committed lines from byte ``offset`` on.

        Yields ``(lineno, end, doc)`` per non-blank line, where ``end``
        is the byte offset just past its newline; ``lineno`` counts on
        from the given one.  A missing journal yields nothing.
        """
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return
        with handle:
            handle.seek(offset)
            for raw in handle:
                if not raw.endswith(b"\n"):
                    return  # unterminated tail: not committed
                lineno += 1
                offset += len(raw)
                if raw.isspace():
                    continue
                try:
                    doc = json.loads(raw)
                except ValueError as exc:
                    raise self.error(f"{self.path}:{lineno}: corrupt "
                                     f"{self.what}: {exc}") from exc
                yield lineno, offset, doc

    def docs(self) -> Iterator[object]:
        """Every committed document, oldest first."""
        for _, _, doc in self.scan():
            yield doc
