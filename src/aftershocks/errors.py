"""Shared exception types, and the one way an input file is opened."""

from contextlib import contextmanager


class DataError(Exception):
    """Input data violates a contract: bad rows, duplicate timestamps,
    too few events for an estimator, and the like.

    The CLI maps this to exit code 2; genuine usage errors (bad flag
    values) and internal faults use different codes.
    """


@contextmanager
def open_text(path):
    """``path`` as UTF-8 text with ``newline=""``, closed when the block
    ends; a byte order mark at its start is dropped. A failure to open it
    raises :class:`DataError` with the reason, and undecodable bytes read
    anywhere in the block one with their byte offset in the file."""
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            # the decoder raised on bytes that end where the binary buffer now stands
            offset = fh.buffer.tell() - len(exc.object) + exc.start
            raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte offset {offset})") from None
