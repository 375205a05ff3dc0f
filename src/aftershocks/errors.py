"""Shared exception types."""


class DataError(Exception):
    """Input data violates a contract: bad rows, duplicate timestamps,
    too few events for an estimator, and the like.

    The CLI maps this to exit code 2; genuine usage errors (bad flag
    values) and internal faults use different codes.
    """


def not_utf8(path, stream, exc: UnicodeDecodeError) -> DataError:
    """The error for a text file ``path`` that is not UTF-8, naming the
    byte offset of the first undecodable byte. ``stream`` is the text file
    that raised ``exc``; its decoder raised on the bytes that end where the
    underlying binary buffer now stands."""
    offset = stream.buffer.tell() - len(exc.object) + exc.start
    return DataError(f"{path}: not UTF-8 text ({exc.reason} at byte offset {offset})")
