"""Exception hierarchy shared across the package, its one checked file read
and its one checked file write.

The CLI maps these onto exit codes: configuration errors -> 1,
data/format errors -> 2, numerical failures -> 3.
"""

from pathlib import Path


class PbrsegError(Exception):
    """Base class for all package errors."""


class ConfigError(PbrsegError):
    """Invalid configuration or a violated shape/channel contract."""


class DataError(PbrsegError):
    """Bad input data: unreadable files, malformed payloads, invalid values."""


class MagicError(DataError):
    """Unrecognized file format (magic bytes mismatch)."""


class TruncationError(DataError):
    """Payload shorter (or longer) than the header promises."""


class SchemaError(DataError):
    """Structurally readable but semantically invalid content."""


class UndefinedMetricError(DataError):
    """A metric precondition failed (e.g. Hausdorff on an empty mask)."""


class NumericalError(PbrsegError):
    """Non-finite values encountered during optimization."""


def read_input(path, parse):
    """``parse`` of a file's bytes. A file that cannot be read, or whose bytes
    ``parse`` refuses with a DataError or a ValueError, is a DataError naming it."""
    try:
        with open(path, "rb") as f:
            return parse(f.read())
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror}") from None
    except (DataError, ValueError) as e:  # a ValueError: text or JSON that does not parse
        kind = type(e) if isinstance(e, DataError) else DataError
        raise kind(f"{path}: {e}") from None


def write_output(path, data) -> None:
    """Write ``data`` (bytes, or text stored as UTF-8) to a file, creating its
    directory. A file or directory the OS refuses is a DataError naming it."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as f:
            f.write(data)
    except OSError as e:
        raise DataError(f"cannot write {e.filename or path}: {e.strerror}") from None
