"""Exception types shared across the package."""

import reprlib


class DomainError(ValueError):
    """An argument is outside the operation's domain (bad vertex, empty graph, ...)."""


def require(mapping, key, context: str):
    """``mapping[key]``, or a DomainError saying that ``context`` needs ``key``."""
    if key not in mapping:
        raise DomainError(f"{context} needs {key!r}")
    return mapping[key]


def refuse_unknown(keys, known, message: str):
    """A DomainError ``message`` and the sorted ``keys`` not in ``known``, ``quoted`` if long."""
    unknown = ", ".join(sorted(map(str, set(keys) - set(known))))
    if unknown:
        raise DomainError(f"{message} {unknown if len(unknown) <= 40 else quoted(unknown)}")


def quoted(value) -> str:
    """``value`` quoted for a message: a string cut to its first 40 characters
    and an ellipsis when it is longer, any other value shortened by
    ``reprlib``, which also cuts deep nesting."""
    if not isinstance(value, str):
        return reprlib.repr(value)
    return repr(value) if len(value) <= 40 else repr(value[:40]) + "..."


def parse_int(text: str, context: str) -> int:
    """``int(text)``, or a DomainError saying that ``context`` needs an integer."""
    try:
        return int(text)
    except ValueError:
        raise DomainError(f"{context} needs an integer, got {quoted(text)}") from None


class PreconditionError(ValueError):
    """The input graph does not satisfy the hypotheses the routine requires."""


class ResourceLimitError(RuntimeError):
    """An exact computation was refused or abandoned because it exceeds a size cap.

    May carry partial coverage statistics in ``stats``.
    """

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = dict(stats) if stats else {}


class IllegalMoveError(ValueError):
    """A move submission broke the rules; ``element`` identifies the offender."""

    def __init__(self, message, element=None):
        super().__init__(message)
        self.element = element
