"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the operation's domain (bad vertex, empty graph, ...)."""


def require(mapping, key, context: str):
    """``mapping[key]``, or a DomainError saying that ``context`` needs ``key``."""
    if key not in mapping:
        raise DomainError(f"{context} needs {key!r}")
    return mapping[key]


def parse_int(text: str, context: str) -> int:
    """``int(text)``, or a DomainError saying that ``context`` needs an integer."""
    try:
        return int(text)
    except ValueError:
        raise DomainError(f"{context} needs an integer, got {text!r}") from None


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
