"""Exception types shared across the library."""


class LexlabError(Exception):
    """Base class for every error raised by this package."""


class ParseError(LexlabError):
    """Bad input text; carries the offending position when known."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class InvalidArgument(LexlabError, ValueError):
    """An argument outside the range its function accepts, named with its value."""


class MacaulayViolation(LexlabError):
    """Numeric data that cannot be the Hilbert function of any homogeneous ideal."""


class UnluckyCoordinates(LexlabError):
    """Random coordinate trials disagreed, or agreed on an initial ideal that is
    not generic; retry with another seed."""

    def __init__(self, message: str, seeds: tuple = ()):
        self.seeds = tuple(seeds)
        if seeds:
            message = f"{message} (trial seeds: {', '.join(map(str, seeds))})"
        super().__init__(message)


class InternalInconsistency(LexlabError):
    """Two supposedly equivalent computations disagreed; this is a bug, not bad input."""
