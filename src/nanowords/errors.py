"""Exception types shared across the package."""


class NanowordError(Exception):
    """Base class for all package errors."""


class InvalidAlphabet(NanowordError):
    """Alphabet letters repeat, or its involution or orientation is malformed."""


class NotAGaussWord(NanowordError):
    """A nanoword has a letter that does not occur exactly twice."""


class UnknownFamily(NanowordError):
    """A classification family that the package does not know."""


class UnknownSymbol(NanowordError):
    """A word uses a symbol that is not in the alphabet."""


class UnknownLetter(NanowordError):
    """A letter is not part of the nanoword's letter set."""


class AlphabetMismatch(NanowordError):
    """Operands were built over different alphabets."""


class EmptyNanoword(NanowordError):
    """The operation is undefined on the empty nanoword."""


class InvalidSpec(NanowordError):
    """A coloring specification violates its unit/invariance conditions."""


class TauHasFixedPoint(NanowordError):
    """The operation requires a fixed-point-free involution."""


class BudgetInvalid(NanowordError):
    """A search budget is non-positive or below the input length."""


class PreconditionViolated(NanowordError):
    """A move was applied where its side conditions fail; carries the 0-based
    ``index`` of the move in a replayed certificate, when there is one."""

    def __init__(self, message, index=None):
        self.index = index
        super().__init__(message)


class ParseError(NanowordError):
    """Malformed input record; carries a 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
