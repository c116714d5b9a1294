"""Exception types shared across the package.

The split mirrors the CLI exit codes: CodeError and its subclasses mean the
input itself is bad (exit 1), InfeasibleError means the inputs parse fine but
the requested parameter point does not exist (exit 2), and CapacityError means
a computation was refused before it started because its table, result or
sample grid would be too large (exit 3).
"""

from . import _EXPORTS

__all__ = [*_EXPORTS["errors"]]


class CodeError(ValueError):
    """Invalid code, pmf, or code document."""


class ParseError(CodeError):
    """Malformed code document."""


class DuplicateSymbolError(CodeError):
    """The same symbol token appears twice."""


class DuplicateCodewordError(CodeError):
    """Two symbols share one codeword."""


class PrefixViolationError(CodeError):
    """One codeword is a proper prefix of another."""

    def __init__(self, symbol_a, symbol_b, word_a, word_b):
        self.pair = (symbol_a, symbol_b)
        super().__init__(
            f"codeword {word_a!r} of symbol {symbol_a!r} is a prefix of "
            f"codeword {word_b!r} of symbol {symbol_b!r}"
        )


class UnknownSymbolError(CodeError):
    """Message contains a symbol outside the code's alphabet."""


class DecodeError(CodeError):
    """Bit string is not a concatenation of codewords."""


class InfeasibleError(ValueError):
    """Requested parameter lies outside the feasible set."""


class UnachievableLengthError(InfeasibleError):
    """No message of the requested total length exists."""


class DegenerateSpectrumError(InfeasibleError):
    """Operation undefined when every codeword has the same length."""


class CapacityError(RuntimeError):
    """A table, result or grid would exceed its fixed size cap."""
