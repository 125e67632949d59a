"""Shared exception types."""


class ParseError(ValueError):
    """Malformed textual input (.gr, .td, SMILES, chain element files).

    Carries a human-readable location: 1-based line number for line-oriented
    formats, 0-based byte offset for SMILES strings.
    """

    def __init__(self, message, line=None, offset=None):
        loc = ""
        if line is not None:
            loc = f" (line {line})"
        elif offset is not None:
            loc = f" (offset {offset})"
        super().__init__(message + loc)
        self.line = line
        self.offset = offset


class SizeLimitError(ValueError):
    """Instance exceeds a hard cap (oracle size, bag width, chain state count)."""


class DecompositionMismatch(ValueError):
    """The nice decomposition is malformed or does not describe the graph."""
