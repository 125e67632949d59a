"""Shared exception types, and the line and integer readers of the text
parsers."""


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
    """Instance exceeds a hard cap, raised before any exponential work:
    the oracles' edge and vertex caps, ``make_nice``'s ``MAX_WIDTH``, the
    ``MAX_CELLS`` table budget that ``counting._prepare`` checks, or the
    chain's transition-cell budget, 4^k cells for an element with k
    interior vertices against the same ``MAX_CELLS``."""


class DecompositionMismatch(ValueError):
    """The nice decomposition is malformed or does not describe the graph."""


def _ascii_int(token, signed=True):
    """int(token) for ASCII digits after an optional '-' (none unless
    signed); anything else raises ValueError.

    int() alone also reads '+', '_' between digits, surrounding whitespace
    and the decimal digits of every script, so '1_0' would be 10 and the
    Arabic-Indic '٣' 3.
    """
    if token.isascii() and (token.isdigit() or signed and token[:1] == "-"
                            and token[1:].isdigit()):
        return int(token)
    raise ValueError(f"not an ASCII integer: {token!r}")


def _numbered_lines(text):
    """The lines of ``text`` with their 1-based numbers.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, where text mode ends them;
    ``str.splitlines`` also ends one at a form feed, ``\\x85``, U+2028 and
    others, and so cuts a comment line in two. One leading byte-order mark
    is dropped.
    """
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    return enumerate(text.split("\n"), 1)
