"""Pragmatic SMILES-subset parser producing hydrogen-suppressed graphs.

Only connectivity matters to the counters, so bond orders (``-``, ``=``,
``#``, ``:``) are erased, aromatic lowercase atoms are read as their plain
element, and every bond becomes one unlabeled edge. Supported atoms are the
organic subset B C N O P S F Cl Br I plus bracket atoms ``[X]`` holding a
bare element symbol. Charges, isotopes, stereo markers, wildcards and
explicit hydrogens are rejected with the offending offset.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError
from .graph import Graph

_ELEMENTS = frozenset(
    """He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co
    Ni Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb
    Te I Xe Cs Ba La Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re
    Os Ir Pt Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U Np Pu Am Cm Bk Cf Es
    Fm Md No Lr Rf Db Sg Bh Hs Mt Ds Rg Cn Nh Fl Mc Lv Ts Og""".split()
)

_ORGANIC_TWO = ("Cl", "Br")
# one-character organic-subset atoms, aromatic ones read as the element
_ORGANIC = {ch: ch.upper() for ch in "BCNOPSFIbcnops"}
_AROMATIC_BRACKET = frozenset(["b", "c", "n", "o", "p", "s", "as", "se"])
_BOND_CHARS = frozenset("-=#:")


@dataclass
class Molecule:
    """A parsed molecule: heavy-atom graph plus provenance."""

    graph: Graph
    source: str
    name: str | None = None


def _bracket_atom(content, offset):
    if content == "H":
        raise ParseError(
            "explicit hydrogens are not representable in a hydrogen-suppressed graph",
            offset=offset,
        )
    if content in _ELEMENTS:
        return content
    if content in _AROMATIC_BRACKET:
        return content.capitalize()
    raise ParseError(
        f"unsupported bracket atom [{content}] (only bare element symbols are accepted)",
        offset=offset,
    )


def parse_smiles(s, name=None):
    """Parse a SMILES string into a :class:`Molecule`.

    Dot-separated fragments that no ring bond joins yield a disconnected
    graph and a logged warning; the counters are multiplicative over
    components, so this is safe. An empty fragment is a ``ParseError``.
    """
    if s is not None:
        s = s.strip()
    if not s:
        raise ParseError("empty SMILES string", offset=0)

    labels = []
    edges = set()
    atoms = 0
    prev = None
    branch_stack = []
    open_rings = {}
    bond_pending_at = None

    # atoms, the most frequent tokens, are recognised first. The chain bond
    # from prev goes to the new atom, always a later one, so unlike a ring
    # bond it needs no self-bond check
    i = 0
    n = len(s)
    while i < n:
        ch = s[i]
        symbol = _ORGANIC.get(ch)
        if symbol is not None:
            if ch in "CB" and s[i:i + 2] in _ORGANIC_TWO:
                symbol = s[i:i + 2]
                i += 1
            i += 1
        elif ch == "[":
            end = s.find("]", i)
            if end < 0:
                raise ParseError("unmatched '['", offset=i)
            symbol = _bracket_atom(s[i + 1 : end], i)
            i = end + 1
        else:
            if ch in _BOND_CHARS:
                bond_pending_at = i
                i += 1
                continue
            if ch == "(":
                if bond_pending_at is not None:
                    raise ParseError("bond symbol before '('", offset=bond_pending_at)
                if prev is None:
                    raise ParseError("branch opened before any atom", offset=i)
                branch_stack.append(prev)
                i += 1
                continue
            if ch == ")":
                if bond_pending_at is not None:
                    raise ParseError("dangling bond before ')'", offset=bond_pending_at)
                if not branch_stack:
                    raise ParseError("unmatched ')'", offset=i)
                if prev is None:
                    raise ParseError("trailing '.' in branch", offset=i - 1)
                prev = branch_stack.pop()
                i += 1
                continue
            if ch == ".":
                if bond_pending_at is not None:
                    raise ParseError("bond symbol before '.'", offset=bond_pending_at)
                if prev is None:
                    raise ParseError("leading '.'" if not labels
                                     else "empty fragment between '.'", offset=i)
                prev = None
                i += 1
                continue
            if ch == "%":
                digits = s[i + 1 : i + 3]
                if len(digits) != 2 or not digits.isdigit():
                    raise ParseError("'%' needs two ring-closure digits", offset=i)
                num = int(digits)
                step = 3
            elif ch.isdigit():
                num = int(ch)
                step = 1
            else:
                raise ParseError(f"unsupported SMILES token {ch!r}", offset=i)
            # a ring-closure number opens a ring bond at prev or closes it
            if prev is None:
                raise ParseError("ring-closure digit before any atom", offset=i)
            ring = open_rings.pop(num, None)
            if ring is None:
                open_rings[num] = (prev, i)
            else:
                u = ring[0]
                if u == prev:
                    raise ParseError(f"bond from atom to itself at atom {u}", offset=i)
                edges.add((u, prev) if u < prev else (prev, u))  # duplicates collapse
            bond_pending_at = None
            i += step
            continue
        labels.append(symbol)
        if prev is not None:
            edges.add((prev, atoms))
        prev = atoms
        atoms += 1
        bond_pending_at = None

    if bond_pending_at is not None:
        raise ParseError("dangling bond at end of string", offset=bond_pending_at)
    if branch_stack:
        raise ParseError("unmatched '('", offset=len(s) - 1)
    if open_rings:
        num, (_, at) = next(iter(sorted(open_rings.items())))
        raise ParseError(f"unmatched ring-closure digit {num}", offset=at)
    if prev is None:
        raise ParseError("trailing '.'", offset=len(s) - 1)

    graph = Graph(atoms, edges, labels)
    if "." in s and not graph.is_connected():
        # imported only here: at module level it adds milliseconds to every
        # `import tdcount`, which needs it for this one warning
        import logging

        logging.getLogger(__name__).warning(
            "SMILES %r has dot-separated fragments; graph is disconnected", s)
    return Molecule(graph, source=s, name=name)


@dataclass
class Reject:
    line: int
    text: str
    reason: str


@dataclass
class Corpus:
    molecules: list
    rejects: list


def load_corpus(path):
    """Load a ``SMILES[\\tNAME]``-per-line corpus file.

    ``#`` comment lines and blank lines are skipped. Unparseable lines land in
    the rejects list instead of aborting the load.
    """
    molecules = []
    rejects = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            smiles, _, molname = line.partition("\t")
            smiles = smiles.strip()
            molname = molname.strip() or None
            try:
                molecules.append(parse_smiles(smiles, name=molname))
            except ParseError as exc:
                rejects.append(Reject(lineno, line, str(exc)))
    return Corpus(molecules, rejects)
