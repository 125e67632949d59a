import logging
import subprocess
import sys
from pathlib import Path

import pytest

from tdcount import ParseError, load_corpus, parse_smiles
from conftest import CAFFEINE_SMILES


def test_methane_heavy_atom_graph():
    mol = parse_smiles("C")
    assert mol.graph.n == 1
    assert mol.graph.m == 0
    assert mol.graph.labels == ("C",)


def test_cyclohexane_ring_closure():
    g = parse_smiles("C1CCCCC1").graph
    assert (g.n, g.m) == (6, 6)
    assert all(g.degree(v) == 2 for v in range(6))


def test_caffeine():
    g = parse_smiles(CAFFEINE_SMILES).graph
    assert (g.n, g.m) == (14, 15)
    assert sorted(g.labels) == sorted("CCCCCCCC" "NNNN" "OO")
    # two fused rings: cyclomatic number 2, all of it in one component
    assert g.is_connected()
    assert g.m - g.n + 1 == 2


def test_bond_order_erasure():
    assert parse_smiles("C=C").graph == parse_smiles("CC").graph
    assert parse_smiles("C#N").graph == parse_smiles("CN").graph
    assert parse_smiles("C:C").graph == parse_smiles("C-C").graph


def test_ring_rotation_gives_isomorphic_graph():
    # methylcyclohexane with the ring opened at different atoms
    base = parse_smiles("CC1CCCCC1").graph
    for variant in ["C1CCCCC1C", "C1(C)CCCCC1", "CC%12CCCCC%12"]:
        g = parse_smiles(variant).graph
        assert (g.n, g.m) == (base.n, base.m)
        assert sorted(g.degree(v) for v in range(g.n)) == \
            sorted(base.degree(v) for v in range(base.n))


def test_branches():
    g = parse_smiles("CC(C)(C)C").graph  # neopentane
    assert (g.n, g.m) == (5, 4)
    assert sorted(g.degree(v) for v in range(5)) == [1, 1, 1, 1, 4]


def test_two_letter_and_aromatic_atoms():
    g = parse_smiles("Clc1ccccc1Br").graph
    assert g.labels.count("Cl") == 1
    assert g.labels.count("Br") == 1
    assert g.labels.count("C") == 6


def test_bracket_atoms():
    mol = parse_smiles("[Se]=[Cr]")
    assert mol.graph.labels == ("Se", "Cr")
    assert parse_smiles("c1cc[se]c1").graph.labels == ("C", "C", "C", "Se", "C")
    with pytest.raises(ParseError, match="hydrogen"):
        parse_smiles("[H]C")


def test_unsupported_tokens_carry_offset():
    for text, bad_offset in [("C[N+]C", 1), ("C*C", 1), ("C/C=C", 1)]:
        with pytest.raises(ParseError) as err:
            parse_smiles(text)
        assert err.value.offset == bad_offset


def test_structural_errors():
    with pytest.raises(ParseError, match="ring-closure"):
        parse_smiles("C1CC")
    with pytest.raises(ParseError, match="'\\('"):
        parse_smiles("C(CC")
    with pytest.raises(ParseError, match="'\\)'"):
        parse_smiles("CC)C")
    with pytest.raises(ParseError, match="itself"):
        parse_smiles("C11")
    with pytest.raises(ParseError):
        parse_smiles("")
    with pytest.raises(ParseError, match="dangling bond"):
        parse_smiles("CC=")
    for text, message, bad_offset in [
        ("C=(C)C", "bond symbol before '\\('", 1),
        ("(C)C", "branch opened before any atom", 0),
        ("1CC1", "ring-closure digit before any atom", 0),
        ("C%1C", "'%' needs two ring-closure digits", 1),
        ("C%", "'%' needs two ring-closure digits", 1),
        # ring-closure digits are ASCII only: not an Arabic-Indic three,
        # a superscript two or a '%' number of either
        ("C\u0663CC\u0663", "unsupported SMILES token", 1),
        ("C\u00b2", "unsupported SMILES token", 1),
        ("C%\u00b2\u00b2", "'%' needs two ring-closure digits", 1),
        ("CC%\u0661\u0662CC%12", "'%' needs two ring-closure digits", 2),
        ("C%+1C%+1", "'%' needs two ring-closure digits", 1),
        ("C[Se", "unmatched '\\['", 1),
        ("C(C=)C", "dangling bond before '\\)'", 3),
        ("C=.C", "bond symbol before '.'", 1),
    ]:
        with pytest.raises(ParseError, match=message) as err:
            parse_smiles(text)
        assert err.value.offset == bad_offset
    # an empty fragment fails at its second '.', as leading and trailing
    # dots (of the string or of a branch) fail at theirs
    for text, bad_offset in [("C..C", 2), ("CC...O", 3), (".C", 0),
                             ("C.", 1), ("C(C.)C", 3)]:
        with pytest.raises(ParseError) as err:
            parse_smiles(text)
        assert err.value.offset == bad_offset


def test_dot_fragments_warn_and_disconnect(caplog):
    with caplog.at_level(logging.WARNING, logger="tdcount.smiles"):
        mol = parse_smiles("CC.O")
    assert not mol.graph.is_connected()
    assert mol.graph.n == 3
    assert any("fragments" in rec.message for rec in caplog.records)
    with pytest.raises(ParseError):
        parse_smiles("CC.")
    # a ring bond across the dot joins the fragments: ethane, no warning
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="tdcount.smiles"):
        mol = parse_smiles("C1.C1")
    assert mol.graph.is_connected() and (mol.graph.n, mol.graph.m) == (2, 1)
    assert not caplog.records


def test_import_does_not_load_logging():
    # the dot-fragment warning imports logging when it fires, not before;
    # the child imports the same tdcount as this test, without site
    import tdcount

    src = Path(tdcount.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tdcount; "
            "print('logging' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def test_duplicate_ring_bond_collapses():
    # ring closure re-declares the 1-2 bond
    g = parse_smiles("C1C1").graph
    assert (g.n, g.m) == (2, 1)


def test_load_corpus(tmp_path):
    path = tmp_path / "corpus.smi"
    path.write_text(
        "# comment\n"
        "CCO\tethanol\n"
        "C1CCCCC1\n"
        "C[Zz]C\tgarbage\n"
        "\n"
        "CC\n",
        encoding="utf-8",
    )
    corpus = load_corpus(path)
    assert len(corpus.molecules) == 3
    assert len(corpus.rejects) == 1
    assert corpus.rejects[0].line == 4
    assert corpus.molecules[0].name == "ethanol"
    assert corpus.molecules[1].name is None
    # one leading byte-order mark is not part of line 1; a later one is
    path.write_bytes(b"\xef\xbb\xbfCCO\n\xef\xbb\xbfCC\n")
    corpus = load_corpus(path)
    assert [m.source for m in corpus.molecules] == ["CCO"]
    assert [(r.line, r.text) for r in corpus.rejects] == [(2, "\ufeffCC")]


def test_load_corpus_rejects_lines_that_are_not_utf8(tmp_path):
    # a stray byte costs its own line only; lines break where text mode
    # breaks them, so the later numbers hold
    path = tmp_path / "corpus.smi"
    path.write_bytes(b"CCO\tethanol\n\xffCC\r\nC1CC1\tcp\rC\xe9\n"
                     b"CC\x0cC\n")
    corpus = load_corpus(path)
    assert [(r.line, r.reason) for r in corpus.rejects] == [
        (2, "'utf-8' codec can't decode byte 0xff in position 0: invalid"
            " start byte"),
        (4, "'utf-8' codec can't decode byte 0xe9 in position 1: unexpected"
            " end of data"),
        (5, "unsupported SMILES token '\\x0c' (offset 2)"),
    ]
    assert corpus.rejects[0].text == "\ufffdCC"
    assert [m.name for m in corpus.molecules] == ["ethanol", "cp"]


def test_load_corpus_empty(tmp_path):
    path = tmp_path / "empty.smi"
    path.write_text("", encoding="utf-8")
    corpus = load_corpus(path)
    assert corpus.molecules == []
    assert corpus.rejects == []
