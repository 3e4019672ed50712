import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanowords import (Alphabet, EtaleWord, Nanoword, char_sequence, desingularize,
                       from_word, gamma, gamma_tilde, inverse, lambda_invariant,
                       letter_classes, nanoword_from_pattern, opposite, product)
from nanowords.classify import classify
from nanowords.errors import (AlphabetMismatch, InvalidAlphabet, NotAGaussWord, UnknownFamily,
                              UnknownLetter, UnknownSymbol)
from nanowords.lambdainv import w_star

from conftest import ALPHABETS, nanowords_strategy, random_nanoword


def test_alphabet_orbits_and_orientation():
    al = Alphabet(["a", "A", "c"], {"a": "A", "A": "a", "c": "c"})
    assert al.orbits == (("a", "A"), ("c",))
    assert al.orientation == ("a", "c")
    assert al.rep("A") == "a" and al.rep("c") == "c"
    assert not al.is_fixed("a") and al.is_fixed("c")


def test_alphabet_rejects_non_involution():
    with pytest.raises(InvalidAlphabet):
        Alphabet(["a", "b", "c"], {"a": "b", "b": "c", "c": "a"})


def test_alphabet_rejects_bad_orientation():
    with pytest.raises(InvalidAlphabet):
        Alphabet(["a", "A"], {"a": "A", "A": "a"}, orientation=["a", "A"])


def test_input_errors_are_typed(al_id2, al_free1):
    with pytest.raises(InvalidAlphabet, match="distinct"):
        Alphabet(["a", "a"])
    with pytest.raises(InvalidAlphabet, match="undefined"):
        Alphabet(["a", "b"], {"a": "a"})
    with pytest.raises(NotAGaussWord):
        Nanoword(al_id2, "ABA", {"A": "a", "B": "b"})
    w = nanoword_from_pattern(al_id2, "AA", {"A": "a"})
    with pytest.raises(AlphabetMismatch):
        product(w, nanoword_from_pattern(al_free1, "AA", {"A": "a"}))
    with pytest.raises(UnknownFamily):
        classify("nanowords5", al_id2)


def test_alphabet_lookups_reject_an_unknown_symbol(al_mixed):
    for lookup in (al_mixed.tau, al_mixed.rep, al_mixed.orbit_index, al_mixed.is_fixed):
        with pytest.raises(UnknownSymbol, match="'Z' is not an alphabet letter"):
            lookup("Z")
    assert (al_mixed.rep("A"), al_mixed.orbit_index("c"), al_mixed.is_fixed("c")) == ("a", 1, True)


def test_from_word_identity_projection(al_id2):
    w = from_word("aba", al_id2)
    assert w.word == ("a", "b", "a")
    assert w.proj == {"a": "a", "b": "b"}
    assert from_word("", al_id2).word == ()
    with pytest.raises(UnknownSymbol):
        from_word("axa", al_id2)


def test_from_word_aabab(al_free1):
    w = from_word("aabab", Alphabet(["a", "b"]))
    assert w.word == ("a", "a", "b", "a", "b")


def test_desingularize_worked_example(al_id2):
    al = Alphabet(["a", "b", "c"])
    w = EtaleWord(al, "AABABC", {"A": "a", "B": "b", "C": "c"})
    d = desingularize(w)
    expected = [("A", 1, 2), ("A", 1, 3), ("A", 1, 2), ("A", 2, 3),
                ("B", 1, 2), ("A", 1, 3), ("A", 2, 3), ("B", 1, 2)]
    assert list(d.word) == expected
    assert set(d.letters) == {("A", 1, 2), ("A", 1, 3), ("A", 2, 3), ("B", 1, 2)}
    assert len(d.word) == sum(m * (m - 1) for m in (3, 2, 1))


def test_desingularize_empty(al_id2):
    assert desingularize(from_word("", al_id2)).word == ()


@given(nanowords_strategy())
def test_desingularize_idempotent_on_nanowords(w):
    assert desingularize(w).canonical().key() == w.canonical().key()


def test_canonical_relabels_by_first_occurrence(al_id2):
    w = nanoword_from_pattern(al_id2, ["X", "Y", "X", "Y"], {"X": "a", "Y": "b"})
    c = w.canonical()
    assert c.word == ("1", "2", "1", "2")
    assert c.proj == {"1": "a", "2": "b"}
    v = nanoword_from_pattern(al_id2, ["B", "A", "B", "A"], {"A": "a", "B": "b"})
    assert v.canonical().word == ("1", "2", "1", "2")
    assert v.canonical().proj == {"1": "b", "2": "a"}


@given(nanowords_strategy(), st.integers(0, 10 ** 9))
def test_canonical_collapses_relabelings(w, seed):
    rng = random.Random(seed)
    names = list(w.letters)
    shuffled = names[:]
    rng.shuffle(shuffled)
    rename = dict(zip(names, shuffled))
    v = Nanoword(w.alphabet, [rename[x] for x in w.word],
                 {rename[x]: w.proj[x] for x in names})
    assert v.canonical().key() == w.canonical().key()
    assert v.isomorphic(w)


def test_invariants_read_positions_not_letter_names():
    """Renamed to non-string names whose order is not the first-occurrence
    order, a word keeps every invariant read off the occurrence table."""
    rng = random.Random(16)
    for al in ALPHABETS:
        for n in range(7):
            c = random_nanoword(al, n, rng)  # a canonical word
            names = [("x", k) for k in range(n)]
            rng.shuffle(names)
            rename = dict(zip(c.letters, names))
            v = Nanoword(al, [rename[x] for x in c.word],
                         {rename[x]: c.proj[x] for x in c.letters})
            for x in c.letters:
                assert v.occurrences(rename[x]) == c.occurrences(x) == tuple(
                    pos for pos, y in enumerate(c.word, start=1) if y == x)
            assert gamma(v) == gamma(c) and gamma_tilde(v) == gamma_tilde(c)
            assert lambda_invariant(v) == lambda_invariant(c)
            assert w_star(v) == w_star(c)
            classes = letter_classes(v)
            assert {x: classes[rename[x]] for x in c.letters} == letter_classes(c)
            if al.is_fixed_point_free:
                assert char_sequence(v) == char_sequence(c)
            with pytest.raises(UnknownLetter):
                v.occurrences("zz")


def test_product_unit(al_id2):
    w = random_nanoword(al_id2, 3, random.Random(7))
    empty = Nanoword(al_id2, (), {})
    assert product(empty, w).key() == w.canonical().key()
    assert product(w, empty).key() == w.canonical().key()


def test_opposite_inverse_worked_example():
    al = Alphabet(["a", "b"], {"a": "b", "b": "a"})
    w = nanoword_from_pattern(al, ["A1", "B1", "A1", "A2", "A2", "B1"],
                              {"A1": "a", "A2": "a", "B1": "b"})
    o = opposite(w)
    assert list(o.word) == ["B1", "A2", "A2", "A1", "B1", "A1"]
    i = inverse(w)
    assert list(i.word) == list(w.word)
    assert i.proj == {"A1": "b", "A2": "b", "B1": "a"}


@given(nanowords_strategy(), nanowords_strategy())
@settings(max_examples=60)
def test_desingularization_is_multiplicative(w1, w2):
    if w1.alphabet != w2.alphabet:
        return
    lhs = desingularize(product(w1, w2))
    rhs = product(desingularize(w1), desingularize(w2))
    assert lhs.canonical().key() == rhs.canonical().key()


@given(nanowords_strategy())
def test_desingularize_commutes_with_inverse(w):
    assert desingularize(inverse(w)).canonical().key() == \
        inverse(desingularize(w)).canonical().key()


def test_desingularize_commutes_with_opposite_on_words():
    al = Alphabet(["a", "b"])
    for text in ("aabab", "ababa", "abbab", "aaa", "abab"):
        w = from_word(text, al)
        lhs = desingularize(opposite(w)).canonical()
        rhs = opposite(desingularize(w)).canonical()
        assert lhs.key() == rhs.key()
