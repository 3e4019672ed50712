import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanowords import (Alphabet, CharSeq, char_sequence, charseq_inverse,
                       inverse, kei_act, kei_star, lambda_prime,
                       nanoword_from_pattern)
from nanowords.errors import TauHasFixedPoint, UnknownSymbol
from nanowords.groups import PsiElement
from nanowords.keis import format_charseq

from conftest import random_nanoword


AL = Alphabet(["a", "A", "b", "B"], {"a": "A", "A": "a", "b": "B", "B": "b"})
AL1 = Alphabet(["a", "A"], {"a": "A", "A": "a"})


def _psi(al, *factors):
    out = PsiElement.identity(al)
    for tok in factors:
        bullet = tok.endswith(".")
        out = out * PsiElement.generator(al, tok.rstrip("."), bullet=bullet)
    return out


def _seq(al, *terms):
    return CharSeq(al, tuple((sign, _psi(al, *toks)) for sign, toks in terms))


def test_requires_free_involution():
    al = Alphabet(["a", "b"])
    with pytest.raises(TauHasFixedPoint):
        kei_act("a", CharSeq.generator(PsiElement.identity(al)))
    with pytest.raises(TauHasFixedPoint):
        char_sequence(nanoword_from_pattern(al, "ABAB", {"A": "a", "B": "b"}))


def test_kei_operations_reject_an_unknown_symbol():
    one = CharSeq.generator(PsiElement.identity(AL))
    with pytest.raises(UnknownSymbol):
        kei_star(one, "Z", one)
    with pytest.raises(UnknownSymbol):
        kei_act("Z", one)


def test_letterwise_action():
    one = CharSeq.generator(PsiElement.identity(AL))
    assert kei_act("a", one) == CharSeq.generator(_psi(AL, "a"))
    # tau(a) acts by the inverse translation
    assert kei_act("A", kei_act("a", one)) == one


def test_star_worked_example():
    # underline(ba) *_a underline(1) = 1 . (a. b a) . (a. a)^(-1)
    x = CharSeq.generator(_psi(AL, "b", "a"))
    y = CharSeq.generator(PsiElement.identity(AL))
    got = kei_star(x, "a", y)
    expected = CharSeq(AL, ((1, PsiElement.identity(AL)),
                            (1, _psi(AL, "a.", "b", "a")),
                            (-1, _psi(AL, "a.", "a"))))
    assert got == expected


def _random_f(al, rng, size=3):
    letters = []
    for _ in range(rng.randrange(size + 1)):
        g = PsiElement.identity(al)
        for _ in range(rng.randrange(3)):
            g = g * PsiElement.generator(al, rng.choice(al.letters),
                                         bullet=rng.random() < 0.5)
        letters.append((rng.choice((1, -1)), g))
    return CharSeq(al, letters)


def test_kei_axioms_on_f():
    rng = random.Random(31)
    for _ in range(60):
        a = rng.choice(AL.letters)
        x, y, z = (_random_f(AL, rng) for _ in range(3))
        # (i) ax *_a x = x
        assert kei_star(kei_act(a, x), a, x) == x
        # (ii) a(x *_a y) = ax *_a ay
        assert kei_act(a, kei_star(x, a, y)) == \
            kei_star(kei_act(a, x), a, kei_act(a, y))
        # (iii) (x *_a y) *_a z = (x *_a az) *_a (y *_a z)
        assert kei_star(kei_star(x, a, y), a, z) == \
            kei_star(kei_star(x, a, kei_act(a, z)), a, kei_star(y, a, z))
        # (v) a tau(a) x = x
        assert kei_act(a, kei_act(AL.tau(a), x)) == x
        # (vi) (x *_a y) *_tau(a) ay = x
        assert kei_star(kei_star(x, a, y), AL.tau(a), kei_act(a, y)) == x


def test_charseq_abab():
    w = nanoword_from_pattern(AL, "ABAB", {"A": "a", "B": "b"})
    expected = _seq(AL,
                    (1, ("a",)), (1, ("b.",)), (1, ("b.", "a.", "b", "a")),
                    (-1, ("b.", "a.", "a")), (-1, ("b.", "b", "a")))
    assert char_sequence(w) == expected


def test_charseq_abacbc_and_acac():
    w = nanoword_from_pattern(AL1, "ABACBC", {"A": "a", "B": "A", "C": "a"})
    expected = _seq(AL1,
                    (1, ()), (1, ("a.",)), (-1, ("a", "a.")), (-1, ()),
                    (1, ("a",)), (1, ("a", "a.")), (-1, ("a", "a", "a.")),
                    (1, ("a", "a.")), (1, ("a", "a", "a.", "a.")),
                    (-1, ("a", "a.", "a.")), (-1, ("a", "a.")))
    assert char_sequence(w) == expected

    v = nanoword_from_pattern(AL1, "ACAC", {"A": "a", "C": "a"})
    expected_v = _seq(AL1,
                      (1, ("a",)), (1, ("a.",)),
                      (1, ("a", "a", "a.", "a.")),
                      (-1, ("a", "a.", "a.")), (-1, ("a", "a", "a.")))
    assert char_sequence(v) == expected_v

    # first terms differ: the two nanowords are not homotopic
    assert char_sequence(w).terms[0] != char_sequence(v).terms[0]


@given(st.integers(0, 10 ** 9), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_checksum_is_lambda_prime(seed, n):
    rng = random.Random(seed)
    w = random_nanoword(AL, n, rng)
    cs = char_sequence(w)
    assert cs.term_sum() == lambda_prime(w)


@given(st.integers(0, 10 ** 9), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_charseq_inverse_matches(seed, n):
    rng = random.Random(seed)
    w = random_nanoword(AL, n, rng)
    assert charseq_inverse(char_sequence(w)) == char_sequence(inverse(w))
    cs = char_sequence(w)
    assert charseq_inverse(charseq_inverse(cs)) == cs


def test_charseq_inverse_empty(al_free1):
    empty = CharSeq(al_free1, ())
    assert charseq_inverse(empty) == empty


def test_format_charseq():
    w = nanoword_from_pattern(AL, "ABAB", {"A": "a", "B": "b"})
    assert format_charseq(char_sequence(w)) == \
        "+a, +b., +b.a.ba, -b.aa., -bb.a"


def test_charseq_is_not_faithful():
    """ABCDCDAB with c = tau(b), d = tau(a) has the trivial sequence while
    its linking pairing stays primitive: the sequence forgets information."""
    from nanowords import compress, linking_pairing

    w = nanoword_from_pattern(AL, list("ABCDCDAB"),
                              {"A": "a", "B": "b", "C": "B", "D": "A"})
    cs = char_sequence(w)
    assert cs == CharSeq(AL, ((1, PsiElement.identity(AL)),))
    p = linking_pairing(w)
    assert compress(p).letters == p.letters and len(p.letters) == 4
