import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanowords import (Alphabet, PiElement, SubgroupOfPi, covering, gamma,
                       gamma_prime, gamma_tilde, inverse, letter_class, letter_classes,
                       mu, nanoword_from_pattern, opposite, product)
from nanowords.errors import AlphabetMismatch, UnknownLetter
from nanowords.groups import parse_pi
from nanowords.interlacement import interlacement

from conftest import ALPHABETS, alphabets_strategy, nanowords_strategy, random_nanoword


@pytest.fixture
def example_53():
    """w = A1 B1 B2 A2 A1 A3 B1 A3 A2 B2 over {a, b}, tau = id."""
    al = Alphabet(["a", "b"])
    word = ["A1", "B1", "B2", "A2", "A1", "A3", "B1", "A3", "A2", "B2"]
    proj = {"A1": "a", "A2": "a", "A3": "a", "B1": "b", "B2": "b"}
    return nanoword_from_pattern(al, word, proj)


def test_interlacement_basic(al_id2):
    w = nanoword_from_pattern(al_id2, "ABAB", {"A": "a", "B": "b"})
    assert interlacement(w)[("A", "B")] == 1
    v = nanoword_from_pattern(al_id2, "AABB", {"A": "a", "B": "b"})
    assert ("A", "B") not in interlacement(v)


def test_interlacement_abacbc(al_id2):
    w = nanoword_from_pattern(al_id2, "ABACBC", {"A": "a", "B": "b", "C": "a"})
    m = interlacement(w)
    assert m == {("A", "B"): 1, ("B", "A"): -1, ("B", "C"): 1, ("C", "B"): -1}


def test_letter_classes_example(example_53):
    cls = letter_classes(example_53)
    al = example_53.alphabet
    assert cls["A1"] == parse_pi(al, "a")
    assert cls["A3"] == parse_pi(al, "b")
    for x in ("A2", "B1", "B2"):
        assert cls[x] == parse_pi(al, "ab")


def test_letter_class_unlaced_and_abab(al_free1):
    w = nanoword_from_pattern(al_free1, "AABB", {"A": "a", "B": "a"})
    assert all(c.is_identity() for c in letter_classes(w).values())
    v = nanoword_from_pattern(al_free1, "ABAB", {"A": "a", "B": "a"})
    cls = letter_classes(v)
    a = PiElement.generator(al_free1, "a")
    assert cls["A"] == a and cls["B"] == a.inverse()
    with pytest.raises(UnknownLetter):
        letter_class(v, "Z")


def test_covering_example(example_53):
    al = example_53.alphabet
    h = SubgroupOfPi(al, [parse_pi(al, "ab")])
    v = covering(example_53, h)
    assert list(v.word) == ["B1", "B2", "A2", "B1", "A2", "B2"]
    assert gamma(v).format() == "z_a z_b z_a z_b"
    assert mu(v).value("a", "b") == 1


def test_covering_whole_and_trivial(example_53):
    al = example_53.alphabet
    assert covering(example_53, SubgroupOfPi.whole(al)).key() == example_53.key()
    triv = covering(example_53, SubgroupOfPi.trivial(al))
    cls = letter_classes(example_53)
    expected = [x for x in example_53.word if cls[x].is_identity()]
    assert list(triv.word) == expected


def test_covering_needs_a_subgroup_per_orbit(example_53):
    al = example_53.alphabet
    with pytest.raises(AlphabetMismatch, match="'b'"):
        covering(example_53, {"a": SubgroupOfPi.whole(al)})


def test_gamma_worked_examples(al_free2, al_id2):
    w = nanoword_from_pattern(al_free2, "ABAB", {"A": "a", "B": "b"})
    assert gamma(w).format() == "z_a z_b z_a^-1 z_b^-1"
    v = nanoword_from_pattern(al_id2, "AABB", {"A": "a", "B": "b"})
    assert gamma(v).is_identity()


def test_gamma_prime_power_family(al_free2):
    # (A1 B1 ... Am Bm)^2 has gamma' = (z_a z_b)^(2m)
    for m in range(1, 5):
        seq = [f"{x}{i}" for i in range(1, m + 1) for x in "AB"]
        proj = {f"A{i}": "a" for i in range(1, m + 1)}
        proj.update({f"B{i}": "b" for i in range(1, m + 1)})
        w = nanoword_from_pattern(al_free2, seq + seq, proj)
        za = parse_prime(al_free2, "a")
        zb = parse_prime(al_free2, "b")
        assert gamma_prime(w) == (za * zb) ** (2 * m)


def parse_prime(al, letter):
    from nanowords.groups import PiWord
    return PiWord.generator(al.involutions, letter)


def test_gamma_tilde_kills_interlaced_square(al_free1):
    w = nanoword_from_pattern(al_free1, "ABAB", {"A": "a", "B": "a"})
    assert gamma_tilde(w).is_identity()
    assert gamma(w).is_identity()  # z_a z_a z_a^-1 z_a^-1 = 1


def _gamma_tilde_by_products(w):
    """Normal form of gamma~(w) as a product in Pi~: z_|A| at each first
    occurrence, its inverse at each second.  The inverse of a generator puts
    -1 at its orbit, and the stack product adds one central unit per
    cancelled pair z_a z_tau(a), and per collapsed z_c z_c at a fixed point."""
    al = w.alphabet
    central, stack = [0] * len(al.orbits), []
    for pos, x in enumerate(w.word, start=1):
        a = w.proj[x]
        o, fixed = al.orbit_index(a), al.is_fixed(a)
        e = 1 if al.rep(a) == a else -1
        if pos != w.occurrences(x)[0]:
            central[o] -= 1
            e = 1 if fixed else -e
        if stack and stack[-1][0] == o:
            e0 = stack.pop()[1]
            if fixed:
                central[o] += 1
                continue
            if e0 * e < 0:
                central[o] += 1
            e += e0
        if e:
            stack.append((o, e))
    return tuple(central), tuple(stack)


def test_gamma_tilde_is_a_function_of_gamma():
    """gamma~ read off gamma equals gamma~ built as a product in Pi~, and its
    base is gamma; so gamma~ separates no two words that gamma does not.
    Values of gamma~ are not multiplied, and Pi~ offers no product."""
    rng = random.Random(47)
    for al in ALPHABETS:
        for _ in range(40):
            w = random_nanoword(al, rng.randrange(0, 25), rng)
            assert gamma_tilde(w).nf == _gamma_tilde_by_products(w)
            assert gamma_tilde(w).project() == gamma(w)
    with pytest.raises(TypeError):
        gamma_tilde(w) * gamma_tilde(w)


def test_mu_values(al_free2):
    w = nanoword_from_pattern(al_free2, "ABAB", {"A": "a", "B": "b"})
    m = mu(w)
    assert m.value("a", "b") == 1
    assert m.value("b", "a") == -1
    assert m.value("a", "a") == 0


def test_mu_doubles_on_square_covering(example_53):
    al = example_53.alphabet
    v = product(example_53, example_53)
    h = SubgroupOfPi(al, [parse_pi(al, "ab")])
    vh = covering(v, h)
    assert mu(vh).value("a", "b") == 2


@given(nanowords_strategy())
@settings(max_examples=60)
def test_gamma_lands_in_commutator_subgroup(w):
    assert gamma(w).abelianized().is_identity()


@given(nanowords_strategy(max_letters=4), nanowords_strategy(max_letters=4))
@settings(max_examples=40)
def test_gamma_and_mu_multiplicative(w1, w2):
    if w1.alphabet != w2.alphabet:
        return
    p = product(w1, w2)
    assert gamma(p) == gamma(w1) * gamma(w2)
    m, m1, m2 = mu(p), mu(w1), mu(w2)
    for a in w1.alphabet.letters:
        for b in w1.alphabet.letters:
            assert m.value(a, b) == m1.value(a, b) + m2.value(a, b)


@given(nanowords_strategy(max_letters=4))
@settings(max_examples=40)
def test_gamma_opposite_inverse(w):
    assert gamma(opposite(w)) == gamma(w).inverse()
    assert gamma(inverse(w)) == gamma(w).tau_star()


def test_coverings_of_homotopic_nanowords():
    """One homotopy move on the input changes the covering by a homotopy.

    Checked through move-invariant observables of the covering (gamma, the
    self-linking section, the path-sum invariant).
    """
    from nanowords import lambda_invariant, self_link_function
    from nanowords.moves import HomotopyData, enumerate_moves

    rng = random.Random(41)
    for al in ALPHABETS[:2]:
        data = HomotopyData(al)
        families = [SubgroupOfPi.trivial(al), SubgroupOfPi.whole(al)]
        if al.letters == ("a", "b"):
            families.append(SubgroupOfPi(al, [parse_pi(al, "ab")]))
        for _ in range(25):
            w = random_nanoword(al, rng.randrange(1, 4), rng)
            options = enumerate_moves(w, data, max_length=len(w.word) + 4,
                                      use_macros=True)
            if not options:
                continue
            _, v = options[rng.randrange(len(options))]
            for h in families:
                cw, cv = covering(w, h), covering(v, h)
                assert gamma(cw) == gamma(cv)
                assert self_link_function(cw) == self_link_function(cv)
                assert lambda_invariant(cw.canonical()) == \
                    lambda_invariant(cv.canonical())
