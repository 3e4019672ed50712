import random
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanowords import (GroupRingElement, PiElement, PiTildeElement, PiWord,
                       PsiAbElement, PsiElement, SubgroupOfPi)
from nanowords.errors import AlphabetMismatch
from nanowords.groups import parse_pi, psi_abelianize

from conftest import ALPHABETS, alphabets_strategy


def _random_pi_word(al, rng, length=6):
    out = PiWord.identity(al)
    for _ in range(rng.randrange(length + 1)):
        out = out * PiWord.generator(al, rng.choice(al.letters))
    return out


def _random_pitilde(al, rng, length=6):
    out = PiTildeElement.identity(al)
    for _ in range(rng.randrange(length + 1)):
        g = PiTildeElement.generator(al, rng.choice(al.letters))
        out = out * (g if rng.random() < 0.5 else g.inverse())
    return out


def _random_psi(al, rng, length=6):
    out = PsiElement.identity(al)
    for _ in range(rng.randrange(length + 1)):
        g = PsiElement.generator(al, rng.choice(al.letters),
                                 bullet=rng.random() < 0.5)
        out = out * (g if rng.random() < 0.5 else g.inverse())
    return out


def test_pi_defining_relation():
    al = ALPHABETS[1]  # tau(a) = A
    a = PiElement.generator(al, "a")
    ta = PiElement.generator(al, "A")
    assert (a * ta).is_identity()
    alid = ALPHABETS[0]
    b = PiElement.generator(alid, "b")
    assert (b * b).is_identity()


def test_pi_word_relations():
    al = ALPHABETS[1]
    za = PiWord.generator(al, "a")
    assert (za * za.inverse()).is_identity()
    assert (za * PiWord.generator(al, "A")).is_identity()
    alid = ALPHABETS[0]
    zb = PiWord.generator(alid, "b")
    assert (zb * zb).is_identity()
    # Pi' = Pi over the involutions: every generator is an involution
    zap = PiWord.generator(al.involutions, "a")
    assert (zap * zap).is_identity()
    assert zap == za.to_prime() == PiWord.generator(al, "A").to_prime()


def test_psi_commutation():
    al = ALPHABETS[2]
    a = PsiElement.generator(al, "a")
    ab = PsiElement.generator(al, "a", bullet=True)
    bb = PsiElement.generator(al, "b", bullet=True)
    assert a * ab == ab * a
    assert a * bb != bb * a
    assert (a * PsiElement.generator(al, "A")).is_identity()
    assert (ab * PsiElement.generator(al, "A", bullet=True)).is_identity()


def test_psi_normal_form_against_rewriting():
    """Brute-force rewriting oracle for the normal form.

    Random trajectories of the defining relations, applied as raw word
    rewrites (cancel or insert g g^-1 and the unit pairs a tau(a),
    a. tau(a)., swap a a. of one letter), must preserve the computed normal
    form; and words with distinct normal forms stay distinct under the
    parity and image homomorphisms.
    """
    al = ALPHABETS[3]  # a free orbit and a fixed point
    tokens = [(a, b, s) for a in al.letters for b in (False, True)
              for s in (1, -1)]

    def to_element(word):
        out = PsiElement.identity(al)
        for a, b, s in word:
            g = PsiElement.generator(al, a, bullet=b)
            out = out * (g if s > 0 else g.inverse())
        return out

    def rewrite_once(word, rng):
        word = list(word)
        choices = []
        for i, t in enumerate(word):
            choices.append(("del_pair", i, (t[0], t[1], -t[2])))
            choices.append(("del_pair", i, (al.tau(t[0]), t[1], t[2])))
        for i, t in enumerate(word[:-1]):
            u = word[i + 1]
            if t[0] == u[0] and t[1] != u[1]:
                choices.append(("swap", i, None))
        for i in range(len(word) + 1):
            t = tokens[rng.randrange(len(tokens))]
            choices.append(("ins", i, (t, (t[0], t[1], -t[2]))))
            choices.append(("ins", i, (t, (al.tau(t[0]), t[1], t[2]))))
        kind, i, payload = choices[rng.randrange(len(choices))]
        if kind == "del_pair":
            if i + 1 < len(word) and word[i + 1] == payload:
                del word[i:i + 2]
        elif kind == "swap":
            word[i], word[i + 1] = word[i + 1], word[i]
        else:
            word[i:i] = list(payload)
        return word

    rng = random.Random(5)
    for _ in range(150):
        word = [tokens[rng.randrange(len(tokens))]
                for _ in range(rng.randrange(4))]
        base = to_element(word)
        for _ in range(12):
            word = rewrite_once(word, rng)
            assert to_element(word) == base


def _random_pi(al, rng, length=6):
    out = PiElement.identity(al)
    for _ in range(rng.randrange(length + 1)):
        g = PiElement.generator(al, rng.choice(al.letters))
        out = out * (g if rng.random() < 0.5 else g.inverse())
    return out


@given(alphabets_strategy(), st.integers(0, 10 ** 9))
@settings(max_examples=80)
def test_group_axioms(al, seed):
    rng = random.Random(seed)
    for maker, identity in (
            (_random_pi, PiElement.identity(al)),
            (_random_pi_word, PiWord.identity(al)),
            (lambda a, r: _random_pi_word(a.involutions, r),
             PiWord.identity(al.involutions)),
            (_random_pitilde, PiTildeElement.identity(al)),
            (_random_psi, PsiElement.identity(al)),
            (lambda a, r: psi_abelianize(_random_psi(a, r)), PsiAbElement.identity(al))):
        x, y, z = maker(al, rng), maker(al, rng), maker(al, rng)
        assert identity.is_identity()
        assert (x * y) * z == x * (y * z)
        assert hash((x * y) * z) == hash(x * (y * z))
        assert (x * x.inverse()) == identity
        assert (x.inverse() * x) == identity
        assert (x * x.inverse()).is_identity()
        assert hash(x * identity) == hash(x)
        for n in range(-3, 4):
            product = identity
            for _ in range(abs(n)):
                product = product * (x if n >= 0 else x.inverse())
            assert x ** n == product
            assert hash(x ** n) == hash(product)


@given(alphabets_strategy(), st.integers(0, 10 ** 9))
@settings(max_examples=80)
def test_pitilde_associativity_and_projection(al, seed):
    rng = random.Random(seed)
    x, y, z = (_random_pitilde(al, rng) for _ in range(3))
    assert (x * y) * z == x * (y * z)
    assert (x * x.inverse()).is_identity()
    assert (x * y).project() == x.project() * y.project()


def test_pitilde_central_generator():
    al = ALPHABETS[1]
    za = PiTildeElement.generator(al, "a")
    zta = PiTildeElement.generator(al, "A")
    c = za * zta
    assert c.project().is_identity()
    assert c.nf[0] == (1,)
    # central: commutes with everything
    rng = random.Random(3)
    for _ in range(20):
        x = _random_pitilde(al, rng)
        assert c * x == x * c
    # fixed point: z^2 is the central generator
    alm = ALPHABETS[3]
    zc = PiTildeElement.generator(alm, "c")
    sq = zc * zc
    assert sq.project().is_identity()
    assert sq.nf[0][alm.orbit_index("c")] == 1


@given(alphabets_strategy(), st.integers(0, 10 ** 9))
@settings(max_examples=60)
def test_natural_maps_commute(al, seed):
    rng = random.Random(seed)
    x = _random_pitilde(al, rng)
    y = _random_pitilde(al, rng)
    # Pi~ -> Pi -> pi and Pi -> Pi' are homomorphisms
    assert (x * y).project().abelianized() == \
        x.project().abelianized() * y.project().abelianized()
    assert (x.project() * y.project()).to_prime() == \
        x.project().to_prime() * y.project().to_prime()
    # Psi -> Psi^ab is a homomorphism sending each generator to its image
    u, v = _random_psi(al, rng), _random_psi(al, rng)
    assert psi_abelianize(u * v) == psi_abelianize(u) * psi_abelianize(v)
    for a in al.letters:
        for bullet in (False, True):
            assert psi_abelianize(PsiElement.generator(al, a, bullet)) == \
                PsiAbElement.generator(al, a, bullet)


@given(alphabets_strategy(), st.integers(0, 10 ** 9))
@settings(max_examples=60)
def test_ring_axioms_and_aug(al, seed):
    rng = random.Random(seed)

    def random_element():
        out = GroupRingElement.zero(al)
        for _ in range(rng.randrange(4)):
            out = out + GroupRingElement.of(_random_psi(al, rng, 4),
                                            rng.choice([-2, -1, 1, 2]))
        return out

    x, y, z = random_element(), random_element(), random_element()
    assert (x + y) * z == x * z + y * z
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert (x * y).aug() == x.aug() * y.aug()


# each family of the group ring: its class, a random element, and the
# normal form the validating constructor takes for a product
RING_FAMILIES = [
    (PiElement, lambda al, rng: PiElement(al, [rng.randrange(-3, 4) for _ in al.orbits]),
     lambda g, h: map(add, g, h)),
    (PsiAbElement,
     lambda al, rng: PsiAbElement(al, [rng.randrange(-3, 4) for _ in range(2 * len(al.orbits))]),
     lambda g, h: map(add, g, h)),
    (PiWord, _random_pi_word, add),
    (PsiElement, _random_psi, add),
]


def _combination(pairs) -> dict:
    """``{element: coefficient}`` summed term by term, zeros dropped."""
    out: dict = {}
    for g, c in pairs:
        out[g] = out.get(g, 0) + c
    return {g: c for g, c in out.items() if c}


@given(alphabets_strategy(), st.integers(0, 10 ** 9))
@settings(max_examples=60)
def test_ring_arithmetic_matches_the_element_constructors(al, seed):
    """Sums and products on normal forms equal the combinations built term by
    term from elements that the validating constructors make of the added or
    concatenated normal forms."""
    rng = random.Random(seed)
    for cls, element, glue in RING_FAMILIES:
        xs, ys = ([(element(al, rng), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randrange(5))]
                  for _ in range(2))
        x, y = GroupRingElement.zero(al), GroupRingElement.zero(al)
        for g, c in xs:
            x = x + GroupRingElement.of(g, c)
        for g, c in ys:
            y = y + GroupRingElement.of(g, c)
        assert dict(x.items()) == _combination(xs)
        assert dict((x + y).items()) == _combination(xs + ys)
        assert dict((x * y).items()) == _combination(
            [(cls(al, glue(g.nf, h.nf)), c * d) for g, c in xs for h, d in ys])


def test_zero_adds_and_multiplies_in_every_family():
    rng = random.Random(3)
    for al in ALPHABETS:
        zero = GroupRingElement.zero(al)
        for cls, element, _ in RING_FAMILIES:
            x = GroupRingElement.of(element(al, rng), 2) + \
                GroupRingElement.of(cls.generator(al, "a"))
            assert zero + x == x == x + zero
            assert zero - x == -x and x - x == zero
            assert zero * x == zero == x * zero and (zero * zero).is_zero()
            assert (zero + x) * x == x * x and dict((x * x).items())
            assert all(type(g) is cls for g, _ in (zero + x).items())


def test_ring_operands_from_different_alphabets_or_families():
    al, other = ALPHABETS[2], ALPHABETS[3]
    for cls, _, _ in RING_FAMILIES:
        x = GroupRingElement.of(cls.generator(al, "a"))
        foreign = [GroupRingElement.of(cls.generator(other, "a")), GroupRingElement.zero(other)]
        foreign += [GroupRingElement.of(c.generator(al, "a"))
                    for c, _, _ in RING_FAMILIES if c is not cls]
        for y in foreign:
            for op in (lambda: x + y, lambda: y + x, lambda: x * y, lambda: y * x, lambda: x - y):
                with pytest.raises(AlphabetMismatch):
                    op()
        with pytest.raises(AlphabetMismatch):  # a group element is not a ring element
            x * cls.generator(al, "a")


def test_alphabet_mismatch():
    x = PiElement.generator(ALPHABETS[0], "a")
    y = PiElement.generator(ALPHABETS[1], "a")
    with pytest.raises(AlphabetMismatch):
        x * y


def test_exponent_vectors_of_the_wrong_length():
    al = ALPHABETS[2]  # two free orbits
    b, bb = PiElement.generator(al, "b"), PsiAbElement.generator(al, "b")
    for short in ([1], [1, 0, 0]):
        with pytest.raises(AlphabetMismatch):
            PiElement(al, short)
    for short in ([1, 0], [1, 0, 0]):
        with pytest.raises(AlphabetMismatch):
            PsiAbElement(al, short)
    # a pair per orbit is no longer a flat vector of the right length
    with pytest.raises(AlphabetMismatch):
        PsiAbElement(al, [(1, 0), (0, 0)])
    assert (PiElement(al, [1, 0]) * b).format() == "a b"
    assert (PsiAbElement(al, [1, 0, 0, 0]) * bb).format() == "a b"
    with pytest.raises(AlphabetMismatch):  # same alphabet, different groups
        b * bb


def test_subgroup_membership_klein():
    al = ALPHABETS[0]  # pi = (Z/2)^2
    ab = parse_pi(al, "ab")
    h = SubgroupOfPi(al, [ab])
    assert h.contains(ab)
    assert not h.contains(parse_pi(al, "a"))
    assert h.contains(PiElement.identity(al))


def test_subgroup_membership_cyclic_divisibility():
    al = ALPHABETS[1]  # pi = Z on generator a
    rng = random.Random(1)
    for _ in range(50):
        r = rng.randrange(1, 7)
        m = rng.randrange(-12, 13)
        h = SubgroupOfPi(al, [PiElement.generator(al, "a") ** r])
        assert h.contains(PiElement.generator(al, "a") ** m) == (m % r == 0)


def test_subgroup_trivial_and_whole():
    for al in ALPHABETS:
        triv = SubgroupOfPi.trivial(al)
        whole = SubgroupOfPi.whole(al)
        assert triv.contains(PiElement.identity(al))
        for a in al.letters:
            g = PiElement.generator(al, a)
            assert whole.contains(g)
            assert not triv.contains(g)


def test_printing():
    al = ALPHABETS[2]
    x = PiElement.generator(al, "a") ** 2 * PiElement.generator(al, "b")
    assert x.format() == "a^2 b"
    w = PiWord.generator(al, "a") * PiWord.generator(al, "B")
    assert w.format() == "z_a z_b^-1"
    p = (PsiElement.generator(al, "a") ** 1) * \
        PsiElement.generator(al, "a") * \
        PsiElement.generator(al, "a", bullet=True).inverse() * \
        PsiElement.generator(al, "b", bullet=True)
    assert p.format() == "a^2 a.^-1 b."
