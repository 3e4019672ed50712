import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanowords import (Alphabet, HomotopyData, Move, Nanoword, apply_move,
                       desingularize, enumerate_moves, from_word,
                       nanoword_from_pattern, norm_upper_bound,
                       search_contractible, search_homotopic, successor_keys,
                       verify_certificate)
from nanowords import moves
from nanowords.errors import (AlphabetMismatch, BudgetInvalid, PreconditionViolated,
                              UnknownSymbol)
from nanowords.fingerprint import Fingerprint
from nanowords.moves import (PAIR_KINDS, TRIPLE_KINDS, Certificate,
                             certificate_from_states, invert_move, parse_move)

from conftest import (ALPHABETS, golden_sections, nanowords_strategy,
                      random_nanoword)


def test_enumerate_m1(al_id2):
    data = HomotopyData(al_id2)
    w = nanoword_from_pattern(al_id2, "AABB", {"A": "a", "B": "b"})
    results = {n.canonical().word
               for m, n in enumerate_moves(w, data, insert_values=())
               if m.kind == "M1" and m.sign == "-"}
    assert ("1", "1") in results
    assert len(results) == 1  # deleting either letter leaves a doubled pair


def test_enumerate_m2(al_free1):
    data = HomotopyData(al_free1)
    w = nanoword_from_pattern(al_free1, "ABAB", {"A": "a", "B": "A"})
    hits = [n for m, n in enumerate_moves(w, data, insert_values=())
            if m.kind == "M2" and m.sign == "-"]
    assert hits == []  # interlaced, not nested
    v = nanoword_from_pattern(al_free1, "ABBA", {"A": "a", "B": "A"})
    hits = [n for m, n in enumerate_moves(v, data, insert_values=())
            if m.kind == "M2" and m.sign == "-"]
    assert [h.word for h in hits] == [()]


def test_enumerate_m3(al_id2):
    # the template with empty spacer words reads ABACBC -> BACACB
    data = HomotopyData(al_id2)
    w = nanoword_from_pattern(al_id2, "ABACBC", {"A": "a", "B": "a", "C": "a"})
    hits = [(m, n) for m, n in enumerate_moves(w, data, insert_values=())
            if m.kind == "M3"]
    m3 = [n for m, n in hits if m.sign == "-"]
    assert [tuple(n.canonical().word) for n in m3] == [("1", "2", "3", "2", "3", "1")]
    # the swapped form admits the inverse move back
    v = m3[0]
    back = [n for m, n in enumerate_moves(v, data, insert_values=())
            if m.kind == "M3" and m.sign == "+"]
    assert any(n.key() == w.canonical().key() for n in back)
    # projections must obey S: different projections block the move
    u = nanoword_from_pattern(al_id2, "ABACBC", {"A": "a", "B": "b", "C": "a"})
    assert not [1 for m, n in enumerate_moves(u, data, insert_values=())
                if m.kind == "M3"]


def test_macros_are_derivable_from_primitive_moves():
    """Each derived macro's effect is reachable by M1/M2/M3 alone."""
    al = Alphabet(["e", "E"], {"e": "E", "E": "e"})
    data = HomotopyData(al)
    cases = [
        ("ABCABC", "BAACCB", {"A": "e", "B": "E", "C": "e"}),
        ("ABCACB", "BAACBC", {"A": "E", "B": "E", "C": "e"}),
        ("ABACCB", "BACABC", {"A": "e", "B": "E", "C": "E"}),
    ]
    goldens = golden_sections("certificates.txt")
    for lhs, rhs, proj in cases:
        w1 = nanoword_from_pattern(al, lhs, proj)
        w2 = nanoword_from_pattern(al, rhs, proj)
        cert = search_homotopic(w1, w2, data, 14, 300000, use_macros=False)
        assert cert is not None and verify_certificate(cert, data), lhs
        assert cert.format() == goldens[f"primitive {lhs} {rhs}"]
    # the interlaced pair xAByABz with |B| = tau(|A|) contracts as well
    w = nanoword_from_pattern(al, "ABAB", {"A": "e", "B": "E"})
    cert = search_contractible(w, data, 12, 300000, use_macros=False)
    assert cert is not None and verify_certificate(cert, data)
    assert cert.format() == goldens["primitive ABAB empty"]


def test_no_length_budget_means_the_default_one():
    """``max_length`` None is len + 8 for a contraction and max(len) + 4 for
    a homotopy search."""
    al = Alphabet(["e", "E"], {"e": "E", "E": "e"})
    data = HomotopyData(al)
    w = nanoword_from_pattern(al, "ABAB", {"A": "e", "B": "E"})
    default = search_contractible(w, data, len(w) + 8, 300000, use_macros=False)
    assert default is not None
    assert search_contractible(w, data, None, 300000, use_macros=False).format() == default.format()
    w1 = nanoword_from_pattern(al, "ABCABC", {"A": "e", "B": "E", "C": "e"})
    w2 = nanoword_from_pattern(al, "BAACCB", {"A": "e", "B": "E", "C": "e"})
    default = search_homotopic(w1, w2, data, max(len(w1), len(w2)) + 4, 300000)
    assert default is not None
    assert search_homotopic(w1, w2, data, None, 300000).format() == default.format()


def test_custom_move_triples(al_id2):
    # S configurable: the third move obeys exactly the listed triples
    w = nanoword_from_pattern(al_id2, "ABACBC", {"A": "a", "B": "b", "C": "a"})
    blocked = HomotopyData(al_id2)  # diagonal: (a, b, a) not allowed
    assert not [1 for m, _ in enumerate_moves(w, blocked, insert_values=())
                if m.kind == "M3"]
    allowed = HomotopyData(al_id2, frozenset({("a", "b", "a")}))
    hits = [m for m, _ in enumerate_moves(w, allowed, insert_values=())
            if m.kind == "M3" and m.sign == "-"]
    assert hits
    # the interlaced-pair macro needs S to meet alpha x b x b
    v = nanoword_from_pattern(al_id2, "ABAB", {"A": "a", "B": "a"})
    gate_off = HomotopyData(al_id2, frozenset({("a", "b", "a")}))
    assert not [1 for m, _ in enumerate_moves(v, gate_off, insert_values=(),
                                              use_macros=True)
                if m.kind == "L32"]
    gate_on = HomotopyData(al_id2, frozenset({("b", "a", "a")}))
    assert [1 for m, _ in enumerate_moves(v, gate_on, insert_values=(),
                                          use_macros=True)
            if m.kind == "L32"]


def _reference_successors(w, data, use_macros):
    """Every move tried at every site through ``apply_move``, in the order of
    ``successor_keys``: the brute-force C(n, 3) scan of triple sites, with
    insertions not gated by length."""
    word, proj = w.word, w.proj
    n = len(word)
    out = []

    def attempt(move):
        try:
            out.append((move, apply_move(w, move, data).canonical().key()))
        except PreconditionViolated:
            pass

    for i in range(n - 1):
        attempt(Move("M1", "-", (i,), (proj[word[i]],)))
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            attempt(Move("M2", "-", (i, j), (proj[word[i]],)))
            if use_macros:
                attempt(Move("L32", "-", (i, j), (proj[word[i]],)))
    for p, q, r in itertools.combinations(range(n - 1), 3):
        for kind in TRIPLE_KINDS if use_macros else ("M3",):
            for sign in "-+":
                attempt(Move(kind, sign, (p, q, r)))
    for i in range(n + 1):
        for v in data.alphabet.letters:
            attempt(Move("M1", "+", (i,), (v,)))
    for i in range(n + 1):
        for j in range(i, n + 1):
            for v in data.alphabet.letters:
                attempt(Move("M2", "+", (i, j), (v,)))
                if use_macros:
                    attempt(Move("L32", "+", (i, j), (v,)))
    return out


# each triple move's left-hand side with empty spacer words
TRIPLE_PATTERNS = ("ABACBC", "ABCBCA", "ABCABC", "ABBCCA",
                   "ABCACB", "ABBCAC", "ABACCB", "ABCBAC")


def test_successor_keys_match_brute_force():
    """successor_keys finds triple sites from letter occurrences; the oracle
    tries every site triple.  Both must give the same ordered list."""
    rng = random.Random(801)
    seen = set()
    for al in ALPHABETS:
        some = frozenset(t for t in itertools.product(al.letters, repeat=3)
                         if rng.random() < 0.3)
        words = [random_nanoword(al, size, rng) for size in range(8)]
        # over a fixed point, constant projections meet every diagonal condition
        words += [nanoword_from_pattern(al, pattern, dict.fromkeys("ABC", al.letters[-1]))
                  for pattern in TRIPLE_PATTERNS]
        for data, w in itertools.product((HomotopyData(al), HomotopyData(al, some)), words):
            n = len(w.word)
            for use_macros in (False, True):
                ref = _reference_successors(w, data, use_macros)
                seen.update((m.kind, m.sign) for m, _ in ref)
                for max_length in (None, n + 2, n + 4):
                    want = [(m, k) for m, k in ref
                            if max_length is None or len(k[0]) <= max_length]
                    got = successor_keys(w.key(), data, None, max_length, use_macros)
                    assert [(Move(*r), k) for r, k in got] == want, (w, data, use_macros,
                                                                     max_length)
                want = [(m, k) for m, k in ref if not (m.sign == "+" and m.kind in PAIR_KINDS)]
                got = successor_keys(w.key(), data, (), None, use_macros)
                assert [(Move(*r), k) for r, k in got] == want
    assert seen == {(k, s) for k in PAIR_KINDS + TRIPLE_KINDS for s in "-+"}


def _docstring_triples():
    """The triple moves as the module docstring states them: kind, the two
    sides with empty spacer words, and for each of A, B, C whether its
    projection enters the S-condition through tau."""
    line = re.compile(r"\* (\w+) +x(\w\w)y(\w\w)z(\w\w)t <-> "
                      r"x(\w\w)y(\w\w)z(\w\w)t +when \((.*)\) in S")
    out = []
    for m in map(line.match, moves.__doc__.splitlines()):
        if m:
            terms = [t.strip() for t in m[8].split(",")]
            assert [t[-2] for t in terms] == ["A", "B", "C"], m[0]
            out.append((m[1], "".join(m.groups()[1:4]), "".join(m.groups()[4:7]),
                        [t.startswith("tau") for t in terms]))
    return out


def test_triple_moves_match_the_module_docstring(al_mixed):
    """Every triple kind, both signs, every projection triple over {a, A, c}:
    the successors by triple moves are the docstring's other side exactly
    when the docstring's condition holds for the diagonal S."""
    data = HomotopyData(al_mixed)
    triples = _docstring_triples()
    assert [kind for kind, *_ in triples] == list(TRIPLE_KINDS)
    for kind, minus, plus, taus in triples:
        for sign, here, there in (("-", minus, plus), ("+", plus, minus)):
            outcomes = set()
            for letters in itertools.product(al_mixed.letters, repeat=3):
                proj = dict(zip("ABC", letters))
                read = {al_mixed.tau(a) if t else a for a, t in zip(letters, taus)}
                want = []
                if len(read) == 1:
                    want = [(Move(kind, sign, (0, 2, 4)),
                             nanoword_from_pattern(al_mixed, there, proj).key())]
                w = nanoword_from_pattern(al_mixed, here, proj)
                got = [(Move(*r), k) for r, k in successor_keys(w.key(), data, (), None, True)
                       if r[0] in TRIPLE_KINDS]
                assert got == want, (kind, sign, letters)
                outcomes.add(bool(want))
            assert outcomes == {True, False}, (kind, sign)


def test_enumerate_moves_wraps_successor_keys(al_mixed):
    data = HomotopyData(al_mixed)
    rng = random.Random(5)
    for size in range(5):
        w = random_nanoword(al_mixed, size, rng)
        moves = enumerate_moves(w, data, max_length=len(w.word) + 4, use_macros=True)
        keys = successor_keys(w.key(), data, None, len(w.word) + 4, True)
        assert [(m, v.key()) for m, v in moves] == [(Move(*r), k) for r, k in keys]
        assert all(v == v.canonical() for _, v in moves)


def test_inverse_then_forward_is_identity(al_mixed):
    data = HomotopyData(al_mixed)
    rng = random.Random(4)
    for _ in range(40):
        w = random_nanoword(al_mixed, rng.randrange(0, 4), rng)
        moves = enumerate_moves(w, data, max_length=len(w.word) + 4,
                                use_macros=True)
        if not moves:
            continue
        move, nxt = moves[rng.randrange(len(moves))]
        undo = invert_move(move)
        back = apply_move(nxt, undo, data).canonical()
        assert back.key() == w.canonical().key(), (move, undo)


def test_move_serialization_roundtrip():
    samples = [Move("M1", "-", (3,), ("a",)),
               Move("M1", "+", (0,), ("b",)),
               Move("M2", "+", (2, 5), ("a",)),
               Move("L32", "-", (1, 4), ("a",)),
               Move("M3", "-", (0, 3, 6)),
               Move("LII", "+", (1, 4, 7))]
    for m in samples:
        m2 = parse_move(m.format())
        assert (m2.kind, m2.sign, m2.positions) == (m.kind, m.sign, m.positions)
        if m.sign == "+" and m.kind in ("M1", "M2", "L32"):
            assert m2.values == m.values


def test_apply_move_validates(al_id2):
    data = HomotopyData(al_id2)
    w = nanoword_from_pattern(al_id2, "ABAB", {"A": "a", "B": "b"})
    with pytest.raises(PreconditionViolated):
        apply_move(w, Move("M1", "-", (0,)), data)
    with pytest.raises(PreconditionViolated):
        apply_move(w, Move("M2", "-", (0, 2), ("a",)), data)
    for move in (Move("M1", "+", (0,), ("q",)), Move("M2", "+", (0, 1), ("q",))):
        with pytest.raises(UnknownSymbol, match="insert value 'q'"):
            apply_move(w, move, data)


def test_hand_built_moves_of_the_wrong_shape_are_typed_errors(al_id2):
    """A wrong kind, sign, position count or insert count is a precondition
    failure in apply_move and in a replayed certificate, not a ValueError."""
    data = HomotopyData(al_id2)
    w = nanoword_from_pattern(al_id2, "AABB", {"A": "a", "B": "b"})
    bad = [Move("M1", "+", (0,)), Move("M2", "+", (0, 1), ("a", "b")),
           Move("M3", "-", (0, 2)), Move("M1", "-", (0, 1)), Move("M9", "-", (0,)),
           Move("M1", "x", (0,), ("a",))]
    for move in bad:
        with pytest.raises(PreconditionViolated, match=re.escape(move.format())):
            apply_move(w, move, data)
        with pytest.raises(PreconditionViolated) as info:
            verify_certificate(Certificate(w, w, (Move("M1", "-", (0,)), move)), data)
        assert info.value.index == 1


def test_verify_certificate_names_the_move_that_does_not_apply(al_id2):
    """Three M1- moves delete AABBCC; the bad move, at each index k, is
    reported with that index, whatever the kind of its failure."""
    data = HomotopyData(al_id2)
    w = nanoword_from_pattern(al_id2, "AABBCC", {"A": "a", "B": "b", "C": "a"})
    empty = Nanoword(al_id2, (), {})
    delete = Move("M1", "-", (0,))
    assert verify_certificate(Certificate(w, empty, (delete,) * 3), data)
    for bad, message in ((Move("M1", "-", (1,)), "no doubled letter here"),
                         (Move("M1", "+", (0,), ("q",)), "insert value 'q'")):
        for k in range(4):
            cert = Certificate(w, empty, (delete,) * k + (bad,) + (delete,) * (3 - k))
            with pytest.raises(PreconditionViolated, match=message) as info:
                verify_certificate(cert, data)
            assert info.value.index == k


def test_budget_validation(al_id2):
    data = HomotopyData(al_id2)
    w = nanoword_from_pattern(al_id2, "ABAB", {"A": "a", "B": "b"})
    with pytest.raises(BudgetInvalid):
        search_contractible(w, data, 10, 0)
    with pytest.raises(BudgetInvalid):
        search_contractible(w, data, 2, 100)


def test_searches_check_inputs_before_expanding(al_id2, monkeypatch):
    """Unknown insert values and bad budgets raise before any state is
    expanded, whether or not the search would need insertions."""
    data = HomotopyData(al_id2)
    aa = nanoword_from_pattern(al_id2, "AA", {"A": "a"})
    abab = nanoword_from_pattern(al_id2, "ABAB", {"A": "a", "B": "b"})

    def expanded(*args):
        raise AssertionError("a state was expanded")

    monkeypatch.setattr(moves, "successor_keys", expanded)
    for w in (aa, abab):
        for search in (lambda **kw: search_contractible(w, data, 10, 100, **kw),
                       lambda **kw: search_homotopic(w, aa, data, 10, 100, **kw),
                       lambda **kw: norm_upper_bound(w, data, 100, **kw)):
            with pytest.raises(UnknownSymbol, match="insert value 'q'"):
                search(insert_values=("a", "q"))
    for search in (lambda: search_contractible(abab, data, 2, 100),
                   lambda: search_homotopic(aa, abab, data, 2, 100),
                   lambda: norm_upper_bound(abab, data, 100, max_length=2),
                   lambda: search_contractible(aa, data, 0, 100),
                   lambda: search_contractible(aa, data, 10, 0),
                   lambda: search_homotopic(aa, aa, data, 10, 0),
                   lambda: norm_upper_bound(aa, data, 0)):
        with pytest.raises(BudgetInvalid):
            search()


def test_searches_and_moves_reject_a_word_over_another_alphabet(al_id2):
    """ABAB[a,b] over two fixed points and over a<->b are different words: a
    search must not join them, nor search one with the other's data."""
    swapped = Alphabet(["a", "b"], {"a": "b", "b": "a"})
    fixed = nanoword_from_pattern(al_id2, "ABAB", {"A": "a", "B": "b"})
    free = nanoword_from_pattern(swapped, "ABAB", {"A": "a", "B": "b"})
    data = HomotopyData(al_id2)
    for call in (lambda: search_homotopic(fixed, free, data, None, 1000),
                 lambda: search_homotopic(free, fixed, data, None, 1000),
                 lambda: search_contractible(free, data, None, 1000),
                 lambda: norm_upper_bound(free, data, 1000),
                 lambda: apply_move(free, Move("L32", "-", (0, 2), ("a",)), data),
                 lambda: apply_move(free, Move("M1", "+", (0,), ("a",)), data)):
        with pytest.raises(AlphabetMismatch):
            call()
    # over its own alphabet's data the word contracts in one L32 move
    cert = search_contractible(free, HomotopyData(swapped), None, 1000)
    assert [m.format() for m in cert.moves] == ["L32- @pos=(1,3)"]


def test_contract_interlaced_square(al_free1):
    # ABAB with |B| = tau(|A|) contracts (needs the derived macro or inserts)
    data = HomotopyData(al_free1)
    w = nanoword_from_pattern(al_free1, "ABAB", {"A": "a", "B": "A"})
    cert = search_contractible(w, data, 10, 5000)
    assert cert is not None
    assert verify_certificate(cert, data)


def test_contract_16_letter_example():
    al = Alphabet(["e", "E", "x", "y"],
                  {"e": "E", "E": "e", "x": "x", "y": "y"})
    proj = {"A": "e", "B": "e", "F": "e", "C": "E", "D": "E", "G": "E",
            "E": "x", "H": "y"}
    w = nanoword_from_pattern(al, list("ABCDEFBGDHFAGCHE"), proj)
    data = HomotopyData(al)
    cert = search_contractible(w, data, 20, 100000)
    assert cert is not None
    assert verify_certificate(cert, data)
    # no plain M1/M2 applies at the start
    first = {m.kind for m, _ in enumerate_moves(w, data, insert_values=(),
                                                use_macros=False)}
    assert "M1" not in first and "M2" not in first


def test_contract_monoliteral_cubes():
    al = Alphabet(["a"])
    data = HomotopyData(al)
    for m in (3, 4):
        w = desingularize(from_word("a" * m, al))
        cert = search_contractible(w, data, len(w.word) + 4, 100000)
        assert cert is not None, f"a^{m} did not contract"
        assert verify_certificate(cert, data)


def test_contract_ababa():
    al = Alphabet(["a", "b"], {"a": "b", "b": "a"})
    data = HomotopyData(al)
    w = desingularize(from_word("ababa", al))
    cert = search_contractible(w, data, len(w.word) + 4, 50000)
    assert cert is not None
    assert verify_certificate(cert, data)


def test_homotopic_aabab_square(al_free1):
    # (aabab)^d is homotopic to the length-4 nanoword A A' A A'; the word
    # aabab over {a, tau(a)} spells "a a tau(a) a tau(a)"
    data = HomotopyData(al_free1)
    w = desingularize(from_word(["a", "a", "A", "a", "A"], al_free1))
    target = nanoword_from_pattern(al_free1, ["X", "Y", "X", "Y"],
                                   {"X": "a", "Y": "a"})
    cert = search_homotopic(w, target, data, 12, 50000)
    assert cert is not None
    assert verify_certificate(cert, data)


def test_homotopic_w5_to_w4(al_free1):
    # ABACBC ~ DACACD for all projections equal: one third move suffices
    # since BACACB is isomorphic to DACACD here
    data = HomotopyData(al_free1)
    w = nanoword_from_pattern(al_free1, "ABACBC",
                              {"A": "a", "B": "a", "C": "a"})
    v = nanoword_from_pattern(al_free1, "DACACD",
                              {"D": "a", "A": "a", "C": "a"})
    cert = search_homotopic(w, v, data, 10, 100000)
    assert cert is not None
    assert verify_certificate(cert, data)


def test_insertion_chain_replays(al_free1):
    # the worked w5 ~ w4 chain through length 10 exercises inverse second
    # moves end to end: ABACBC -> ADEBACBEDC -> DAEBCABECD -> DACACD
    data = HomotopyData(al_free1)
    proj6 = {"A": "a", "B": "a", "C": "a"}
    proj10 = {"A": "a", "B": "a", "C": "a", "D": "a", "E": "A"}
    states = [
        nanoword_from_pattern(al_free1, "ABACBC", proj6),
        nanoword_from_pattern(al_free1, list("ADEBACBEDC"), proj10),
        nanoword_from_pattern(al_free1, list("DAEBCABECD"), proj10),
        nanoword_from_pattern(al_free1, "DACACD",
                              {"D": "a", "A": "a", "C": "a"}),
    ]
    cert = certificate_from_states(states, data)
    assert verify_certificate(cert, data)
    assert any(m.sign == "+" and m.kind in ("M2", "L32") for m in cert.moves)


def test_exhausted_component_ends_the_search(al_free1, monkeypatch):
    """With every insertion allowed, each move's inverse is a move within
    ``max_length``, so a side whose heap empties is a whole component and the
    search stops there: the states it expands depend on ``max_length`` only,
    not on ``max_states``.  With restricted insertions it goes on."""
    al = Alphabet(["c"])
    data = HomotopyData(al)
    w = nanoword_from_pattern(al, "12132434", dict.fromkeys("1234", "c"))
    empty = Nanoword(al, (), {})
    expanded = []
    real = moves.successor_keys

    def counted(key, *args):
        expanded.append(key)
        return real(key, *args)

    monkeypatch.setattr(moves, "successor_keys", counted)
    for max_length, count in ((12, 159), (14, 1805)):
        for max_states in (10 ** 4, 10 ** 6):
            expanded.clear()
            assert search_homotopic(w, empty, data, max_length, max_states) is None
            assert len(expanded) == count, (max_length, max_states)
    # without insertions the empty word's side exhausts after one pop, yet
    # the other side still reaches it
    abba = nanoword_from_pattern(al_free1, "ABBA", {"A": "a", "B": "A"})
    cert = search_homotopic(Nanoword(al_free1, (), {}), abba, HomotopyData(al_free1), 8, 100,
                            insert_values=())
    assert cert.format() == "M2+ @pos=(1,1) insert=(a)\n"


@pytest.mark.parametrize("pattern, count", [
    ("12132434", 159), ("12134324", 455), ("12313424", 455)])
def test_gauss_word_blind_spot(pattern, count, monkeypatch):
    """Over {c} these three 8-letter reduced forms have the empty word's
    fingerprint key, and within 12 letters no path of moves joins them to it:
    the search exhausts a component (the same expansions at either state
    budget) and answers UNKNOWN.  A known limit of the fingerprint, pinned."""
    al = Alphabet(["c"])
    data = HomotopyData(al)
    w = nanoword_from_pattern(al, pattern, dict.fromkeys("1234", "c"))
    empty = Nanoword(al, (), {})
    assert Fingerprint(w).key() == Fingerprint(empty).key()
    expanded = []
    real = moves.successor_keys

    def counted(key, *args):
        expanded.append(key)
        return real(key, *args)

    monkeypatch.setattr(moves, "successor_keys", counted)
    for max_states in (10 ** 4, 10 ** 6):
        expanded.clear()
        assert search_homotopic(w, empty, data, 12, max_states) is None
        assert len(expanded) == count, max_states


def test_search_stops_drawing_successors_at_the_meet(al_free1, monkeypatch):
    """Successors are made lazily, so the expansion that meets the other side
    stops there, short of its state's full successor list, and drawing one
    successor computes no other."""
    data = HomotopyData(al_free1)
    proj = {"A": "a", "B": "a", "C": "a", "D": "a"}
    w = nanoword_from_pattern(al_free1, "ABACBC", proj)
    v = nanoword_from_pattern(al_free1, "DACACD", proj)
    draws = []
    real = moves.successor_keys

    def counted(key, *args):
        draw = [key, args, 0]
        draws.append(draw)
        for item in real(key, *args):
            draw[2] += 1
            yield item

    monkeypatch.setattr(moves, "successor_keys", counted)
    cert = search_homotopic(w, v, data, 10, 100000)
    assert cert is not None and verify_certificate(cert, data)
    key, args, drawn = draws[-1]
    assert drawn < len(list(real(key, *args)))
    # drawing the first of three deletions makes one key, not all three
    made = []
    key_of = moves._key_of
    monkeypatch.setattr(moves, "_key_of", lambda seq, proj: made.append(seq) or key_of(seq, proj))
    first = next(iter(real(nanoword_from_pattern(al_free1, "AABBCC", proj).key(), data)))
    assert first[0] == ("M1", "-", (0,), ("a",)) and len(made) == 1


def test_traced_moves_round_trip(monkeypatch):
    """Every ``Move`` that a search rebuilds from its records formats to a
    line that ``parse_move`` reads back as the same move; ``format`` writes
    values only for insertions.  The searches cover every kind and sign."""
    al = ALPHABETS[3]
    data = HomotopyData(al)
    traced = []
    real = moves._Frontier.trace

    def spy(self, key):
        out = real(self, key)
        traced.extend(out)
        return out

    monkeypatch.setattr(moves._Frontier, "trace", spy)
    proj = dict.fromkeys("ABC", "c")
    for _, minus, plus, _ in _docstring_triples():
        w, v = (nanoword_from_pattern(al, side, proj) for side in (minus, plus))
        assert search_homotopic(w, v, data, 6, 1000, insert_values=()) is not None
        assert search_homotopic(v, w, data, 6, 1000, insert_values=()) is not None
    rng = random.Random(7)
    for _ in range(30):
        w = cur = random_nanoword(al, rng.randrange(2, 4), rng)
        for _ in range(3):
            options = enumerate_moves(cur, data, max_length=len(w.word) + 4, use_macros=True)
            cur = options[rng.randrange(len(options))][1]
        assert search_homotopic(w, cur, data, len(w.word) + 4, 20000) is not None
        search_contractible(w, data, len(w.word) + 4, 2000)
    assert {(m.kind, m.sign) for m in traced} == {(k, s) for k in PAIR_KINDS + TRIPLE_KINDS
                                                  for s in "-+"}
    for m in traced:
        assert type(m) is Move
        inserts = m.sign == "+" and m.kind in PAIR_KINDS
        assert parse_move(m.format()) == (m if inserts else Move(m.kind, m.sign, m.positions))


def test_isomorphic_inputs_give_empty_certificate(al_id2):
    data = HomotopyData(al_id2)
    w = nanoword_from_pattern(al_id2, "ABAB", {"A": "a", "B": "b"})
    v = nanoword_from_pattern(al_id2, "XYXY", {"X": "a", "Y": "b"})
    cert = search_homotopic(w, v, data, 8, 10)
    assert cert is not None and cert.moves == ()


def test_norm_upper_bounds(al_free2):
    data4 = HomotopyData(al_free2)
    w = nanoword_from_pattern(al_free2, "ABAB", {"A": "a", "B": "b"})
    assert norm_upper_bound(w, data4, 3000) == 2
    al = Alphabet(["c", "C"], {"c": "C", "C": "c"})
    ccc = desingularize(from_word("ccc", al))
    assert norm_upper_bound(ccc, HomotopyData(al), 3000) == 3
    aabb = nanoword_from_pattern(al_free2, "AABB", {"A": "a", "B": "b"})
    assert norm_upper_bound(aabb, data4, 3000) == 0


def test_certificate_from_states(al_id2):
    data = HomotopyData(al_id2)
    w = nanoword_from_pattern(al_id2, "ABACBC", {"A": "a", "B": "a", "C": "a"})
    mid = nanoword_from_pattern(al_id2, "BACACB", {"A": "a", "B": "a", "C": "a"})
    end = nanoword_from_pattern(al_id2, "BB", {"B": "a"})
    empty = Nanoword(al_id2, (), {})
    cert = certificate_from_states([w, mid, end, empty], data)
    assert verify_certificate(cert, data)
    assert len(cert.moves) == 3


@given(nanowords_strategy(max_letters=4), st.integers(0, 10 ** 9))
@settings(max_examples=40, deadline=None)
def test_random_replay(w, seed):
    """Random move traces replay to the state they produced."""
    rng = random.Random(seed)
    data = HomotopyData(w.alphabet)
    cur = w.canonical()
    trace = []
    for _ in range(4):
        options = enumerate_moves(cur, data, max_length=len(w.word) + 4,
                                  use_macros=True)
        if not options:
            break
        move, nxt = options[rng.randrange(len(options))]
        trace.append(move)
        cur = nxt
    cert = Certificate(w.canonical(), cur, tuple(trace))
    assert verify_certificate(cert, data)
