import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanowords import (Alphabet, HomotopyData, Move, Nanoword, apply_move,
                       desingularize, enumerate_moves, from_word,
                       nanoword_from_pattern, norm_upper_bound,
                       search_contractible, search_homotopic, successor_keys,
                       verify_certificate)
from nanowords.errors import BudgetInvalid, PreconditionViolated, UnknownSymbol
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
                    assert got == want, (w, data, use_macros, max_length)
                want = [(m, k) for m, k in ref if not (m.sign == "+" and m.kind in PAIR_KINDS)]
                assert successor_keys(w.key(), data, None, None, use_macros, True) == want
    assert seen == {(k, s) for k in PAIR_KINDS + TRIPLE_KINDS for s in "-+"}


def test_enumerate_moves_wraps_successor_keys(al_mixed):
    data = HomotopyData(al_mixed)
    rng = random.Random(5)
    for size in range(5):
        w = random_nanoword(al_mixed, size, rng)
        moves = enumerate_moves(w, data, max_length=len(w.word) + 4, use_macros=True)
        keys = successor_keys(w.key(), data, None, len(w.word) + 4, True)
        assert [(m, v.key()) for m, v in moves] == keys
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


def test_budget_validation(al_id2):
    data = HomotopyData(al_id2)
    w = nanoword_from_pattern(al_id2, "ABAB", {"A": "a", "B": "b"})
    with pytest.raises(BudgetInvalid):
        search_contractible(w, data, 10, 0)
    with pytest.raises(BudgetInvalid):
        search_contractible(w, data, 2, 100)


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
