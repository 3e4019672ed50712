import random

import pytest

import nanowords.classify as classify_module
from nanowords import (Alphabet, Nanoword, compute_fingerprint, fingerprint, interlacement,
                       mu, nanoword_from_pattern)
from nanowords.classify import FAMILIES, Item, classify
from nanowords.fingerprint import (FIELD_ORDER, Fingerprint, default_betas,
                                  default_coloring_specs, format_fingerprint)

from conftest import ALPHABETS, random_nanoword
from oracles import classify_by_full_keys

interlacement_gamma = interlacement.gamma


def test_default_betas_are_orbit_unions(al_mixed):
    betas = default_betas(al_mixed)
    assert frozenset() in betas and frozenset(al_mixed.letters) in betas
    for beta in betas:
        assert all(al_mixed.tau(a) in beta for a in beta)
    assert len(betas) == 4


def test_fingerprint_separates_and_names_field(al_id2):
    w = nanoword_from_pattern(al_id2, "ABAB", {"A": "a", "B": "b"})
    v = nanoword_from_pattern(al_id2, "AABB", {"A": "a", "B": "b"})
    f1, f2 = compute_fingerprint(w), compute_fingerprint(v)
    assert f1.first_difference(f2) == "gamma"
    assert f1 != f2
    assert f1 == compute_fingerprint(w)


def test_pairing_is_compared_up_to_isomorphism(al_id2):
    # every field before the pairing agrees; the exact pairing key separates
    w = Nanoword(al_id2, "1 2 3 1 3 4 2 4".split(), {"1": "b", "2": "a", "3": "b", "4": "a"})
    v = Nanoword(al_id2, "1 2 3 4 4 5 1 3 2 5".split(),
                 {"1": "b", "2": "b", "3": "a", "4": "b", "5": "a"})
    assert compute_fingerprint(w).first_difference(compute_fingerprint(v)) == "pairing"


def _shared_key_family(al):
    # one nanoword under two predicted labels
    w = nanoword_from_pattern(al, "ABAB", {"A": "a", "B": "b"})
    return [Item("one", w, ("x",)), Item("two", w, ("y",))]


def _split_class_family(al):
    # AABB[a,a] is contractible and ABAB[a,b] is not: gamma tells them apart
    return [Item("AABB[a,a]", nanoword_from_pattern(al, "AABB", {"A": "a", "B": "a"}), ("x",)),
            Item("ABAB[a,b]", nanoword_from_pattern(al, "ABAB", {"A": "a", "B": "b"}), ("x",))]


def test_classify_names_a_fingerprint_shared_across_predicted_classes(al_id2, monkeypatch):
    # the two classes share a key, and no certificate can tell them apart,
    # so each is UNKNOWN and names the other
    monkeypatch.setitem(FAMILIES, "pair", _shared_key_family)
    rows = classify("pair", al_id2).rows
    assert {(r.members[0], r.status, r.detail) for r in rows} == {
        ("one", "UNKNOWN", "fingerprint shared with two"),
        ("two", "UNKNOWN", "fingerprint shared with one")}


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_classify_stops_a_class_at_its_first_failed_search(al_id2, monkeypatch):
    calls = _count_calls(monkeypatch, classify_module, "search_contractible")
    rows = classify("nanowords4", al_id2, max_states=1).rows
    zero = next(r for r in rows if r.label == classify_module.ZERO)
    assert (len(zero.members), zero.status, zero.detail) == (
        10, "UNKNOWN", "search budget exhausted")
    assert len(calls) == 1


def test_classify_reports_a_predicted_class_that_fingerprints_split(al_id2, monkeypatch):
    monkeypatch.setitem(FAMILIES, "split", _split_class_family)
    searches = _count_calls(monkeypatch, classify_module, "search_homotopic")
    [row] = classify("split", al_id2).rows
    assert (row.members, row.status, row.detail) == (
        ["AABB[a,a]", "ABAB[a,b]"], "DISAGREES", "fingerprints split a predicted class")
    assert searches == []


# {a,b}, {a,A}, {a,A,c}, a<->b and {c}
CLASSIFY_ALPHABETS = [ALPHABETS[0], ALPHABETS[1], ALPHABETS[3],
                      Alphabet(["a", "b"], {"a": "b", "b": "a"}), Alphabet(["c"])]


def _rows(result):
    return [(r.label, r.members, r.status, r.detail) for r in result.rows]


@pytest.mark.parametrize("budget", [{}, {"max_states": 1}], ids=["default", "max_states=1"])
@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_classify_matches_the_full_key_route(kind, budget):
    for al in CLASSIFY_ALPHABETS:
        assert _rows(classify(kind, al, **budget)) == _rows(classify_by_full_keys(kind, al, **budget))


@pytest.mark.parametrize("family", [_shared_key_family, _split_class_family],
                         ids=["shared key", "split class"])
def test_classify_matches_the_full_key_route_on_synthetic_families(al_id2, monkeypatch, family):
    monkeypatch.setitem(FAMILIES, "synthetic", family)
    assert (_rows(classify("synthetic", al_id2))
            == _rows(classify_by_full_keys("synthetic", al_id2)))


def test_classify_computes_nabla_only_where_a_comparison_reaches_it(al_mixed, monkeypatch):
    # nanowords6 over {a,A,c} has 135 items, and a field before nabla tells
    # most of them apart; the full-key route computes nabla for all of them
    calls = _count_calls(monkeypatch, fingerprint, "nabla")
    classify("nanowords6", al_mixed)
    items = len(FAMILIES["nanowords6"](al_mixed))
    assert 0 < len({w.key() for w, _ in calls}) < items / 2


def test_a_fingerprint_computes_gamma_once(monkeypatch):
    """gamma' and gamma~ read the gamma row, and mu reads gamma'; mu's row
    equals mu(w) and is indexed by the word's own letters."""
    calls = []

    def counted(w):
        calls.append(w)
        return interlacement_gamma(w)

    monkeypatch.setattr(interlacement, "gamma", counted)
    monkeypatch.setattr(fingerprint, "gamma", counted)
    rng = random.Random(30)
    for al in ALPHABETS:
        for _ in range(5):
            w = random_nanoword(al, rng.randrange(0, 6), rng)
            calls.clear()
            fp = compute_fingerprint(w)
            assert len(calls) == 1
            want = mu(w)
            assert all(fp.value("mu").value(a, b) == want.value(a, b)
                       for a in al.letters for b in al.letters)


def test_lazy_comparison_matches_the_eager_one():
    rng = random.Random(11)
    for al in ALPHABETS:
        for _ in range(12):
            w1 = random_nanoword(al, rng.randrange(0, 6), rng)
            if rng.random() < 0.5:   # same Gauss word, new projections
                w2 = Nanoword(al, w1.word, {x: rng.choice(al.letters) for x in w1.letters})
            else:
                w2 = random_nanoword(al, rng.randrange(0, 6), rng)
            eager = compute_fingerprint(w1).first_difference(compute_fingerprint(w2))
            lazy = Fingerprint(w1)
            assert lazy.first_difference(Fingerprint(w2)) == eager
            # nothing past the separating field, except the pairing behind rho
            upto = FIELD_ORDER[:FIELD_ORDER.index(eager) + 1] if eager else FIELD_ORDER
            assert set(lazy.fields) <= {*upto, "pairing"}


def test_fingerprint_key_is_isomorphism_invariant():
    rng = random.Random(8)
    for al in ALPHABETS:
        for _ in range(10):
            w = random_nanoword(al, rng.randrange(0, 4), rng)
            names = list(w.letters)
            shuffled = names[:]
            rng.shuffle(shuffled)
            rename = dict(zip(names, shuffled))
            v = Nanoword(al, [rename[x] for x in w.word],
                         {rename[x]: w.proj[x] for x in names})
            assert compute_fingerprint(w).key() == compute_fingerprint(v).key()


def test_fingerprint_report_renders(al_free2):
    w = nanoword_from_pattern(al_free2, "ABAB", {"A": "a", "B": "b"})
    lines = format_fingerprint(compute_fingerprint(w))
    text = "\n".join(lines)
    assert "gamma:  z_a z_b z_a^-1 z_b^-1" in text
    assert "lambda:" in text and "charseq" in text


def test_timings_count_each_field_once(al_mixed, monkeypatch):
    """rho reads the pairing field; the pairing's time is not counted in rho's."""
    import time

    import nanowords.fingerprint as fpmod
    compress = fpmod.compress

    def slow_compress(p):
        time.sleep(0.05)
        return compress(p)

    monkeypatch.setattr(fpmod, "compress", slow_compress)
    fp = Fingerprint(random_nanoword(al_mixed, 4, random.Random(3)))
    fp.value("rho")
    assert set(fp.timings) == set(fp.fields) == {"rho", "pairing"}
    assert fp.timings["pairing"] >= 0.05 > fp.timings["rho"] >= 0
    fp.key()
    assert set(fp.timings) == set(fp.names)


def test_fingerprint_invariance_on_longer_words():
    """c11 draws 1-4 letters; this walks 5-10-letter words along random moves."""
    from nanowords.moves import HomotopyData, enumerate_moves
    rng = random.Random(113)
    for k in range(60):
        al = ALPHABETS[2 + k % 2]
        w = random_nanoword(al, rng.randrange(5, 11), rng)
        data = HomotopyData(al)
        base = compute_fingerprint(w)
        cur = w
        for _ in range(3):
            options = enumerate_moves(cur, data, max_length=len(w.word) + 2, use_macros=True)
            _, cur = options[rng.randrange(len(options))]
            diff = base.first_difference(compute_fingerprint(cur))
            assert diff is None, f"field {diff} changed along a move from {w}"


# 16-24 letters over {a, A, b, B} and {a, A, c}: two words on which the
# integer Smith form never finished, and two long random words
LONG_WORDS = (
    (2, "1 2 3 4 5 6 7 8 9 2 10 11 3 12 11 7 13 14 15 10 6 1 14 12 8 9 16 4 13 5 15 16",
     "A a b a a A b B A A b a b B B B"),
    (3, "1 2 2 3 4 5 6 7 8 9 10 11 12 3 12 13 5 4 1 9 14 15 11 16 17 8 7 16 18 13 6 10 "
        "15 17 19 18 19 14", "a c c c A c c A A A c A A c c c a A a"),
    (2, "1 2 3 4 5 6 7 8 9 10 11 11 5 12 13 13 14 9 15 16 17 17 2 18 19 20 4 21 21 3 10 "
        "12 19 7 1 6 14 8 18 15 22 16 22 20", "a a a b B A A A b b a B A B A b a a a A A a"),
    (2, "1 2 3 4 5 6 7 8 9 10 3 11 12 9 13 14 15 13 16 5 8 14 11 17 6 18 19 2 17 20 16 20 "
        "21 12 22 23 22 19 24 21 10 1 4 23 18 7 24 15",
     "A A B B B b a b A a A b b A B A b b B b b B A B"),
)


def _long_word(index):
    al_index, word, proj = LONG_WORDS[index]
    return Nanoword(ALPHABETS[al_index], word.split(),
                    {str(k): a for k, a in enumerate(proj.split(), 1)})


def test_long_word_contract():
    """Full fingerprints of 16-24-letter words finish; nabla_alpha obeys the
    c07 identities, the Z/m coloring counts equal the prime-field route and
    lambda passes its ring-map checks and equals the substitution route."""
    from nanowords import GroupRingElement, PsiAbElement, lambda_checks
    from oracles import lambda_by_substitution, q_ab
    from nanowords.matrices import count_colorings_prime
    for index in range(len(LONG_WORDS)):
        w = _long_word(index)
        al = w.alphabet
        assert 16 <= len(w.letters) <= 24
        fp = compute_fingerprint(w)
        nablas = fp.value("nabla")
        alpha = tuple(sorted(al.letters))
        assert nablas[(alpha, "-")] == GroupRingElement.of(PsiAbElement.identity(al))
        assert nablas[(alpha, "+")] == q_ab(fp.value("lambda"))
        for spec in default_coloring_specs(al):
            assert fp.value("colorings")[spec.key()] == count_colorings_prime(w, spec)
        assert all(lambda_checks(w).values())
        assert lambda_by_substitution(w) == fp.value("lambda")


def test_nabla_is_multiplicative_on_a_long_product():
    from nanowords import nabla, product
    al = ALPHABETS[2]
    w1 = Nanoword(al, "1 2 3 4 2 5 6 7 7 8 9 1 3 10 11 5 12 9 10 12 11 4 6 8".split(),
                  dict(zip(map(str, range(1, 13)), "B b A a a a A A B a B b".split())))
    w2 = Nanoword(al, "1 2 2 3 4 5 6 7 8 5 6 9 9 4 10 10 1 3 7 8".split(),
                  dict(zip(map(str, range(1, 11)), "A b A B A A A b A B".split())))
    w = product(w1, w2)
    assert len(w.letters) == 22
    for beta in default_betas(al):
        for eps in "+-":
            assert nabla(w, beta)[eps] == nabla(w1, beta)[eps] * nabla(w2, beta)[eps]
