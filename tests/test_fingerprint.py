import itertools
import random

import pytest

import nanowords.classify as classify_module
from nanowords import (Alphabet, Nanoword, compute_fingerprint, fingerprint, interlacement,
                       matrices, mu, nabla, nanoword_from_pattern)
from nanowords.classify import FAMILIES, ZERO, Item, classify
from nanowords.fingerprint import (FIELD_ORDER, Fingerprint, default_betas,
                                  default_coloring_specs, format_fingerprint, partition)

from conftest import ALPHABETS, random_nanoword, short_nanowords
from oracles import classify_by_full_keys

interlacement_gamma = interlacement.gamma


def test_default_betas_are_orbit_unions(al_mixed):
    betas = default_betas(al_mixed)
    assert frozenset() in betas and frozenset(al_mixed.letters) in betas
    for beta in betas:
        assert all(al_mixed.tau(a) in beta for a in beta)
    assert len(betas) == 4


# {a,b}, {a,A}, {a,A,b,B}, {a,A,c}, {c}, {a,b,c} and four orbits
NABLA_ALPHABETS = [*ALPHABETS, Alphabet(["c"]), Alphabet(["a", "b", "c"]),
                   Alphabet(["a", "A", "b", "B", "c", "d"],
                            {"a": "A", "A": "a", "b": "B", "B": "b", "c": "c", "d": "d"})]


def test_nabla_row_equals_the_per_beta_elimination():
    """The row reads the ends off lambda and each complement off sigma; on
    seeded words of 0-12 letters it equals ``nabla(w, beta)`` at every beta."""
    rng = random.Random(67)
    for al in NABLA_ALPHABETS:
        for n in [*range(13)] * 2:
            fp = Fingerprint(random_nanoword(al, n, rng))
            assert fp.value("nabla") == {(tuple(sorted(beta)), eps): v
                                         for beta in default_betas(al)
                                         for eps, v in nabla(fp.nanoword, beta).items()}


def test_nabla_row_eliminates_once_per_complementary_pair(monkeypatch):
    """Orbit unions pair up with their complements and (empty, alpha) needs
    no elimination: 1 at two orbits, 3 at three, none at one or at four."""
    calls = []
    eliminate = matrices._eliminate

    def spy(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(matrices, "_eliminate", spy)
    rng = random.Random(69)
    for al, expected in zip(NABLA_ALPHABETS, (1, 0, 1, 1, 0, 3, 0)):
        for _ in range(3):
            calls.clear()
            Fingerprint(random_nanoword(al, rng.randrange(1, 7), rng)).value("nabla")
            assert len(calls) == expected, al.letters


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
    # a lone class leaves its bucket unsplit: one search fails, and the full
    # keys then tell the split class from an exhausted budget
    monkeypatch.setitem(FAMILIES, "split", _split_class_family)
    searches = _count_calls(monkeypatch, classify_module, "search_homotopic")
    [row] = classify("split", al_id2).rows
    assert (row.members, row.status, row.detail) == (
        ["AABB[a,a]", "ABAB[a,b]"], "DISAGREES", "fingerprints split a predicted class")
    assert len(searches) == 1


def _split_beside_a_class_family(al):
    # ABBA[a,a] holds the first bucket at two classes, and gamma splits it
    return [*_split_class_family(al),
            Item("ABBA[a,a]", nanoword_from_pattern(al, "ABBA", {"A": "a", "B": "a"}), ("y",))]


def test_classify_splits_a_class_without_searching_where_another_class_shares_its_bucket(
        al_id2, monkeypatch):
    monkeypatch.setitem(FAMILIES, "split beside", _split_beside_a_class_family)
    searches = _count_calls(monkeypatch, classify_module, "search_homotopic")
    rows = classify("split beside", al_id2).rows
    assert [(r.members, r.status, r.detail) for r in rows] == [
        (["AABB[a,a]", "ABAB[a,b]"], "DISAGREES", "fingerprints split a predicted class"),
        (["ABBA[a,a]"], "UNKNOWN", "fingerprint shared with AABB[a,a]")]
    assert searches == []


def _late_split_family(al):
    # the two "x" words tie on every field before the pairing, and gamma
    # tells both from the empty word
    return [Item("w", Nanoword(al, "1 2 3 1 3 4 2 4".split(),
                               {"1": "b", "2": "a", "3": "b", "4": "a"}), ("x",)),
            Item("v", Nanoword(al, "1 2 3 4 4 5 1 3 2 5".split(),
                               {"1": "b", "2": "b", "3": "a", "4": "b", "5": "a"}), ("x",)),
            Item("empty", Nanoword(al, (), {}), ZERO)]


def test_classify_decides_a_failed_search_on_the_full_keys(al_id2, monkeypatch):
    """The labelled refinement stops once gamma leaves class "x" alone in its
    bucket, so it never reaches the pairing that separates the class; the
    failed search sends the class to its full keys, and the row is
    DISAGREES, as on the full-key route."""
    items = _late_split_family(al_id2)
    fps = {it.name: Fingerprint(it.nanoword) for it in items}
    buckets = partition(fps, {it.name: it.predicted for it in items})
    assert sorted(buckets) == [["empty"], ["w", "v"]]
    computed = set(fps["w"].fields) | set(fps["v"].fields)
    assert fps["w"].first_difference(fps["v"]) == "pairing" and "pairing" not in computed
    monkeypatch.setitem(FAMILIES, "late split", _late_split_family)
    budget = {"max_states": 2000}
    rows = _rows(classify("late split", al_id2, **budget))
    assert rows[0] == (("x",), ["w", "v"], "DISAGREES", "fingerprints split a predicted class")
    assert rows == _rows(classify_by_full_keys("late split", al_id2, **budget))


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


@pytest.mark.parametrize("family", [_shared_key_family, _split_class_family,
                                    _split_beside_a_class_family, _late_split_family],
                         ids=["shared key", "split class", "split beside a class", "late split"])
def test_classify_matches_the_full_key_route_on_synthetic_families(al_id2, monkeypatch, family):
    monkeypatch.setitem(FAMILIES, "synthetic", family)
    assert (_rows(classify("synthetic", al_id2))
            == _rows(classify_by_full_keys("synthetic", al_id2)))


def _perturbed(items, how, rng):
    """``items`` with wrong predictions: two classes merged, one class split,
    or one item moved to another class; None where there is no second class."""
    labels = list(dict.fromkeys(it.predicted for it in items))
    predicted = {it.name: it.predicted for it in items}
    if how == "split":
        label = rng.choice([lab for lab in labels
                            if sum(it.predicted == lab for it in items) > 1])
        members = [it.name for it in items if it.predicted == label]
        for name in rng.sample(members, rng.randrange(1, len(members))):
            predicted[name] = ("split",)
    elif len(labels) < 2:
        return None
    elif how == "merge":
        keep, gone = rng.sample(labels, 2)
        predicted.update((it.name, keep) for it in items if it.predicted == gone)
    else:
        moved = rng.choice(items)
        predicted[moved.name] = rng.choice([lab for lab in labels if lab != moved.predicted])
    return [Item(it.name, it.nanoword, predicted[it.name]) for it in items]


def test_classify_matches_the_full_key_route_on_wrong_predictions(monkeypatch):
    """Seeded wrong predictions reach every verdict, and on each the rows
    equal the full-key rows."""
    outcomes = set()
    cases = itertools.product(({}, {"max_states": 1}), ("nanowords4", "nanowords6"),
                              CLASSIFY_ALPHABETS, ("merge", "split", "move"))
    for seed, (budget, kind, al, how) in enumerate(cases):
        items = _perturbed(FAMILIES[kind](al), how, random.Random(seed))
        if items is None:
            continue
        monkeypatch.setitem(FAMILIES, "perturbed", lambda al, items=items: items)
        rows = _rows(classify("perturbed", al, **budget))
        assert rows == _rows(classify_by_full_keys("perturbed", al, **budget)), (seed, kind, how)
        outcomes |= {(status, detail.split(" with ")[0]) for _, _, status, detail in rows}
    assert outcomes == {("AGREES", ""), ("DISAGREES", "fingerprints split a predicted class"),
                        ("UNKNOWN", "fingerprint shared"), ("UNKNOWN", "search budget exhausted")}


# the most first computations of each field that classify may make on
# nanowords6: 320 items over {a,A,b,B} and 135 over {a,A,c}, and past
# selflink only the few that every earlier field leaves tied with another
# predicted class
_NANOWORDS6_WORK = {
    "a A b B": {**dict.fromkeys(("gamma", "gamma_prime", "gamma_tilde", "mu", "selflink"), 320),
                "rho": 32, "pairing": 32, "rho_ax": 28,
                **dict.fromkeys(("colorings", "nabla", "lambda", "charseq"), 0)},
    "a A c": {**dict.fromkeys(("gamma", "gamma_prime", "gamma_tilde", "mu", "selflink"), 135),
              "rho": 26, "pairing": 26, "rho_ax": 24, "colorings": 12,
              **dict.fromkeys(("nabla", "lambda"), 0)},
}


def test_classify_computes_nabla_only_where_a_comparison_reaches_it(al_free2, al_mixed, al_id2,
                                                                     monkeypatch):
    # a field before nabla leaves no two classes of nanowords6 tied; in
    # words5 over {a,b} a few items reach nabla, where the full-key route
    # computes it for all of them
    calls = _count_calls(monkeypatch, fingerprint, "nabla")
    differences = _count_calls(monkeypatch, Fingerprint, "first_difference")
    computed = []
    field = Fingerprint.field

    def spy(fp, name):
        if name not in fp.fields:
            computed.append(name)
        return field(fp, name)

    monkeypatch.setattr(Fingerprint, "field", spy)
    for al in (al_free2, al_mixed):
        computed.clear()
        classify("nanowords6", al)
        bounds = _NANOWORDS6_WORK[" ".join(al.letters)]
        assert all(computed.count(name) <= bound for name, bound in bounds.items()), \
            {name: computed.count(name) for name in bounds}
    assert calls == []
    classify("words5", al_id2)
    items = len(FAMILIES["words5"](al_id2))
    assert 0 < len({w.key() for w, _ in calls}) <= 10 < items / 2
    assert differences == []


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


def test_partition_buckets_by_full_key():
    """Seeded words, with repeats and Gauss words under new projections: the
    refinement's buckets are the full-key buckets, in input order.  Under
    seeded labels each bucket holds the words that share its first word's
    keys on the fewest leading fields that leave one label, or on every
    field if none does: a bucket of two labels is a full-key bucket, and a
    bucket of one label is split no further."""
    rng = random.Random(12)
    seen = set()
    for al in ALPHABETS:
        words = [random_nanoword(al, rng.randrange(0, 5), rng) for _ in range(12)]
        words += [Nanoword(al, w.word, {x: rng.choice(al.letters) for x in w.letters})
                  for w in words] + words[:3]
        keys = [compute_fingerprint(w).key() for w in words]
        by_key: dict = {}
        for i, key in enumerate(keys):
            by_key.setdefault(key, []).append(i)
        buckets = partition({i: Fingerprint(w) for i, w in enumerate(words)})
        assert sorted(buckets) == sorted(by_key.values())
        # labels by gamma, by gamma and one more field, and at random
        for labels in ({i: key[:1] for i, key in enumerate(keys)},
                       {i: (key[:1], key[rng.randrange(1, len(key))]) for i, key in enumerate(keys)},
                       {i: rng.choice("xy") for i in range(len(words))}):
            buckets = partition({i: Fingerprint(w) for i, w in enumerate(words)}, labels)
            assert sorted(i for bucket in buckets for i in bucket) == list(range(len(words)))
            for bucket in buckets:
                for depth in range(len(keys[0]) + 1):
                    tied = [i for i, key in enumerate(keys)
                            if key[:depth] == keys[bucket[0]][:depth]]
                    if len({labels[i] for i in tied}) < 2:
                        break
                assert bucket == tied
                seen.add((len({labels[i] for i in bucket}), len({keys[i] for i in bucket})))
    # both kinds of final bucket occur: two labels on one full key, and one
    # label on two full keys
    assert {(2, 1), (1, 2)} <= seen
    assert partition({}) == [] and partition({}, {}) == []


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


@pytest.mark.parametrize("alphabets, letters, count", [((1, 0, 3), 3, 1898), ((0,), 4, 5508)],
                         ids=["3 letters over {a,A} {a,b} {a,A,c}", "4 letters over {a,b}"])
def test_every_move_on_short_words_joins_equal_keys(alphabets, letters, count):
    """Every move with macros, within twice ``letters`` positions, from every
    nanoword of at most ``letters`` letters: 1,898 moves at 3 letters and
    5,508 at 4.  Keys are cached per canonical key."""
    from nanowords.moves import HomotopyData, successor_keys
    moves = 0
    for al in (ALPHABETS[i] for i in alphabets):
        data, keys = HomotopyData(al), {}

        def key(k):
            if k not in keys:
                keys[k] = compute_fingerprint(Nanoword.from_key(al, k)).key()
            return keys[k]

        for w in short_nanowords(al, letters):
            for record, nxt in successor_keys(w.key(), data, None, 2 * letters, use_macros=True):
                assert key(nxt) == key(w.key()), (w, record)
                moves += 1
    assert moves == count


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
    """Full fingerprints of 16-24-letter words finish; nabla_alpha, by the
    elimination and in the row, obeys the c07 identities, the Z/m coloring
    counts equal the prime-field route and lambda passes its ring-map checks
    and equals the substitution route."""
    from nanowords import GroupRingElement, PsiAbElement, lambda_checks
    from oracles import lambda_by_substitution, q_ab
    from nanowords.matrices import count_colorings_prime
    for index in range(len(LONG_WORDS)):
        w = _long_word(index)
        al = w.alphabet
        assert 16 <= len(w.letters) <= 24
        fp = compute_fingerprint(w)
        alpha = tuple(sorted(al.letters))
        eliminated = nabla(w, set(alpha))
        assert eliminated == {eps: fp.value("nabla")[(alpha, eps)] for eps in "+-"}
        assert eliminated["-"] == GroupRingElement.of(PsiAbElement.identity(al))
        assert eliminated["+"] == q_ab(fp.value("lambda"))
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
