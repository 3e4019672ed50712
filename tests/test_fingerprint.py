import random

from nanowords import Alphabet, Nanoword, compute_fingerprint, nanoword_from_pattern
from nanowords.classify import FAMILIES, Item, classify
from nanowords.fingerprint import (FIELD_ORDER, Fingerprint, default_betas,
                                  format_fingerprint)

from conftest import ALPHABETS, random_nanoword


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


def test_classify_names_a_fingerprint_shared_across_predicted_classes(al_id2, monkeypatch):
    # one nanoword under two predicted labels: one bucket, and no certificate
    # can tell the classes apart, so each is UNKNOWN and names the other
    w = nanoword_from_pattern(al_id2, "ABAB", {"A": "a", "B": "b"})
    monkeypatch.setitem(FAMILIES, "pair",
                        lambda al: [Item("one", w, ("x",)), Item("two", w, ("y",))])
    rows = classify("pair", al_id2).rows
    assert {(r.members[0], r.status, r.detail) for r in rows} == {
        ("one", "UNKNOWN", "fingerprint shared with two"),
        ("two", "UNKNOWN", "fingerprint shared with one")}


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
