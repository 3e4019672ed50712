"""Acceptance suite: one test per release criterion, exact tolerances.

Each test prints one `[criterion NN] PASS/FAIL` line (visible with -s or -v;
always printed on failure).  Budgets are pinned here, not tuned at runtime.
"""

import random

import pytest

from nanowords import (Alphabet, ColoringSpec, GroupRingElement, Nanoword,
                       PiElement, PiWord, PsiElement, SubgroupOfPi, CharSeq,
                       char_sequence, charseq_inverse, compress,
                       compute_fingerprint, count_colorings, covering, desingularize,
                       from_word, gamma, gamma_prime, inverse, lambda_checks,
                       lambda_invariant, lambda_prime, lambda_split,
                       linking_pairing, mu, nanoword_from_pattern,
                       norm_lower_bound, opposite, product, rho,
                       self_link_function, verify_certificate)
from nanowords.fingerprint import FIELD_ORDER
from nanowords.groups import parse_pi
from nanowords.keis import format_charseq
from nanowords.matrices import count_colorings_prime
from nanowords.moves import (HomotopyData, certificate_from_states,
                             enumerate_moves, search_contractible,
                             search_homotopic)
from nanowords.pairings import BASEPOINT
from nanowords.classify import classify

from conftest import random_nanoword
from oracles import count_colorings_bruteforce, pairings_isomorphic

AL_ID2 = Alphabet(["a", "b"])
AL_FREE1 = Alphabet(["a", "A"], {"a": "A", "A": "a"})
AL_FREE2 = Alphabet(["a", "A", "b", "B"], {"a": "A", "A": "a", "b": "B", "B": "b"})
AL_MIXED = Alphabet(["a", "A", "c"], {"a": "A", "A": "a", "c": "c"})


def _report(num, desc, body):
    try:
        body()
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {desc}")
        raise
    print(f"[criterion {num:02d}] PASS  {desc}")


def _psi_sum(al, *monomials):
    out = GroupRingElement.zero(al)
    for coeff, toks in monomials:
        g = PsiElement.identity(al)
        for tok in toks:
            bullet = tok.endswith(".")
            g = g * PsiElement.generator(al, tok.rstrip("."), bullet=bullet)
        out = out + GroupRingElement.of(g, coeff)
    return out


def test_c01_gamma_values():
    def body():
        w = nanoword_from_pattern(AL_FREE2, "ABAB", {"A": "a", "B": "b"})
        assert gamma(w).format() == "z_a z_b z_a^-1 z_b^-1"
        za = PiWord.generator(AL_FREE2.involutions, "a")
        zb = PiWord.generator(AL_FREE2.involutions, "b")
        for m in range(1, 5):
            seq = [f"{x}{i}" for i in range(1, m + 1) for x in "AB"]
            proj = {f"A{i}": "a" for i in range(1, m + 1)}
            proj.update({f"B{i}": "b" for i in range(1, m + 1)})
            wm = nanoword_from_pattern(AL_FREE2, seq + seq, proj)
            assert gamma_prime(wm) == (za * zb) ** (2 * m)

    _report(1, "gamma(ABAB) and gamma'(w_m) = (z_a z_b)^2m, m = 1..4", body)


def test_c02_covering_golden():
    def body():
        word = ["A1", "B1", "B2", "A2", "A1", "A3", "B1", "A3", "A2", "B2"]
        proj = {"A1": "a", "A2": "a", "A3": "a", "B1": "b", "B2": "b"}
        w = nanoword_from_pattern(AL_ID2, word, proj)
        h = SubgroupOfPi(AL_ID2, [parse_pi(AL_ID2, "ab")])
        v = covering(w, h)
        assert list(v.word) == ["B1", "B2", "A2", "B1", "A2", "B2"]
        assert mu(v).value("a", "b") == 1

    _report(2, "H-covering golden test and mu of the covering", body)


def test_c03_self_linking():
    def body():
        w = nanoword_from_pattern(AL_FREE1, "ABAB", {"A": "a", "B": "a"})
        u = self_link_function(w)
        expected = GroupRingElement.of(parse_pi(AL_FREE1, "a")) + \
            GroupRingElement.of(parse_pi(AL_FREE1, "a^-1"))
        assert u.values["a"] == expected
        al = Alphabet(["a", "b"], {"a": "b", "b": "a"})
        for m in range(1, 4):
            for n in range(1, 4):
                heads = [f"A{i}" for i in range(1, m + 1)] + \
                        [f"B{j}" for j in range(1, n + 1)]
                tails = [f"A{i}" for i in range(m, 0, -1)] + \
                        [f"B{j}" for j in range(n, 0, -1)]
                proj = {f"A{i}": "a" for i in range(1, m + 1)}
                proj.update({f"B{j}": "b" for j in range(1, n + 1)})
                wmn = nanoword_from_pattern(al, heads + tails, proj)
                expect = GroupRingElement.of(parse_pi(al, f"a^{-n}"), m) + \
                    GroupRingElement.of(parse_pi(al, f"a^{-m}"), -n)
                assert self_link_function(wmn).values["a"] == expect
        for m in range(3, 7):
            wd = desingularize(from_word("a" * m, AL_FREE1))
            assert norm_lower_bound(wd) >= (m // 2) * ((m - 1) // 2) + 1

    _report(3, "self-linking values and the monoliteral norm bound", body)


def test_c04_pairings():
    def body():
        w = nanoword_from_pattern(AL_FREE2, "ABAB", {"A": "a", "B": "b"})
        p = linking_pairing(w.canonical())
        la, lb = p.letters
        s = BASEPOINT
        grid = {(s, la): "b^-1", (s, lb): "a", (la, s): "b",
                (la, lb): "ab", (lb, s): "a^-1", (lb, la): "a^-1 b^-1"}
        for (x, y), val in grid.items():
            assert p.b(x, y) == parse_pi(AL_FREE2, val)
        for a, b in (("a", "b"), ("a", "a"), ("b", "a")):
            v = nanoword_from_pattern(AL_FREE2, "XYXY", {"X": a, "Y": b})
            pv = linking_pairing(v)
            assert (compress(pv).letters == pv.letters) == (b != AL_FREE2.tau(a))
        contractible = nanoword_from_pattern(AL_FREE2, "XYXY", {"X": "a", "Y": "A"})
        assert compress(linking_pairing(contractible)).letters != \
            linking_pairing(contractible).letters

        # the four outcomes for ABACBC
        generic = nanoword_from_pattern(AL_FREE2, "ABACBC",
                                        {"A": "a", "B": "b", "C": "a"})
        assert len(compress(linking_pairing(generic)).letters) == 3
        mid = nanoword_from_pattern(AL_FREE2, "ABACBC",
                                    {"A": "a", "B": "A", "C": "a"}).canonical()
        c2 = compress(linking_pairing(mid))
        la2, lc2 = c2.letters
        assert c2.b(la2, BASEPOINT) == parse_pi(AL_FREE2, "a^-1")
        assert c2.b(lc2, BASEPOINT) == parse_pi(AL_FREE2, "a")
        assert c2.b(la2, lc2) == parse_pi(AL_FREE2, "a^-2")
        twins = nanoword_from_pattern(AL_MIXED, "ABACBC",
                                      {"A": "a", "B": "c", "C": "A"}).canonical()
        c3 = compress(linking_pairing(twins))
        assert len(c3.letters) == 1
        assert c3.b(BASEPOINT, c3.letters[0]) == parse_pi(AL_MIXED, "a^2")
        trivial = nanoword_from_pattern(AL_ID2, "ABACBC",
                                        {"A": "a", "B": "b", "C": "a"})
        assert compress(linking_pairing(trivial)).letters == ()

    _report(4, "linking pairing matrix, primitivity and compression cases", body)


def test_c05_lambda_goldens():
    def body():
        w = nanoword_from_pattern(AL_FREE2, "ABAB", {"A": "a", "B": "b"})
        assert lambda_invariant(w) == _psi_sum(
            AL_FREE2, (1, ("a", "b", "a.", "b.")), (1, ("b.",)),
            (-1, ("a", "a.", "b.")), (1, ("a",)), (-1, ("a", "b", "b.")))

        al6 = Alphabet(["a", "ta", "b", "tb", "c", "tc"],
                       {"a": "ta", "ta": "a", "b": "tb", "tb": "b",
                        "c": "tc", "tc": "c"})
        pat = {"w1": "ABCABC", "w2": "ABCACB", "w3": "ABCBAC",
               "w4": "ABCBCA", "w5": "ABACBC"}
        lam = {k: lambda_invariant(nanoword_from_pattern(
            al6, p, {"A": "a", "B": "b", "C": "c"})) for k, p in pat.items()}
        # the permutation formula instances, one split component each
        assert lambda_split(lam["w1"])[(1, 1)] == _psi_sum(
            al6, (1, ("a", "c.")), (-1, ("a", "a.", "b.", "c.")),
            (-1, ("a", "b", "c", "c.")), (1, ("a", "b", "c", "a.", "b.", "c.")))
        assert lambda_split(lam["w2"])[(1, 0)] == _psi_sum(
            al6, (1, ("a",)), (-1, ("a", "b", "c", "c.", "b.")))
        assert lambda_split(lam["w3"])[(0, 1)] == _psi_sum(
            al6, (1, ("c.",)), (-1, ("a", "b", "b.", "a.", "c.")))
        assert lambda_split(lam["w4"])[(0, 0)] == _psi_sum(al6, (1, ()))
        assert lambda_split(lam["w5"])[(1, 1)] == _psi_sum(
            al6, (1, ("a", "c.")), (-1, ("c", "c.")), (-1, ("a", "a.")),
            (1, ("a", "b", "a.", "c", "b.", "c.")))

        # the two desingularizations of length-5 words over one free orbit,
        # specialized at tau(a) = a as in the separation argument
        alm = Alphabet(["a", "b", "B"], {"a": "a", "b": "B", "B": "b"})
        proj = {"A1": "a", "A2": "a", "A3": "a", "B": "b"}
        waabab = nanoword_from_pattern(
            alm, ["A3", "A2", "A3", "A1", "B", "A2", "A1", "B"], proj)
        wabaab = nanoword_from_pattern(
            alm, ["A3", "A2", "B", "A3", "A1", "A2", "A1", "B"], proj)
        s1 = lambda_split(lambda_invariant(waabab))[(1, 1)]
        s2 = lambda_split(lambda_invariant(wabaab))[(1, 1)]
        assert s1 == _psi_sum(alm, (1, ("a", "a.")), (-1, ("a", "b.")))
        assert s2 == _psi_sum(alm, (1, ("a", "b.")), (-1, ("b", "b.")))
        assert s1 != s2

        one_letter = Alphabet(["a"])
        rng = random.Random(5)
        one = _psi_sum(one_letter, (1, ()))
        for _ in range(50):
            v = random_nanoword(one_letter, rng.randrange(0, 5), rng)
            assert lambda_invariant(v) == one

    _report(5, "lambda golden values: length 4, all five length-6 families, "
               "length-5 separations, one-letter alphabet", body)


def test_c06_lambda_consistency_suite():
    def body():
        rng = random.Random(106)
        alphabets = [AL_ID2, AL_FREE1, AL_FREE2, AL_MIXED]
        for i in range(500):
            al = alphabets[i % len(alphabets)]
            w = random_nanoword(al, rng.randrange(0, 7), rng)
            assert all(lambda_checks(w).values())

    _report(6, "p(lambda) = gamma and r(lambda) = r.(lambda) = 1 on 500 "
               "random nanowords of length <= 12", body)


def test_c07_nabla_consistency():
    def body():
        from nanowords import nabla
        from nanowords.groups import PsiAbElement
        from oracles import q_ab
        rng = random.Random(107)
        alphabets = [AL_ID2, AL_FREE1, AL_FREE2, AL_MIXED]
        for i in range(200):
            al = alphabets[i % len(alphabets)]
            w = random_nanoword(al, rng.randrange(1, 6), rng)
            beta = set(al.letters)
            one = GroupRingElement.of(PsiAbElement.identity(al))
            assert nabla(w, beta)["-"] == one
            assert nabla(w, beta)["+"] == q_ab(lambda_invariant(w))

    _report(7, "nabla-_alpha = 1 and nabla+_alpha = q(lambda) on 200 random "
               "nanowords of length <= 10", body)


def test_c08_colorings():
    def body():
        # input/output coloring counts for the eight-letter example, with a
        # from-first-principles oracle: sums of three consecutive labels
        word = ["A1", "A2", "B", "A3", "A1", "B", "A2", "A3"]
        proj = {"A1": "a", "A2": "a", "A3": "a", "B": "b"}
        w = nanoword_from_pattern(AL_ID2, word, proj)
        spec = ColoringSpec.tricoloring(AL_ID2, {"a"})
        counts = count_colorings(w, spec)

        def oracle_cell(k, l):
            occ = {x: w.occurrences(x) for x in w.letters}
            total = 0
            for code in range(3 ** 9):
                f = [(code // 3 ** i) % 3 for i in range(9)]
                if f[0] != k or f[8] != l:
                    continue
                good = True
                for x in w.letters:
                    i, j = occ[x]
                    if w.proj[x] == "a":
                        good &= f[i] == f[i - 1]
                        good &= (f[j - 1] + f[j] + f[i]) % 3 == 0
                    else:
                        good &= (f[i - 1] + f[i] + f[j]) % 3 == 0
                        good &= f[j] == f[j - 1]
                if good:
                    total += 1
            return total

        oracle = [[oracle_cell(k, l) for l in range(3)] for k in range(3)]
        assert counts == oracle
        base = counts[0][0]
        assert base >= 1 and all(x == base for row in counts for x in row)

        # Z/5 example separating ABAB from its inverse
        al = Alphabet(["a", "ta", "b", "tb"],
                      {"a": "ta", "ta": "a", "b": "tb", "tb": "b"})
        p = {x: 1 for x in al.letters}
        pb = {"a": 2, "tb": 2, "ta": 3, "b": 3}
        spec5 = ColoringSpec.make(al, {"a", "ta"}, 5, p, pb)
        ab = nanoword_from_pattern(al, "ABAB", {"A": "a", "B": "b"})
        counts5 = count_colorings(ab, spec5)
        assert any(counts5[k][l] for k in range(5) for l in range(5) if k != l)
        counts5i = count_colorings(inverse(ab), spec5)
        assert all(counts5i[k][l] == (1 if k == l else 0)
                   for k in range(5) for l in range(5))

        # shape constraint + oracle agreement on 200 random instances
        rng = random.Random(108)
        alphabets = [AL_ID2, AL_FREE1, AL_FREE2, AL_MIXED]
        for i in range(200):
            al2 = alphabets[i % len(alphabets)]
            v = random_nanoword(al2, rng.randrange(0, 4), rng)
            orbit = rng.choice(al2.orbits)
            tri = ColoringSpec.tricoloring(al2, frozenset(orbit))
            mat = count_colorings(v, tri)
            c = mat[0][0]
            assert c >= 1 and 3 ** 8 % c == 0
            flat = all(x == c for row in mat for x in row)
            diag = all(mat[k][l] == (c if k == l else 0)
                       for k in range(3) for l in range(3))
            assert flat or diag
            if 3 ** (len(v.word) + 1) <= 10 ** 6:
                assert mat == count_colorings_bruteforce(v, tri)
            assert mat == count_colorings_prime(v, tri)

    _report(8, "coloring counts: worked examples, Z/5 orientation test, "
               "shape constraint, brute-force agreement", body)


@pytest.mark.xfail(strict=True, reason="a published value for this "
                   "example's constant is 3; exhaustive enumeration of all "
                   "3^9 labelings under the defining constraints yields 1 "
                   "per input/output cell, so the larger value is "
                   "unreachable (kept as a visible record, not silently "
                   "dropped)")
def test_c08_note_on_claimed_constant():
    word = ["A1", "A2", "B", "A3", "A1", "B", "A2", "A3"]
    proj = {"A1": "a", "A2": "a", "A3": "a", "B": "b"}
    w = nanoword_from_pattern(AL_ID2, word, proj)
    spec = ColoringSpec.tricoloring(AL_ID2, {"a"})
    counts = count_colorings(w, spec)
    assert all(c == 3 for row in counts for c in row)


def test_c09_characteristic_sequences():
    def body():
        def psi(al, *toks):
            g = PsiElement.identity(al)
            for tok in toks:
                g = g * PsiElement.generator(al, tok.rstrip("."),
                                             bullet=tok.endswith("."))
            return g

        w = nanoword_from_pattern(AL_FREE2, "ABAB", {"A": "a", "B": "b"})
        assert char_sequence(w) == CharSeq(AL_FREE2, (
            (1, psi(AL_FREE2, "a")), (1, psi(AL_FREE2, "b.")),
            (1, psi(AL_FREE2, "b.", "a.", "b", "a")),
            (-1, psi(AL_FREE2, "b.", "a.", "a")),
            (-1, psi(AL_FREE2, "b.", "b", "a"))))

        abacbc = nanoword_from_pattern(AL_FREE1, "ABACBC",
                                       {"A": "a", "B": "A", "C": "a"})
        acac = nanoword_from_pattern(AL_FREE1, "ACAC", {"A": "a", "C": "a"})
        cs1 = char_sequence(abacbc)
        cs2 = char_sequence(acac)
        assert cs1 == CharSeq(AL_FREE1, (
            (1, psi(AL_FREE1)), (1, psi(AL_FREE1, "a.")),
            (-1, psi(AL_FREE1, "a", "a.")), (-1, psi(AL_FREE1)),
            (1, psi(AL_FREE1, "a")), (1, psi(AL_FREE1, "a", "a.")),
            (-1, psi(AL_FREE1, "a", "a", "a.")),
            (1, psi(AL_FREE1, "a", "a.")),
            (1, psi(AL_FREE1, "a", "a", "a.", "a.")),
            (-1, psi(AL_FREE1, "a", "a.", "a.")),
            (-1, psi(AL_FREE1, "a", "a."))))
        assert cs2 == CharSeq(AL_FREE1, (
            (1, psi(AL_FREE1, "a")), (1, psi(AL_FREE1, "a.")),
            (1, psi(AL_FREE1, "a", "a", "a.", "a.")),
            (-1, psi(AL_FREE1, "a", "a.", "a.")),
            (-1, psi(AL_FREE1, "a", "a", "a."))))
        assert cs1.terms[0] != cs2.terms[0]

        rng = random.Random(109)
        for i in range(300):
            al = (AL_FREE1, AL_FREE2)[i % 2]
            v = random_nanoword(al, rng.randrange(0, 5), rng)
            assert char_sequence(v).term_sum() == lambda_prime(v)

    _report(9, "characteristic sequences verbatim, checksum on 300 random "
               "nanowords, first-term separation", body)


A5_CHAIN = [
    "12 13 14 15 12 23 24 25 13 23 34 35 14 24 34 45 15 25 35 45",
    "13 12 14 15 23 12 24 25 23 13 34 35 14 24 34 45 15 25 35 45",
    "13 14 12 15 23 24 12 25 23 13 34 35 24 14 34 45 15 25 35 45",
    "13 14 15 12 23 24 25 12 23 13 34 35 24 14 34 45 25 15 35 45",
    "13 14 15 24 25 13 34 35 24 14 34 45 25 15 35 45",
    "14 13 15 24 25 34 13 35 24 34 14 45 25 15 35 45",
    "14 15 13 24 25 34 35 13 24 34 14 45 25 35 15 45",
    "14 15 25 34 35 34 14 45 25 35 15 45",
    "15 14 25 34 35 34 45 14 25 35 45 15",
    "15 34 35 34 45 35 45 15",
    "15 35 34 45 34 45 35 15",
    "34 45 34 45",
    "",
]


def test_c10_search():
    def body():
        # the 16-letter example that needs the third move
        al = Alphabet(["e", "E", "x", "y"],
                      {"e": "E", "E": "e", "x": "x", "y": "y"})
        proj = {"A": "e", "B": "e", "F": "e", "C": "E", "D": "E", "G": "E",
                "E": "x", "H": "y"}
        w = nanoword_from_pattern(al, list("ABCDEFBGDHFAGCHE"), proj)
        data = HomotopyData(al)
        cert = search_contractible(w, data, 20, 500000)
        assert cert is not None and verify_certificate(cert, data)

        one = Alphabet(["a"])
        d1 = HomotopyData(one)
        for m in (3, 4):
            wd = desingularize(from_word("a" * m, one))
            cert = search_contractible(wd, d1, 20, 500000)
            assert cert is not None and verify_certificate(cert, d1)

        # a^5: attempt a bounded search, then replay the worked contraction
        w5 = desingularize(from_word("a" * 5, one))
        cert = search_contractible(w5, d1, 20, 2000, insert_values=())
        if cert is None:
            states = []
            for chain in A5_CHAIN:
                tokens = chain.split()
                states.append(Nanoword(one, tokens, {t: "a" for t in tokens}))
            cert = certificate_from_states(states, d1)
        assert verify_certificate(cert, d1)

        alf = Alphabet(["a", "b"], {"a": "b", "b": "a"})
        ababa = desingularize(from_word("ababa", alf))
        cert = search_contractible(ababa, HomotopyData(alf), 20, 500000)
        assert cert is not None and verify_certificate(cert, HomotopyData(alf))

        # w5 ~ w4 at a = b = c != tau(a)
        df = HomotopyData(AL_FREE1)
        w5n = nanoword_from_pattern(AL_FREE1, "ABACBC",
                                    {"A": "a", "B": "a", "C": "a"})
        w4n = nanoword_from_pattern(AL_FREE1, "ABCBCA",
                                    {"A": "a", "B": "a", "C": "a"})
        cert = search_homotopic(w5n, w4n, df, 20, 500000)
        assert cert is not None and verify_certificate(cert, df)

    _report(10, "contracting certificates for the worked search examples "
                "(a^5 by replaying the explicit trace when search abstains)",
            body)


def test_c11_master_invariance():
    def body():
        rng = random.Random(111)
        checked = 0
        while checked < 1000:
            al = (AL_MIXED, AL_FREE2)[checked % 2]
            w = random_nanoword(al, rng.randrange(1, 5), rng)
            data = HomotopyData(al)
            base = compute_fingerprint(w)
            cur = w.canonical()
            for _ in range(4):
                options = enumerate_moves(cur, data,
                                          max_length=len(w.word) + 4,
                                          use_macros=True)
                if not options:
                    break
                _, cur = options[rng.randrange(len(options))]
                fp = compute_fingerprint(cur)
                diff = base.first_difference(fp)
                assert diff is None, f"field {diff} changed along a move"
                checked += 1
                if checked >= 1000:
                    break

    _report(11, "all fingerprint fields unchanged along 1000 random move "
                "perturbations", body)


def test_c12_classification():
    def body():
        for al in (AL_ID2, AL_FREE2):
            res4 = classify("nanowords4", al)
            assert res4.agrees, res4.format()
        res6 = classify("nanowords6", AL_FREE2)
        assert res6.agrees, res6.format()
        merged = [r for r in res6.rows if r.label[0] == "w45"]
        assert len(merged) == 4 and all(len(r.members) == 2 for r in merged)
        res5 = classify("words5", AL_ID2)
        assert res5.agrees, res5.format()
        non_contractible = sorted(
            "".join(sorted(r.members)) for r in res5.rows if r.label != ("zero",))
        assert len(non_contractible) == 12  # six forms, two letter orders

    _report(12, "classification tables reproduce the length-4, length-6 and "
                "word-length-5 partitions", body)


def test_c13_compression_confluence():
    def body():
        from test_pairings import make_random_pairing
        rng = random.Random(113)
        for i in range(100):
            al = (AL_ID2, AL_FREE1, AL_FREE2, AL_MIXED)[i % 4]
            p = make_random_pairing(al, rng)
            base = compress(p, random.Random(0))
            for trial in range(100):
                other = compress(p, random.Random(trial + 1))
                assert pairings_isomorphic(base, other)

    _report(13, "compression reaches one primitive pairing under 100 random "
                "deletion orders on 100 random pairings", body)
