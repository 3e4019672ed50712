"""The four benchmark workloads: generated inputs, timed ops and output checks.

A workload's ``build`` returns its op list for one seed.  Each ``Op`` has

* ``run()``    -- the timed unit of work; it reaches the program through
                  module attributes at call time, so a tracer's patches apply;
* ``check(r)`` -- the output check, run outside the timed and traced regions;
* ``text(r)``  -- canonical text of the result, hashed into the run's digest
                  so byte-identity can be compared across commits.

``P`` is a namespace of freshly imported package modules (see run.py).
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable

# involuted alphabets as (letters, tau)
MIXED = (("a", "A", "c"), {"a": "A", "A": "a", "c": "c"})          # free orbit + fixed point
FREE2 = (("a", "A", "b", "B"), {"a": "A", "A": "a", "b": "B", "B": "b"})  # two free orbits
FIXED2 = (("a", "b"), None)                                          # two fixed points
FREE1E = (("e", "E"), {"e": "E", "E": "e"})                          # the macro-derivation alphabet


@dataclass
class Op:
    label: str
    size: int                       # letters of the input, for the size histogram
    run: Callable[[], object]
    check: Callable[[object], bool]
    text: Callable[[object], str]


def alphabet(P, spec):
    letters, tau = spec
    return P.words.Alphabet(list(letters), tau)


def random_nanoword(P, al, n_letters: int, rng: random.Random):
    """Uniform random pairing of 2n positions with uniform random projections."""
    positions = list(range(2 * n_letters))
    rng.shuffle(positions)
    word = [None] * (2 * n_letters)
    proj = {}
    for k in range(n_letters):
        name = str(k + 1)
        word[positions[2 * k]] = word[positions[2 * k + 1]] = name
        proj[name] = rng.choice(al.letters)
    return P.words.Nanoword(al, word, proj).canonical()


def relabel(P, w, sigma: dict):
    """The nanoword with every projection passed through ``sigma``."""
    return P.words.Nanoword(w.alphabet, w.word, {x: sigma[a] for x, a in w.proj.items()})


def automorphisms(al) -> list[dict]:
    """Letter permutations that commute with tau."""
    out = []
    for perm in itertools.permutations(al.letters):
        sigma = dict(zip(al.letters, perm))
        if all(sigma[al.tau(a)] == al.tau(sigma[a]) for a in al.letters):
            out.append(sigma)
    return out


# ---------------------------------------------------------------------------
# fingerprint-sweep

# Nabla's cost at one length varies tenfold between random Gauss words (14
# letters: 0.3 s to 5.4 s), so a seed-drawn word set would make the pass time
# a property of the seed.  The words are therefore drawn once from this fixed
# seed, and the run seed applies a random alphabet automorphism to each word,
# which changes the word but not the shape of the computation.  The order is
# a fixed shuffle: fixed, because it decides when the collector runs and so
# the peak memory; shuffled, so that ops of similar cost are spread over the
# pass and a slow spell of the host does not hit all of them.
CATALOGUE_SEED = 20050314
# words per length: the counts put the median op inside the 7-letter block
# and the tail op among the 10- and 11-letter words, where many ops cost about
# the same; a word of 12-14 letters costs 0.5-3 s, so each of those lengths is
# drawn over one alphabet only
SWEEP = ((MIXED, {**{n: 7 if n <= 9 else 4 for n in range(4, 12)}, 12: 1, 14: 1}),
         (FREE2, {**{n: 7 if n <= 9 else 4 for n in range(4, 12)}, 13: 1}))
TINY_SWEEP_COUNTS = {2: 1, 3: 1, 4: 1}


def build_fingerprint_sweep(P, seed: int, workdir: str, tiny: bool = False) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for spec, counts in SWEEP:
        al = alphabet(P, spec)
        autos = automorphisms(al)
        for n, count in (TINY_SWEEP_COUNTS if tiny else counts).items():
            cat = random.Random(f"{CATALOGUE_SEED}:{len(al.letters)}:{n}")
            for _ in range(count):
                w = relabel(P, random_nanoword(P, al, n, cat), rng.choice(autos))
                ops.append(_fingerprint_op(P, w, f"{seed}:{len(ops)}"))
    random.Random(f"{CATALOGUE_SEED}:order").shuffle(ops)
    return ops


def _fingerprint_op(P, w, move_seed: str) -> Op:
    al = w.alphabet
    data = P.moves.HomotopyData(al)

    def check(fp) -> bool:
        # one random move, a deletion when there is one (a shorter word keeps
        # the check cheap); a doubled letter is inserted only when no move
        # keeps the length
        options = P.moves.enumerate_moves(w, data, max_length=len(w.word), use_macros=True)
        options = [o for o in options if len(o[1].word) < len(w.word)] or options
        if not options:
            options = P.moves.enumerate_moves(w, data, max_length=len(w.word) + 2)
        _, moved = options[random.Random(move_seed).randrange(len(options))]
        if fp.first_difference(P.fingerprint.compute_fingerprint(moved)) is not None:
            return False
        if not all(P.lambdainv.lambda_checks(w).values()):
            return False
        colorings = fp.fields["colorings"][0]
        return all(P.matrices.count_colorings_prime(w, spec) == colorings[spec.key()]
                   for spec in P.fingerprint.default_coloring_specs(al))

    return Op(label=f"{len(al.letters)}:{len(w.letters)}", size=len(w.letters),
              run=lambda: P.fingerprint.compute_fingerprint(w),
              check=check, text=lambda fp: repr(fp.key()))


def warm_fingerprint_sweep(P, workdir: str):
    for spec in (MIXED, FREE2):
        al = alphabet(P, spec)
        P.fingerprint.compute_fingerprint(random_nanoword(P, al, 2, random.Random(0)))


# ---------------------------------------------------------------------------
# search-primitive: the cases of test_macros_are_derivable_from_primitive_moves

SEARCH_CASES = (
    ("ABCABC", "BAACCB", {"A": "e", "B": "E", "C": "e"}),
    ("ABCACB", "BAACBC", {"A": "E", "B": "E", "C": "e"}),
    ("ABACCB", "BACABC", {"A": "e", "B": "E", "C": "E"}),
    ("ABAB", None, {"A": "e", "B": "E"}),   # contraction of the interlaced pair
)


def build_search_primitive(P, seed: int, workdir: str, tiny: bool = False) -> list[Op]:
    """Fixed cases in a fixed order: the seed has nothing to vary."""
    al = alphabet(P, FREE1E)
    data = P.moves.HomotopyData(al)
    cases = SEARCH_CASES[:1] if tiny else SEARCH_CASES
    return [_search_op(P, al, data, *case) for case in cases]


def _search_op(P, al, data, lhs, rhs, proj) -> Op:
    w1 = P.words.nanoword_from_pattern(al, lhs, proj)
    w2 = None if rhs is None else P.words.nanoword_from_pattern(al, rhs, proj)

    def run():
        if w2 is None:
            cert = P.moves.search_contractible(w1, data, 12, 300000, use_macros=False)
        else:
            cert = P.moves.search_homotopic(w1, w2, data, 14, 300000, use_macros=False)
        return cert, cert is not None and P.moves.verify_certificate(cert, data)

    def check(result) -> bool:
        cert, verified = result
        return verified and P.moves.verify_certificate(cert, data)

    def text(result) -> str:
        return f"{lhs} -> {rhs or 'empty'}\n{result[0].format()}"

    return Op(label=lhs, size=len(w1.letters), run=run, check=check, text=text)


def warm_search_primitive(P, workdir: str):
    al = alphabet(P, FREE1E)
    w = P.words.nanoword_from_pattern(al, "ABAB", {"A": "e", "B": "E"})
    P.moves.search_contractible(w, P.moves.HomotopyData(al), 8, 1000)


# ---------------------------------------------------------------------------
# classify-families: the runs of scripts/classification_tables.py

CLASSIFY_RUNS = (("nanowords4", FIXED2), ("nanowords4", FREE2),
                 ("nanowords6", FREE2), ("words5", FIXED2))


def build_classify_families(P, seed: int, workdir: str, tiny: bool = False) -> list[Op]:
    """Fixed runs in a fixed order: the seed has nothing to vary."""
    runs = CLASSIFY_RUNS[:2] if tiny else CLASSIFY_RUNS
    return [_classify_op(P, kind, alphabet(P, spec)) for kind, spec in runs]


def _classify_op(P, kind, al) -> Op:
    def check(result) -> bool:
        if not result.agrees:
            return False
        if kind == "nanowords6":
            merged = [r for r in result.rows if r.label[0] == "w45"]
            return len(merged) == 4 and all(len(r.members) == 2 for r in merged)
        if kind == "words5":
            return sum(len(r.members) for r in result.rows if r.label != ("zero",)) == 12
        return True

    return Op(label=f"{kind}/{len(al.letters)}", size=len(al.letters),
              run=lambda: P.classify.classify(kind, al, max_states=200000),
              check=check, text=lambda result: "\n".join(result.format()))


def warm_classify_families(P, workdir: str):
    P.classify.classify("nanowords4", alphabet(P, FIXED2))


# ---------------------------------------------------------------------------
# homotopic-pairs: the CLI decision on generated record files

PAIRS = 60
TINY_PAIRS = 3


def _record(w) -> str:
    al = w.alphabet
    tau = " ".join(f"{a}<->{al.tau(a)}" for a in al.letters)
    word = " ".join(w.word)
    proj = " ".join(f"{x}={w.proj[x]}" for x in w.letters)
    return f"alphabet: {' '.join(al.letters)}\ninvolution: {tau}\nword: {word}\nproj: {proj}\n"


def build_homotopic_pairs(P, seed: int, workdir: str, tiny: bool = False) -> list[Op]:
    """Two thirds: a word and its image under two random macro moves; one third:
    two independent words that gamma separates.

    As in fingerprint-sweep, the pairs come from the catalogue seed and the run
    seed applies one alphabet automorphism to both words of a pair, which keeps
    the expected verdict.
    """
    cat = random.Random(f"{CATALOGUE_SEED}:pairs")
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)
    ops = []
    for i in range(TINY_PAIRS if tiny else PAIRS):
        al = alphabet(P, (MIXED, FREE2)[i % 2])
        data = P.moves.HomotopyData(al)
        sizes = (1, 2) if tiny else (2, 5)
        w1 = random_nanoword(P, al, cat.randint(*sizes), cat)
        perturbed = i % 3 != 2
        if perturbed:
            w2 = w1
            for _ in range(2):
                options = P.moves.enumerate_moves(w2, data, max_length=len(w1.word) + 4,
                                                  insert_values=(cat.choice(al.letters),),
                                                  use_macros=True)
                w2 = options[cat.randrange(len(options))][1]
        else:
            # redrawn until gamma, the weakest field, separates the pair: this
            # third measures the separating path, not a search between two
            # contractible words
            gamma1 = P.interlacement.gamma(w1).sort_key()
            while True:
                w2 = random_nanoword(P, al, cat.randint(*sizes), cat)
                if P.interlacement.gamma(w2).sort_key() != gamma1:
                    break
        sigma = rng.choice(automorphisms(al))
        w1, w2 = relabel(P, w1, sigma), relabel(P, w2, sigma)
        paths = []
        for side, w in (("a", w1), ("b", w2)):
            path = os.path.join(workdir, f"pair{i:03d}{side}.rec")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_record(w))
            paths.append(path)
        ops.append(_homotopic_op(P, data, w1, w2, perturbed, *paths))
    return ops


def _homotopic_op(P, data, w1, w2, perturbed, path1, path2) -> Op:
    argv = ["--format", "json-lines", "homotopic", path1, path2]

    def run():
        out = io.StringIO()
        with redirect_stdout(out):
            code = P.cli.main(argv)
        return code, out.getvalue()

    def check(result) -> bool:
        code, out = result
        report = json.loads(out.splitlines()[-1])
        verdict = report["verdict"]
        if code != 0 or verdict not in ("HOMOTOPIC", "NON-HOMOTOPIC"):
            return False
        if verdict == "NON-HOMOTOPIC":
            return not perturbed
        moves = tuple(P.moves.parse_move(m) for m in report["moves"])
        cert = P.moves.Certificate(w1.canonical(), w2.canonical(), moves)
        return P.moves.verify_certificate(cert, data)

    return Op(label="perturbed" if perturbed else "independent",
              size=max(len(w1.letters), len(w2.letters)),
              run=run, check=check, text=lambda result: result[1])


def warm_homotopic_pairs(P, workdir: str):
    al = alphabet(P, MIXED)
    path = os.path.join(workdir, "warm.rec")
    os.makedirs(workdir, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_record(random_nanoword(P, al, 2, random.Random(0))))
    with redirect_stdout(io.StringIO()):
        P.cli.main(["--format", "json-lines", "homotopic", path, path])


# name -> (build, warm-up, nominal seconds per pass).  The nominal times were
# measured on a 2-vCPU VM when the benchmark was defined; a run makes as many
# passes as fit in --seconds at these times, so both sides of a comparison
# measure the same work.
WORKLOADS = {
    "fingerprint-sweep": (build_fingerprint_sweep, warm_fingerprint_sweep, 8.0),
    "search-primitive": (build_search_primitive, warm_search_primitive, 20.0),
    "classify-families": (build_classify_families, warm_classify_families, 4.0),
    "homotopic-pairs": (build_homotopic_pairs, warm_homotopic_pairs, 2.0),
}
