#!/usr/bin/env python3
"""Regenerate the short-length classification tables.

Runs the three families over their reference alphabets and prints the
partition with its AGREES/DISAGREES annotation per class.  Exit status is
nonzero when any row fails to agree.
"""

import argparse
import sys
import time

from nanowords import Alphabet
from nanowords.classify import classify

RUNS = [
    ("nanowords4", Alphabet(["a", "b"]), "two fixed points"),
    ("nanowords4",
     Alphabet(["a", "A", "b", "B"], {"a": "A", "A": "a", "b": "B", "B": "b"}),
     "two free orbits"),
    ("nanowords6",
     Alphabet(["a", "A", "b", "B"], {"a": "A", "A": "a", "b": "B", "B": "b"}),
     "two free orbits"),
    ("words5", Alphabet(["a", "b"]), "two fixed points"),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-states", type=int, default=200000)
    parser.add_argument("--family", choices=[r[0] for r in RUNS])
    args = parser.parse_args()

    ok = True
    for kind, alphabet, note in RUNS:
        if args.family and kind != args.family:
            continue
        t0 = time.perf_counter()
        result = classify(kind, alphabet, max_states=args.max_states)
        print(f"== {kind} over {{{' '.join(alphabet.letters)}}} ({note}), "
              f"{time.perf_counter() - t0:.1f}s ==")
        for line in result.format():
            print(line)
        print()
        ok &= result.agrees
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
