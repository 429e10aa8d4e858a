#!/usr/bin/env python3
"""Ball-growth comparison: a base group against its double.

Covers the shipped oracle classes (free, free abelian, doubled infinite
cyclic, finite realizations) and prints sizes plus the heuristic classifier
verdicts side by side.

    python scripts/growth_experiment.py [--radius N]
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from weakcomm.decision import ball_sizes, growth_classifier, oracle_for_presentation
from weakcomm.presentations import (AllElements, LengthBound,
                                    parse_presentation, sidki_double)
from weakcomm.words import Word

CASES = [
    ("Z", "< a | >", LengthBound(1)),
    ("C2", "< a | a^2 >", AllElements()),
    ("S3", "< a, b | a^2, b^2, (a*b)^3 >", AllElements()),
]


def measure(pres, radius):
    oracle, kind = oracle_for_presentation(pres)
    gens = [Word([g]) for g in pres.generators]
    sizes = ball_sizes(gens, oracle, radius)
    return kind, sizes, growth_classifier(sizes).label()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--radius", type=int, default=8)
    args = parser.parse_args()
    for name, text, policy in CASES:
        base = parse_presentation(text)
        kind, sizes, label = measure(base, args.radius)
        print(f"{name:8s} [{kind}] {label}")
        print(f"         {sizes}")
        doubled = sidki_double(base, policy)
        kind, sizes, label = measure(doubled, args.radius)
        print(f"X({name:2s})   [{kind}] {label}")
        print(f"         {sizes}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
