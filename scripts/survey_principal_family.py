#!/usr/bin/env python3
"""Survey the principal family x^a on the affine line.

For a single generator whose transported exponent is (a), the b-function
has the closed form prod_{j=1..a} (s + j/a) and the log-canonical
threshold is 1/a.  This script runs the full engine for a = 1..max_a,
checks both facts exactly, and reports timings — a quick end-to-end
smoke test whose expected output is known in closed form.

    python3 scripts/survey_principal_family.py --max-a 16
"""

import argparse
import time
from dataclasses import dataclass
from fractions import Fraction

from toricbsato import UniPoly, bfunction, build_semigroup, lct, monomial_ideal


@dataclass(frozen=True)
class SurveyConfig:
    max_a: int = 8


def run(config: SurveyConfig) -> int:
    line = build_semigroup([[1]])
    mismatches = 0
    print(f"{'a':>3} {'b(s)':<58} {'lct':>6} {'ok':>4} {'secs':>7}")
    for a in range(1, config.max_a + 1):
        ideal = monomial_ideal(line, [(a,)])
        start = time.monotonic()
        res = bfunction(line, ideal)
        elapsed = time.monotonic() - start
        closed_form = UniPoly.from_roots([Fraction(-j, a) for j in range(1, a + 1)])
        ok = res.b == closed_form and lct(line, ideal) == Fraction(1, a) and res.stabilized
        if not ok:
            mismatches += 1
        print(f"{a:>3} {res.b.format('s'):<58} {str(Fraction(1, a)):>6} {'yes' if ok else 'NO':>4} {elapsed:>7.3f}")
    if mismatches:
        print(f"{mismatches} mismatches against the closed form")
    else:
        print("all entries match the closed form")
    return 1 if mismatches else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-a", type=int, default=8, dest="max_a")
    args = parser.parse_args()
    return run(SurveyConfig(max_a=args.max_a))


if __name__ == "__main__":
    raise SystemExit(main())
