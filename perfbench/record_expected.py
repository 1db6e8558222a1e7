#!/usr/bin/env python3
"""Rebuild ``expected.json``: run every operation once and keep its output
only after an independent cross-check.

    python3 perfbench/record_expected.py        # from the repository root

Cross-checks, per entry (recorded in its ``crosscheck`` field):

* every cone: the hand-written facets are primitive, nonnegative on every
  column and each vanishes on a rank ``d - 1`` set of columns, and the
  character-space scan radius of ``oracles.lattice_points`` is large enough;
* ``bfunction``: ``verify_correspondence`` returns PASS, and on two-facet
  cones the smallest root of ``b(-s)`` is the hull-oracle lct and every
  oracle jumping number in ``[lct, lct + 1)`` is a root of ``b(-s)``;
* ``verify``: the run-time check (hull/segment oracle lct, oracle witnesses,
  and on two facets the oracle jumping numbers) passes, and on other cones
  the jumping numbers in ``[lct, lct + 1)`` equal the oracle's box scan;
* ``multiplier`` / ``boundary``: oracle membership agrees on every lattice
  point up to two beyond the largest generator image;
* ``jumping``: every witness certifies its value under the oracle, and every
  oracle jumping number found by a box scan is either reported or listed
  as unresolved.

The script exits non-zero, writing nothing, if any cross-check fails.
"""

from __future__ import annotations

import json
import shutil
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from oracles import f_map, jumps_in_box, lattice_points  # noqa: E402
from run import load_package, new_workdir  # noqa: E402
from workloads import CONES, WORKLOADS, Session, check, digest, jumps_2d, ones, oracle_of  # noqa: E402


def _rank(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def check_cone(name, cone, tb):
    cols = list(zip(*cone.matrix))
    for f in cone.facets:
        vals = [sum(a * b for a, b in zip(f, c)) for c in cols]
        if min(vals) < 0:
            raise SystemExit(f"{name}: facet {f} negative on a column")
        if cone.d > 1 and _rank([c for c, v in zip(cols, vals) if v == 0]) != cone.d - 1:
            raise SystemExit(f"{name}: facet {f} does not support a facet")
    S = tb.build_semigroup([list(r) for r in cone.matrix])
    if set(S.facets) != set(cone.facets):
        raise SystemExit(f"{name}: package facets {S.facets} differ from {cone.facets}")
    # the scan radius covers the region: a wider box finds no further points
    bound = 6
    d = cone.d
    inner = {v for v, _ in lattice_points(cone.facets, bound)}
    r = 4 * bound + 4
    for v in product(range(-r, r + 1), repeat=d):
        q = f_map(cone.facets, v)
        if all(0 <= x <= bound for x in q) and v not in inner:
            raise SystemExit(f"{name}: lattice scan misses {v}")


def crosscheck(op, result, dg, entry, tb, S):
    """Raise SystemExit unless ``entry`` survives the checks listed above."""
    errs, _ = check(op, dg, {op.key: entry})
    if errs:
        raise SystemExit("\n".join(errs))
    cone = CONES[op.cone]
    if op.kind == "bfunction":
        rep = tb.verify_correspondence(S, tb.monomial_ideal(S, list(op.gens)))
        if rep.verdict != "PASS":
            raise SystemExit(f"{op.key}: verify_correspondence says {rep.verdict}")
        if len(cone.facets) == 2:
            oracle = oracle_of(op)
            lct = oracle.threshold(ones(cone))
            roots_neg = {-r for r, _ in result.roots}
            window = [t for t in jumps_2d(op, oracle, lct, lct + 1) if t < lct + 1]
            if not set(window) <= roots_neg:
                raise SystemExit(f"{op.key}: oracle jumping numbers {window} not all roots")
            return "verify PASS; hull-oracle lct and jumping numbers are roots of b(-s)"
        return "verify PASS"
    oracle = oracle_of(op)
    lct = oracle.threshold(ones(cone))
    if op.kind == "verify":
        if len(cone.facets) == 2:
            return "verdict PASS; hull-oracle lct, jumping numbers and witnesses"
        box = jumps_in_box(oracle, cone.facets, lct, lct + 1, 12)
        if [t for t in box if t < lct + 1] != [Fraction(a) for a in entry["jumping_in_window"]]:
            raise SystemExit(f"{op.key}: oracle box scan disagrees on the window")
        return "verdict PASS; segment-oracle lct, witnesses and box-scan jumping numbers"
    if op.kind in ("multiplier", "boundary"):
        kind = "hull" if len(cone.facets) == 2 else "segment"
        return f"{kind}-oracle membership on the scanned lattice points"
    # jumping
    found = jumps_in_box(oracle, cone.facets, lct, op.alpha, 12)
    listed = {a for a, _ in result.jumping} | set(result.unresolved)
    missing = [t for t in found if t not in listed]
    if missing:
        raise SystemExit(f"{op.key}: oracle jumping numbers {missing} neither reported nor unresolved")
    witnessed = [str(a) for a in result.unresolved if a in found]
    note = "oracle-certified witnesses; box scan (F <= 12) finds no unlisted jump"
    if witnessed:
        note += f"; box scan has witnesses for unresolved {', '.join(witnessed)}"
    return note


def main() -> int:
    tb, cli = load_package()
    for name, cone in CONES.items():
        check_cone(name, cone, tb)
    table = {}
    workdir = new_workdir()
    try:
        for wname, workload in WORKLOADS.items():
            session = Session(tb, cli, workload, 0, str(workdir))
            for op in workload.ops:
                if op.principal or op.kind == "guard" or op.key in table:
                    continue
                result = session.run(op)
                dg = digest(op, result)
                if op.kind == "bfunction":
                    entry = {"roots": [[str(r), m] for r, m in result.roots], "stabilized": result.stabilized}
                elif op.kind == "verify":
                    report = json.loads(result[1])
                    entry = {
                        "roots": [[r["value"], r["multiplicity"]] for r in report["bfunction"]["roots"]],
                        "jumping_in_window": report["jumping_in_window"],
                    }
                elif op.kind in ("multiplier", "boundary"):
                    entry = {"generators": [list(g) for g in result.generators], "stabilized": result.stabilized}
                else:
                    entry = {
                        "jumping": [str(a) for a, _ in result.jumping],
                        "unresolved": [str(a) for a in result.unresolved],
                    }
                S = session.semigroups.get(op.cone) or tb.build_semigroup([list(r) for r in CONES[op.cone].matrix])
                entry["crosscheck"] = crosscheck(op, result, dg, entry, tb, S)
                table[op.key] = entry
                print(f"{wname:15s} {op.key}: {entry['crosscheck']}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [f"  {json.dumps(k)}: {json.dumps(table[k])}" for k in sorted(table)]
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
