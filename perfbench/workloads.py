"""Instance families, the operations that drive the package, and the
checks that decide whether each operation's output is correct.

Each workload is a finite list of operations.  One pass runs every
operation once; the seed fixes the order of the operations in each pass
and the presentation the package sees (column order of ``A``, order of
the ideal generators, key order of JSON documents).  None of these change
the mathematical answer, so every pass does the same work whatever the
seed, and the run-to-run spread measures the machine, not the input mix.

References never come from the package at run time: the principal family
has a closed form, two-facet cones and ideals with at most two generators
have the oracles in ``oracles.py``, and everything else is looked up in
``expected.json``, which ``record_expected.py`` writes only after
cross-checking each value.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from oracles import (
    f_map,
    jumps_in_box,
    lattice_points,
    oracle_for,
    poly_from_roots,
    principal_roots,
)

F = Fraction


@dataclass(frozen=True)
class Cone:
    """A semigroup matrix and its facet support vectors, derived by hand
    (``record_expected.py`` checks them without calling the package)."""

    matrix: tuple
    facets: tuple

    @property
    def d(self):
        return len(self.matrix)


CONES = {
    "line": Cone(((1,),), ((1,),)),
    "plane": Cone(((1, 0), (0, 1)), ((1, 0), (0, 1))),
    "cusp": Cone(((1, 1, 1, 1), (0, 1, 2, 3)), ((3, -1), (0, 1))),
    "a5": Cone(((0, 1, 6), (1, 1, 5)), ((1, 0), (-5, 6))),
    "simplicial": Cone(((1, 1, 1, 0), (0, 2, 1, 0), (0, 0, 0, 1)), ((2, -1, 0), (0, 1, 0), (0, 0, 1))),
    "square": Cone(
        ((1, 1, 1, 1), (0, 1, 0, 1), (0, 0, 1, 1)),
        ((1, 0, -1), (1, -1, 0), (0, 1, 0), (0, 0, 1)),
    ),
    "cube4": Cone(
        ((1, 1, 1, 1, 1), (0, 1, 0, 1, 2), (0, 0, 1, 1, 1)),
        ((1, 0, -1), (1, -1, 1), (0, 1, 0), (0, 0, 1)),
    ),
    "hexagon": Cone(
        ((1, 1, 1, 1, 1, 1, 1), (0, 1, 0, -1, -1, 0, 1), (0, 0, 1, 1, 0, -1, -1)),
        ((1, 1, 1), (1, 1, 0), (1, 0, 1), (1, 0, -1), (1, -1, 0), (1, -1, -1)),
    ),
}

# Documents that the CLI must refuse, with the documented exit code:
# 1 = malformed input (a float), 2 = structural (saturated but not normal).
GUARD_DOCS = {
    "float": ({"matrix": [[1.5]], "ideal": {"monomial": [[1]]}}, 1),
    "nonnormal": ({"matrix": [[1, 1, 1], [0, 2, 3]], "ideal": {"monomial": [[1, 2]]}}, 2),
}


@dataclass(frozen=True)
class Op:
    kind: str  # bfunction | verify | guard | multiplier | boundary | jumping
    cone: str = ""
    gens: tuple = ()
    alpha: Optional[Fraction] = None
    mode: str = "relint"
    w: tuple = ()
    guard: str = ""

    @property
    def key(self) -> str:
        if self.kind == "guard":
            return f"guard {self.guard}"
        parts = [self.kind, self.cone, json.dumps([list(g) for g in sorted(self.gens)], separators=(",", ":"))]
        if self.kind in ("multiplier", "boundary"):
            parts += [str(self.alpha), self.mode]
        if self.kind == "boundary":
            parts.append(json.dumps(list(self.w), separators=(",", ":")))
        if self.kind == "jumping":
            parts.append(str(self.alpha))
        return " ".join(parts)

    @property
    def principal(self) -> bool:
        return self.cone == "line"


def _bf(cone, *gens):
    return Op("bfunction", cone, tuple(gens))


def _vf(cone, *gens):
    return Op("verify", cone, tuple(gens))


def _mult(cone, gens, alphas):
    return [Op("multiplier", cone, gens, F(a), mode) for a in alphas for mode in ("relint", "closed")]


def _bnd(cone, gens, w):
    return [Op("boundary", cone, gens, F(1), mode, w) for mode in ("relint", "closed")]


def _jump(cone, gens, window):
    return Op("jumping", cone, gens, F(window))


@dataclass(frozen=True)
class Workload:
    # Each op runs once per pass, so the latency samples form one cluster
    # per op.  The op counts (25, 45, 41) put the median and the tail
    # percentile inside a cluster rather than on the edge between two ops'
    # clusters, where noise would swap which op the percentile reads.
    ops: tuple
    # Passes every run makes even when --seconds has run out; fixes the
    # sample count, and so the tail percentile, independent of speed.
    min_passes: int


CUSP_RUNNING = ((1, 1), (1, 2))

WORKLOADS = {
    # many generators, low-degree b: Buchberger elimination dominates
    "bfunction-elim": Workload(
        ops=(
            _bf("cusp", (1, 0), (1, 1), (1, 2)),
            _bf("cusp", *CUSP_RUNNING),
            _bf("cusp", (1, 1), (1, 3)),
            _bf("cusp", (1, 0), (1, 2)),
            _bf("cusp", (1, 0), (1, 3)),
            _bf("a5", (0, 1), (1, 1)),
            _bf("a5", (1, 1), (6, 5)),
            _bf("a5", (0, 1), (6, 5)),
            _bf("a5", (2, 2), (6, 5)),
            _bf("square", (1, 0, 0), (1, 1, 0), (1, 0, 1)),
            _bf("square", (1, 1, 0), (1, 0, 1), (1, 1, 1)),
            _bf("square", (1, 0, 0), (1, 1, 1)),
            _bf("plane", (2, 0), (1, 1), (0, 2)),
            _bf("plane", (1, 0), (0, 1)),
            _bf("plane", (2, 0), (0, 1)),
            _bf("plane", (3, 0), (0, 1)),
            _bf("plane", (2, 0), (0, 2)),
            _bf("cusp", (1, 0), (1, 1)),
            _bf("a5", (1, 1)),
            _bf("square", (1, 0, 0)),
            _bf("plane", (3, 0), (0, 2)),
            _bf("plane", (1, 0), (0, 3)),
            _bf("cusp", (1, 2)),
            _bf("a5", (0, 1)),
            _bf("square", (1, 1, 0), (1, 0, 1)),
        ),
        min_passes=5,
    ),
    # few generators, high-degree b, through the CLI: rational roots dominate
    "verify-roots": Workload(
        ops=tuple(_vf("line", (a,)) for a in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12))
        + tuple(
            _vf("plane", (a, 0), (0, b))
            for a, b in (
                (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (1, 3), (1, 4), (2, 2), (3, 2),
                (2, 3), (4, 2), (2, 4), (3, 3), (6, 2), (2, 6), (5, 2), (4, 3),
            )
        )
        + (
            _vf("cusp", (2, 2), (1, 3)),
            _vf("cusp", *CUSP_RUNNING),
            _vf("cusp", (1, 0), (1, 3)),
            _vf("cusp", (1, 1), (1, 3)),
            _vf("cusp", (1, 0), (1, 2)),
            _vf("cusp", (1, 0), (1, 1)),
            _vf("a5", (0, 1), (1, 1)),
            _vf("a5", (1, 1), (6, 5)),
            _vf("a5", (1, 1)),
            _vf("a5", (0, 1)),
            _vf("simplicial", (1, 1, 1)),
            _vf("simplicial", (1, 0, 0)),
            _vf("simplicial", (1, 1, 0), (0, 0, 1)),
            _vf("simplicial", (1, 2, 0)),
            _vf("square", (1, 0, 0), (1, 1, 1)),
            Op("guard", guard="float"),
            Op("guard", guard="nonnormal"),
        ),
        min_passes=2,
    ),
    # lattice scans and witness windows: no Groebner work at all
    "ideal-scan": Workload(
        ops=tuple(
            _mult("cusp", CUSP_RUNNING, ("1/2", "2/3", "1", "4/3"))
            + _bnd("cusp", CUSP_RUNNING, (0, -1))
            + _mult("simplicial", ((1, 1, 1),), ("1/2", "1", "3/2"))
            + _mult("simplicial", ((1, 1, 0), (0, 0, 1)), ("1/2", "1"))
            + _bnd("simplicial", ((1, 1, 1),), (0, 0, -1))
            + _mult("square", ((1, 0, 0), (1, 1, 1)), ("1/2", "1", "3/2"))
            + _mult("square", ((1, 1, 0), (1, 0, 1)), ("1/2", "1", "3/2"))
            + _bnd("square", ((1, 0, 0), (1, 1, 1)), (0, 0, -1))
            + [
                _jump("cusp", CUSP_RUNNING, "4/3"),
                _jump("square", ((3, 0, 0), (2, 2, 2)), "11/6"),
                _jump("cube4", ((3, 0, 0), (2, 3, 2)), "14/9"),
                _jump("hexagon", ((3, 0, 0), (2, 2, 0)), "4/3"),
                _jump("hexagon", ((4, 0, 0), (2, 1, 0)), "4/3"),
            ]
        ),
        min_passes=2,
    ),
}


def cones_of(workload: Workload):
    return sorted({op.cone for op in workload.ops if op.cone})


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------


class Session:
    """The package-side state of one run: semigroups built from the seeded
    presentation and, for the CLI, the problem documents on disk."""

    def __init__(self, tb, cli, workload: Workload, seed: int, workdir: str):
        self.tb, self.cli = tb, cli
        self.rng = random.Random(seed)
        self.ops = workload.ops
        self.semigroups = {}
        self.rows = {}
        self.docs = {}
        for name in cones_of(workload):
            cols = list(zip(*CONES[name].matrix))
            self.rng.shuffle(cols)
            rows = [list(r) for r in zip(*cols)]
            if any(op.cone == name and op.kind != "verify" for op in self.ops):
                S = tb.build_semigroup(rows)
                if not tb.is_normal(S):
                    raise RuntimeError(f"cone {name} is not normal")
                self.semigroups[name] = S
            self.rows[name] = rows
        for i, op in enumerate(self.ops):
            if op.kind in ("verify", "guard"):
                path = os.path.join(workdir, f"{i}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(self._document(op))
                self.docs[op] = path

    def _document(self, op: Op) -> str:
        if op.kind == "guard":
            return json.dumps(GUARD_DOCS[op.guard][0])
        gens = [list(g) for g in op.gens]
        self.rng.shuffle(gens)
        items = [("matrix", self.rows[op.cone]), ("ideal", {"monomial": gens})]
        self.rng.shuffle(items)
        return json.dumps(dict(items))

    def pass_order(self):
        order = list(self.ops)
        self.rng.shuffle(order)
        return order

    def gens(self, op: Op):
        gens = [tuple(g) for g in op.gens]
        self.rng.shuffle(gens)
        return gens

    def run(self, op: Op):
        """Execute one operation; returns its raw result."""
        tb = self.tb
        if op.kind in ("verify", "guard"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(["verify", self.docs[op], "--check-normal"])
            return code, out.getvalue()
        S = self.semigroups[op.cone]
        ideal = tb.monomial_ideal(S, self.gens(op))
        if op.kind == "bfunction":
            return tb.bfunction(S, ideal)
        if op.kind == "multiplier":
            return tb.multiplier_ideal(S, ideal, op.alpha, mode=op.mode)
        if op.kind == "boundary":
            return tb.multiplier_ideal_with_boundary(S, ideal, op.w, op.alpha, mode=op.mode)
        if op.kind == "jumping":
            return tb.jumping_coefficients(S, ideal, op.alpha)
        raise ValueError(f"unknown op kind {op.kind!r}")


def digest(op: Op, result):
    """A hashable summary holding everything the checks look at."""
    if op.kind in ("verify", "guard"):
        return result
    if op.kind == "bfunction":
        return (result.b.coeffs, result.roots, result.stabilized)
    if op.kind in ("multiplier", "boundary"):
        return (tuple(result.generators), result.stabilized)
    return (result.lct, result.jumping, result.unresolved)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _roots_ref(op: Op, ref):
    if op.principal:
        return principal_roots(op.gens[0][0])
    return [(F(r), m) for r, m in ref["roots"]]


def oracle_of(op: Op):
    cone = CONES[op.cone]
    return oracle_for(len(cone.facets), [f_map(cone.facets, g) for g in op.gens])


def ones(cone: Cone):
    return (1,) * len(cone.facets)


def _witness_ok(cone: Cone, oracle, alpha, w) -> bool:
    q = f_map(cone.facets, w)
    return all(x >= 0 for x in q) and oracle.threshold(tuple(x + 1 for x in q)) == alpha


def _scan_bound(op: Op, top):
    cone = CONES[op.cone]
    peak = max(max(f_map(cone.facets, g)) for g in op.gens)
    return int(top * peak) + 2


def jumps_2d(op: Op, oracle, lct, top):
    cone = CONES[op.cone]
    return jumps_in_box(oracle, cone.facets, lct, top, _scan_bound(op, top))


def check(op: Op, digest_value, refs: dict):
    """Returns ``(errors, certified)`` for one operation's output."""
    ref = None
    if not op.principal and op.kind != "guard":
        ref = refs.get(op.key)
        if ref is None:
            return [f"no reference for {op.key}"], False
    try:
        if op.kind == "guard":
            return _check_guard(op, digest_value), False
        if op.kind == "verify":
            return _check_verify(op, digest_value, ref)
        if op.kind == "bfunction":
            return _check_bfunction(op, digest_value, ref)
        if op.kind in ("multiplier", "boundary"):
            return _check_multiplier(op, digest_value, ref)
        return _check_jumping(op, digest_value, ref)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{op.key}: malformed output or reference: {exc!r}"], False


def _check_guard(op, result):
    code, stdout = result
    want = GUARD_DOCS[op.guard][1]
    report = json.loads(stdout)
    errs = []
    if code != want:
        errs.append(f"{op.key}: exit code {code}, documented {want}")
    if report.get("error", {}).get("code") != want:
        errs.append(f"{op.key}: error report missing or wrong code")
    return errs


VERDICT_CODES = {"PASS": 0, "INCONCLUSIVE": 3, "FAIL": 4}


def _check_verify(op, result, ref):
    code, stdout = result
    report = json.loads(stdout)
    cone = CONES[op.cone]
    oracle = oracle_of(op)
    errs = []
    verdict = report["verdict"]
    if VERDICT_CODES.get(verdict) != code:
        errs.append(f"{op.key}: exit code {code} does not match verdict {verdict}")
    if verdict != "PASS":
        errs.append(f"{op.key}: verdict {verdict}, expected PASS")
    lct = oracle.threshold(ones(cone))
    if F(report["lct"]) != lct:
        errs.append(f"{op.key}: lct {report['lct']}, reference {lct}")
    got_roots = [(F(r["value"]), r["multiplicity"]) for r in report["roots_negated"]]
    want_roots = sorted((-r, m) for r, m in _roots_ref(op, ref))
    if got_roots != want_roots:
        errs.append(f"{op.key}: roots of b(-s) differ from the reference")
    window = [F(a) for a in report["jumping_in_window"]]
    if op.principal:
        a = op.gens[0][0]
        want_window = [F(j, a) for j in range(1, a + 1)]
    elif len(cone.facets) == 2:
        want_window = [t for t in jumps_2d(op, oracle, lct, lct + 1) if t < lct + 1]
    else:
        want_window = [F(a) for a in ref["jumping_in_window"]]
    if window != want_window:
        errs.append(f"{op.key}: jumping coefficients in [lct, lct+1) differ from the reference")
    for entry in report["jumping"]["jumping"]:
        if not _witness_ok(cone, oracle, F(entry["alpha"]), entry["witness"]):
            errs.append(f"{op.key}: witness {entry['witness']} does not certify {entry['alpha']}")
    if not report["bfunction"]["stabilized"]:
        errs.append(f"{op.key}: b-function not stabilized")
    return errs, verdict == "PASS"


def _check_bfunction(op, result, ref):
    coeffs, roots, stabilized = result
    errs = []
    want = _roots_ref(op, ref)
    if sorted(roots) != sorted(want):
        errs.append(f"{op.key}: roots differ from the reference")
    if list(coeffs) != poly_from_roots(want):
        errs.append(f"{op.key}: b(s) is not the product of the reference roots")
    if stabilized != ref["stabilized"]:
        errs.append(f"{op.key}: stabilized = {stabilized}, reference {ref['stabilized']}")
    cone = CONES[op.cone]
    if len(cone.facets) == 2:
        lct = oracle_of(op).threshold(ones(cone))
        if -max(r for r, _ in want) != lct:
            errs.append(f"{op.key}: smallest root of b(-s) is not the oracle lct {lct}")
    return errs, stabilized


def _check_multiplier(op, result, ref):
    gens, stabilized = result
    cone = CONES[op.cone]
    oracle = oracle_of(op)
    errs = []
    if [list(g) for g in gens] != ref["generators"]:
        errs.append(f"{op.key}: generators differ from the reference")
    if stabilized != ref["stabilized"]:
        errs.append(f"{op.key}: stabilized = {stabilized}, reference {ref['stabilized']}")
    images = [f_map(cone.facets, g) for g in gens]
    if any(min(q) < 0 for q in images):
        errs.append(f"{op.key}: a generator lies outside the semigroup")
    bound = max(max(q) for q in images) + 2
    shift = [F(-x) for x in f_map(cone.facets, op.w)] if op.kind == "boundary" else [1] * len(cone.facets)
    strict = op.mode == "relint"
    for v, q in lattice_points(cone.facets, bound):
        engine = any(all(x >= y for x, y in zip(q, g)) for g in images)
        point = tuple(x + s for x, s in zip(q, shift))
        if engine != oracle.member(point, op.alpha, strict):
            errs.append(f"{op.key}: membership of {v} disagrees with the oracle")
            break
    return errs, stabilized


def _check_jumping(op, result, ref):
    lct, jumping, unresolved = result
    cone = CONES[op.cone]
    oracle = oracle_of(op)
    errs = []
    want_lct = oracle.threshold(ones(cone))
    if lct != want_lct:
        errs.append(f"{op.key}: lct {lct}, oracle {want_lct}")
    alphas = [a for a, _ in jumping]
    if [str(a) for a in alphas] != ref["jumping"]:
        errs.append(f"{op.key}: jumping coefficients differ from the reference")
    if [str(a) for a in unresolved] != ref["unresolved"]:
        errs.append(f"{op.key}: unresolved candidates differ from the reference")
    for a, w in jumping:
        if not _witness_ok(cone, oracle, a, w):
            errs.append(f"{op.key}: witness {w} does not certify {a}")
    if len(cone.facets) == 2 and alphas != jumps_2d(op, oracle, want_lct, op.alpha):
        errs.append(f"{op.key}: jumping coefficients differ from the hull oracle")
    return errs, not unresolved
