"""Command-line batch interface.

One JSON problem document in, one JSON report out (stdout), a short human
summary on stderr.  Rationals cross the boundary as strings like "2/3"
(or plain integers); floats are rejected outright so exactness survives
round trips.  Exit codes: 0 success / PASS, 1 malformed input, 2 a
structural assumption failed (cone not pointed, lattice not saturated,
semigroup not normal or normality unverified), 3 a counted work cap
stopped the run (named in the error object's ``"cap"``) or jumping
candidates were left unsettled (``jumping``, or ``verify`` INCONCLUSIVE),
4 verification FAIL or an internal invariant check failed (an
``AssertionError``; the error object then carries ``"internal": true``).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence

from .bsato import BFunctionResult, bfunction
from .exactnum import IntMatrix, WorkCapExceeded
from .multipoly import UniPoly
from .multiplier import (
    JumpingReport,
    jumping_coefficients,
    lct,
    multiplier_ideal,
    transport,
    transport_polynomial,
    verify_correspondence,
)
from .toric import (
    MonomialIdeal,
    SemigroupData,
    StructuralError,
    build_semigroup,
    is_normal,
    monomial_ideal,
)

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_STRUCTURAL = 2
EXIT_UNCERTIFIED = 3
EXIT_FAIL = 4

_RATIONAL_RE = re.compile(r"[+-]?\d+(/[1-9]\d*)?")

_POLY_NOTE = (
    "transported generators span the image ideal; b-functions of "
    "non-monomial ideals are out of scope here - feed the transported "
    "generators to a D-module system"
)


class DocumentError(ValueError):
    """Problem document malformed (schema, floats, missing fields)."""


# ---------------------------------------------------------------------------
# document parsing
# ---------------------------------------------------------------------------


def _reject_float(_s: str):
    raise DocumentError("floats are not accepted; use rational strings like \"2/3\"")


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL_RE.fullmatch(value):
        return Fraction(value)
    raise DocumentError(f"expected a rational like \"2/3\", got {value!r}")


def _parse_option(name: str, value):
    """A document option, checked once, when the document is read."""
    if name in ("alpha", "max"):
        return parse_rational(value)
    if name == "mode" and value not in ("relint", "closed"):
        raise DocumentError("option 'mode' must be 'relint' or 'closed'")
    if name == "assume_normal" and not isinstance(value, bool):
        raise DocumentError("option 'assume_normal' must be true or false")
    return value


def _int_list(value, what: str) -> list[int]:
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise DocumentError(f"{what} must be a list of integers")
    return list(value)


class Document:
    """Parsed problem document: matrix, optional ideal, options."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise DocumentError("document must be a JSON object")
        unknown = set(raw) - {"matrix", "ideal", "options"}
        if unknown:
            raise DocumentError(f"unknown document fields: {sorted(unknown)}")
        if "matrix" not in raw:
            raise DocumentError("document needs a \"matrix\"")
        rows = raw["matrix"]
        if not isinstance(rows, list) or not rows:
            raise DocumentError("matrix must be a nonempty list of rows")
        self.matrix_rows = [_int_list(r, "matrix row") for r in rows]
        if len({len(r) for r in self.matrix_rows}) != 1:
            raise DocumentError("matrix rows must have equal length")
        self.monomial: Optional[list[list[int]]] = None
        self.polynomial = None
        ideal = raw.get("ideal")
        if ideal is not None:
            if not isinstance(ideal, dict) or len(ideal) != 1:
                raise DocumentError("ideal must be {\"monomial\": ...} or {\"polynomial\": ...}")
            kind, body = next(iter(ideal.items()))
            if kind == "monomial":
                if not isinstance(body, list) or not body:
                    raise DocumentError("monomial ideal needs a nonempty exponent list")
                self.monomial = [_int_list(v, "exponent") for v in body]
            elif kind == "polynomial":
                self.polynomial = self._parse_polynomial(body)
            else:
                raise DocumentError(f"unknown ideal kind {kind!r}")
        opts = raw.get("options", {})
        if not isinstance(opts, dict):
            raise DocumentError("options must be an object")
        unknown = set(opts) - {"alpha", "max", "mode", "assume_normal"}
        if unknown:
            raise DocumentError(f"unknown document options: {sorted(unknown)}")
        self.options = {name: _parse_option(name, value) for name, value in opts.items()}

    @staticmethod
    def _parse_polynomial(body) -> list[list[tuple[Fraction, tuple[int, ...]]]]:
        if not isinstance(body, list) or not body:
            raise DocumentError("polynomial ideal needs a nonempty generator list")
        gens = []
        for terms in body:
            if not isinstance(terms, list) or not terms:
                raise DocumentError("each polynomial generator is a nonempty term list")
            parsed = []
            for term in terms:
                if not isinstance(term, dict) or set(term) != {"coeff", "exp"}:
                    raise DocumentError("each term is {\"coeff\": ..., \"exp\": [...]}")
                parsed.append(
                    (parse_rational(term["coeff"]), tuple(_int_list(term["exp"], "exponent")))
                )
            gens.append(parsed)
        return gens


def load_document(path: str) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(
                fh,
                parse_float=_reject_float,
                parse_constant=_reject_float,
            )
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError("document nested too deeply") from exc
    return Document(raw)


# ---------------------------------------------------------------------------
# report encoding
# ---------------------------------------------------------------------------


def frac_str(x: Optional[Fraction]) -> str:
    """A rational as ``"p/q"`` (or an integer); ``None``, an unbounded
    threshold, as ``"infinity"``."""
    return "infinity" if x is None else str(x)


def _unipoly_json(p: UniPoly) -> dict:
    return {
        "coefficients": [frac_str(c) for c in p.coeffs],
        "text": p.format("s"),
    }


def _roots_json(roots) -> list:
    return [{"value": frac_str(r), "multiplicity": m} for r, m in roots]


def _bfunction_json(res: BFunctionResult) -> dict:
    # each distinct polynomial of the report is encoded once
    encoded: dict[UniPoly, dict] = {}
    for p in (res.b, res.unfactored_remainder, *(p for _, p in res.truncation)):
        if p not in encoded:
            encoded[p] = _unipoly_json(p)
    return {
        "b": encoded[res.b],
        "roots": _roots_json(res.roots),
        "roots_negated": _roots_json(sorted(((-r, m) for r, m in res.roots))),
        "unfactored_remainder": encoded[res.unfactored_remainder],
        "box_used": res.box_used,
        "stabilized": res.stabilized,
        "generator_count": res.generator_count,
        "truncation": [{"box": B, "polynomial": encoded[p]} for B, p in res.truncation],
    }


def _jumping_json(jr: JumpingReport) -> dict:
    return {
        "lct": frac_str(jr.lct),
        "jumping": [
            {"alpha": frac_str(a), "witness": list(v)} for a, v in jr.jumping
        ],
        "window_max": frac_str(jr.window_max),
        "search_mode": jr.search_mode,
        "unresolved": [frac_str(a) for a in jr.unresolved],
        "bfunction_check": jr.bfunction_check,
    }


def _emit(report: dict, summary: str, code: int) -> int:
    print(json.dumps(report, indent=2, sort_keys=True))
    print(summary, file=sys.stderr)
    return code


def _error(command: str, code: int, message: str, extra: Optional[dict] = None) -> int:
    report = {"command": command, "error": {"code": code, "message": message}}
    if extra:
        report["error"].update(extra)
    return _emit(report, f"{command}: error: {message}", code)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

_NEEDS_NORMAL = {"transport", "bfunction", "lct", "multiplier", "jumping", "verify"}


def _require_monomial(doc: Document, command: str, S: SemigroupData) -> MonomialIdeal:
    if doc.monomial is None:
        if doc.polynomial is not None:
            raise DocumentError(
                f"{command} needs a monomial ideal; {_POLY_NOTE}"
            )
        raise DocumentError(f"{command} needs an \"ideal\" entry")
    return monomial_ideal(S, doc.monomial)


def _normality_gate(doc: Document, args, S: SemigroupData) -> Optional[tuple[int, str, dict]]:
    """Return (code, message, extra) when the command may not proceed."""
    if not S.saturated:
        return (EXIT_STRUCTURAL, "ZA != Z^d", {})
    if args.check_normal:
        if not is_normal(S):
            return (
                EXIT_STRUCTURAL,
                "semigroup is not normal",
                {"witness": list(S.normality_witness)},
            )
        return None
    if args.assume_normal or doc.options.get("assume_normal", False):
        return None
    return (
        EXIT_STRUCTURAL,
        "normality unverified: pass --check-normal to verify or --assume-normal to proceed",
        {},
    )


def run(command: str, doc: Document, args) -> int:
    """Execute one command against a parsed document; returns the exit code."""
    S = build_semigroup(IntMatrix(doc.matrix_rows))

    if command == "check":
        report = {
            "command": "check",
            "matrix": doc.matrix_rows,
            "pointed": True,
            "saturated": S.saturated,
            "facets": [list(f) for f in S.facets],
            "normal": None,
            "normality_witness": None,
        }
        code = EXIT_OK
        summary = "check: pointed, " + ("saturated" if S.saturated else "NOT saturated")
        if not S.saturated:
            code = EXIT_STRUCTURAL
        if args.check_normal:
            ok = is_normal(S)
            report["normal"] = ok
            if not ok:
                report["normality_witness"] = list(S.normality_witness)
                code = EXIT_STRUCTURAL
                summary += f", NOT normal (witness {tuple(S.normality_witness)})"
            else:
                summary += ", normal"
        return _emit(report, summary, code)

    if command == "facets":
        report = {
            "command": "facets",
            "matrix": doc.matrix_rows,
            "facets": [list(f) for f in S.facets],
        }
        return _emit(report, f"facets: {[tuple(f) for f in S.facets]}", EXIT_OK)

    if command in _NEEDS_NORMAL:
        gate = _normality_gate(doc, args, S)
        if gate is not None:
            code, message, extra = gate
            return _error(command, code, message, extra)

    if command == "transport":
        if doc.polynomial is not None:
            mapped = transport_polynomial(S, doc.polynomial)
            report = {
                "command": "transport",
                "kind": "polynomial",
                "term_generators": [
                    [{"coeff": frac_str(c), "exp": list(e)} for c, e in terms]
                    for terms in mapped
                ],
                "note": _POLY_NOTE,
            }
            return _emit(report, f"transport: {len(mapped)} polynomial generators", EXIT_OK)
        ideal = _require_monomial(doc, command, S)
        gens = transport(S, ideal)
        report = {
            "command": "transport",
            "kind": "monomial",
            "generators": [list(q) for q in gens],
        }
        return _emit(report, f"transport: {[tuple(q) for q in gens]}", EXIT_OK)

    ideal = _require_monomial(doc, command, S)

    if command == "bfunction":
        res = bfunction(S, ideal)
        report = {"command": "bfunction", **_bfunction_json(res)}
        return _emit(report, f"bfunction: b(s) = {res.b.format('s')} [certified]", EXIT_OK)

    if command == "lct":
        value = lct(S, ideal)
        report = {"command": "lct", "lct": frac_str(value)}
        return _emit(report, f"lct: {frac_str(value)}", EXIT_OK)

    if command == "multiplier":
        alpha = doc.options.get("alpha") if args.alpha is None else parse_rational(args.alpha)
        if alpha is None:
            raise DocumentError("multiplier needs --alpha (or options.alpha)")
        mode = args.mode or doc.options.get("mode", "relint")
        res = multiplier_ideal(S, ideal, alpha, mode=mode)
        report = {
            "command": "multiplier",
            "alpha": frac_str(res.alpha),
            "mode": res.mode,
            "generators": [list(v) for v in res.generators],
            "box_used": list(res.box_used),
            "stabilized": res.stabilized,
        }
        return _emit(
            report,
            f"multiplier(alpha={frac_str(res.alpha)}, {res.mode}): "
            f"{[tuple(v) for v in res.generators]}",
            EXIT_OK,
        )

    if command == "jumping":
        window = doc.options.get("max") if args.max is None else parse_rational(args.max)
        if window is None:
            raise DocumentError("jumping needs --max (or options.max)")
        jr = jumping_coefficients(S, ideal, window)
        report = {"command": "jumping", **_jumping_json(jr)}
        code = EXIT_OK if not jr.unresolved else EXIT_UNCERTIFIED
        vals = ", ".join(frac_str(a) for a, _ in jr.jumping)
        return _emit(report, f"jumping up to {frac_str(window)}: {{{vals}}}", code)

    if command == "verify":
        cr = verify_correspondence(S, ideal)
        report = {
            "command": "verify",
            "verdict": cr.verdict,
            "lct": frac_str(cr.lct),
            "bfunction": _bfunction_json(cr.bfunction_result),
            "jumping": None if cr.jumping_report is None else _jumping_json(cr.jumping_report),
            "roots_negated": _roots_json(cr.roots_negated),
            "jumping_in_window": [frac_str(a) for a in cr.jumping_in_window],
            "failures": list(cr.failures),
            "notes": list(cr.notes),
        }
        code = {
            "PASS": EXIT_OK,
            "INCONCLUSIVE": EXIT_UNCERTIFIED,
            "FAIL": EXIT_FAIL,
        }[cr.verdict]
        return _emit(report, f"verify: {cr.verdict} (lct {frac_str(cr.lct)})", code)

    raise DocumentError(f"unknown command {command!r}")


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

COMMANDS = (
    "check",
    "facets",
    "transport",
    "bfunction",
    "lct",
    "multiplier",
    "jumping",
    "verify",
)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="toricbsato",
        description=(
            "Exact b-functions, multiplier ideals and jumping coefficients "
            "for monomial ideals on normal toric varieties."
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("document", help="problem document (JSON)")
    parser.add_argument("--alpha", help="parameter value, e.g. 2/3")
    parser.add_argument("--max", help="upper end of the jumping window, e.g. 4/3")
    parser.add_argument("--mode", choices=("relint", "closed"))
    parser.add_argument(
        "--assume-normal",
        action="store_true",
        help="skip the normality check (results are conditional on normality)",
    )
    parser.add_argument(
        "--check-normal",
        action="store_true",
        help="verify normality before running (may be slow for large generators)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args.command, load_document(args.document), args)
    except StructuralError as exc:
        return _error(args.command, EXIT_STRUCTURAL, str(exc))
    except ValueError as exc:  # DocumentError, undecodable bytes, bad values
        return _error(args.command, EXIT_MALFORMED, str(exc))
    except WorkCapExceeded as exc:
        return _error(args.command, EXIT_UNCERTIFIED, str(exc), {"cap": exc.cap})
    except AssertionError as exc:  # an invariant check of the engine failed
        return _error(
            args.command, EXIT_FAIL, f"internal invariant failed: {exc}", {"internal": True}
        )


if __name__ == "__main__":
    sys.exit(main())
