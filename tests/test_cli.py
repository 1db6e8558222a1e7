"""End-to-end command-line tests: in-process main(), JSON documents."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricbsato.cli import COMMANDS, build_parser, main

F = Fraction
CUSP = [[1, 1, 1, 1], [0, 1, 2, 3]]
CUSP_DOC = {"matrix": CUSP, "ideal": {"monomial": [[1, 1], [1, 2]]}}


def write_doc(tmp_path, obj, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def invoke(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


# --- structural commands ----------------------------------------------------


def test_facets_identity(tmp_path, capsys):
    doc = write_doc(tmp_path, {"matrix": [[1, 0], [0, 1]]})
    code, report, _ = invoke(capsys, ["facets", doc])
    assert code == 0
    assert report["facets"] == [[1, 0], [0, 1]]


def test_check_normal_counterexample(tmp_path, capsys):
    doc = write_doc(tmp_path, {"matrix": [[1, 1], [0, 3]]})
    code, report, err = invoke(capsys, ["check", doc, "--check-normal"])
    assert code == 2
    assert report["saturated"] is False
    assert report["normal"] is False
    assert report["normality_witness"] == [1, 1]
    assert "NOT normal" in err


def test_check_running_example(tmp_path, capsys):
    doc = write_doc(tmp_path, {"matrix": CUSP})
    code, report, _ = invoke(capsys, ["check", doc, "--check-normal"])
    assert code == 0
    assert report["saturated"] is True and report["normal"] is True
    assert report["facets"] == [[3, -1], [0, 1]]
    # without the flag normality is left undetermined
    code, report, _ = invoke(capsys, ["check", doc])
    assert code == 0 and report["normal"] is None


def test_not_pointed_is_structural(tmp_path, capsys):
    doc = write_doc(tmp_path, {"matrix": [[1, -1]]})
    code, report, _ = invoke(capsys, ["check", doc])
    assert code == 2
    assert "strongly convex" in report["error"]["message"]


# --- the normality gate -----------------------------------------------------


def test_gate_refuses_unverified(tmp_path, capsys):
    doc = write_doc(tmp_path, CUSP_DOC)
    code, report, _ = invoke(capsys, ["lct", doc])
    assert code == 2
    assert "normality unverified" in report["error"]["message"]


def test_gate_refuses_unsaturated_even_when_assumed(tmp_path, capsys):
    doc = write_doc(
        tmp_path, {"matrix": [[1, 1], [0, 3]], "ideal": {"monomial": [[1, 0]]}}
    )
    code, report, _ = invoke(capsys, ["lct", doc, "--assume-normal"])
    assert code == 2
    assert report["error"]["message"] == "ZA != Z^d"


def test_gate_check_normal_witness(tmp_path, capsys):
    doc = write_doc(
        tmp_path,
        {"matrix": [[1, 1, 1], [0, 1, 3]], "ideal": {"monomial": [[1, 0]]}},
    )
    code, report, _ = invoke(capsys, ["lct", doc, "--check-normal"])
    assert code == 2
    assert report["error"]["witness"] == [1, 2]


# --- computations on the running example ------------------------------------


def test_verify_running_example(tmp_path, capsys):
    doc = write_doc(tmp_path, CUSP_DOC)
    code, report, err = invoke(capsys, ["verify", doc, "--check-normal"])
    assert code == 0
    assert report["verdict"] == "PASS"
    assert report["lct"] == "2/3"
    assert report["bfunction"]["b"]["text"] == "s^4 + 4*s^3 + 53/9*s^2 + 34/9*s + 8/9"
    assert report["jumping_in_window"] == ["2/3", "1"]
    assert [r["value"] for r in report["roots_negated"]] == ["2/3", "1", "4/3"]
    assert "PASS" in err


def test_bfunction_report(tmp_path, capsys):
    doc = write_doc(tmp_path, CUSP_DOC)
    code, report, _ = invoke(capsys, ["bfunction", doc, "--assume-normal"])
    assert code == 0
    assert report["stabilized"] is True
    assert report["box_used"] == 2
    assert report["b"]["coefficients"] == ["8/9", "34/9", "53/9", "4", "1"]
    # two generators: the proved last box is the one truncation entry
    assert report["truncation"] == [{"box": 2, "polynomial": report["b"]}]


def test_bfunction_cap_hit(tmp_path, capsys, monkeypatch):
    # the cap that ends a run is the counted one: the proved last box 2 of
    # the two generators lists 4 c-vectors
    monkeypatch.setattr("toricbsato.bsato.GENERATORS_CAP", 1)
    doc = write_doc(tmp_path, CUSP_DOC)
    code, report, _ = invoke(capsys, ["bfunction", doc, "--assume-normal"])
    assert code == 3
    assert report["error"]["cap"] == "GENERATORS_CAP"
    assert "GENERATORS_CAP exceeded: 4 > 1" in report["error"]["message"]


def test_bfunction_box_cap_below_default_is_honoured(tmp_path, capsys, monkeypatch):
    # three generators list their proved last box B* = 5, 90 c-vectors,
    # counted before any is listed, so a cap of 89 ends the run
    monkeypatch.setattr("toricbsato.bsato.GENERATORS_CAP", 89)
    doc = write_doc(tmp_path, {**CUSP_DOC, "ideal": {"monomial": [[1, 0], [1, 1], [1, 2]]}})
    code, report, _ = invoke(capsys, ["bfunction", doc, "--assume-normal"])
    assert code == 3
    assert report["error"]["cap"] == "GENERATORS_CAP"
    assert "GENERATORS_CAP exceeded: 90 > 89" in report["error"]["message"]


def test_a_large_last_box_exits_at_the_generators_cap_at_once(tmp_path, capsys):
    # <x^3000, xy, y^3000>: the proved last box 6001 holds 108 054 006
    # c-vectors, a count read off in closed form before any is listed
    doc = write_doc(tmp_path, {**CUSP_DOC, "matrix": [[1, 0], [0, 1]],
                               "ideal": {"monomial": [[3000, 0], [1, 1], [0, 3000]]}})
    start = time.perf_counter()
    code, report, _ = invoke(capsys, ["bfunction", doc, "--assume-normal"])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert report["error"]["message"] == "GENERATORS_CAP exceeded: 108054006 > 5000"


def test_there_is_no_box_cap(tmp_path, capsys):
    # the one box is proved, never set: the flag is a usage error and the
    # option an unknown key
    doc = write_doc(tmp_path, CUSP_DOC)
    with pytest.raises(SystemExit) as exc:
        main(["bfunction", doc, "--assume-normal", "--box-cap", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    doc = write_doc(tmp_path, {**CUSP_DOC, "options": {"box_cap": 2}})
    code, report, _ = invoke(capsys, ["bfunction", doc, "--assume-normal"])
    assert code == 1
    assert "box_cap" in report["error"]["message"]


def test_internal_invariant_failure_is_reported(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("the whole family's ideal holds no polynomial in L")

    monkeypatch.setattr("toricbsato.cli.bfunction", broken)
    doc = write_doc(tmp_path, CUSP_DOC)
    code, report, _ = invoke(capsys, ["bfunction", doc, "--assume-normal"])
    assert code == 4
    assert report["error"]["code"] == 4
    assert report["error"]["internal"] is True
    assert "no polynomial in L" in report["error"]["message"]


def test_witness_recheck_failure_is_internal(tmp_path, capsys, monkeypatch):
    # the witness rows state the exact re-check, so a row-feasible point
    # that fails it is an engine fault, not a reason to scan on
    monkeypatch.setattr("toricbsato.multiplier._on_boundary", lambda *args: False)
    doc = write_doc(tmp_path, {**CUSP_DOC, "options": {"max": "4/3"}})
    code, report, _ = invoke(capsys, ["jumping", doc, "--assume-normal"])
    assert code == 4
    assert report["error"]["internal"] is True
    assert "exact re-check" in report["error"]["message"]


def test_lct_and_multiplier(tmp_path, capsys):
    doc = write_doc(tmp_path, CUSP_DOC)
    code, report, _ = invoke(capsys, ["lct", doc, "--assume-normal"])
    assert code == 0 and report["lct"] == "2/3"

    code, report, _ = invoke(
        capsys, ["multiplier", doc, "--assume-normal", "--alpha", "2/3"]
    )
    assert code == 0
    assert report["generators"] == [[1, 0], [1, 1], [1, 2], [1, 3]]
    assert report["stabilized"] is True
    assert report["box_used"] == [6, 6]

    code, report, _ = invoke(
        capsys, ["multiplier", doc, "--assume-normal", "--alpha", "1", "--mode", "closed"]
    )
    assert report["generators"] == [[1, 0], [1, 1], [1, 2], [1, 3]]


def test_multiplier_alpha_from_options(tmp_path, capsys):
    doc = write_doc(
        tmp_path,
        {**CUSP_DOC, "options": {"alpha": "1", "assume_normal": True}},
    )
    code, report, _ = invoke(capsys, ["multiplier", doc])
    assert code == 0
    assert report["generators"] == [[1, 1], [1, 2]]


def test_jumping_report(tmp_path, capsys):
    doc = write_doc(tmp_path, CUSP_DOC)
    code, report, _ = invoke(
        capsys, ["jumping", doc, "--assume-normal", "--max", "4/3"]
    )
    assert code == 0
    assert report["jumping"] == [
        {"alpha": "2/3", "witness": [0, 0]},
        {"alpha": "1", "witness": [1, 0]},
    ]
    assert report["search_mode"] == "exact"
    assert report["unresolved"] == []
    # rationals survive the round trip exactly
    assert F(report["lct"]) == F(2, 3)
    assert [F(j["alpha"]) for j in report["jumping"]] == [F(2, 3), F(1)]


def test_transport_monomial_and_polynomial(tmp_path, capsys):
    doc = write_doc(tmp_path, CUSP_DOC)
    code, report, _ = invoke(capsys, ["transport", doc, "--assume-normal"])
    assert code == 0
    assert report["generators"] == [[1, 2], [2, 1]]

    poly_doc = write_doc(
        tmp_path,
        {
            "matrix": CUSP,
            "ideal": {
                "polynomial": [
                    [
                        {"coeff": "1", "exp": [1, 1]},
                        {"coeff": "-2/3", "exp": [1, 3]},
                    ]
                ]
            },
        },
        name="poly.json",
    )
    code, report, _ = invoke(capsys, ["transport", poly_doc, "--assume-normal"])
    assert code == 0
    assert report["kind"] == "polynomial"
    assert report["term_generators"] == [
        [{"coeff": "-2/3", "exp": [0, 3]}, {"coeff": "1", "exp": [2, 1]}]
    ]
    assert "out of scope" in report["note"]


def test_polynomial_ideal_rejected_elsewhere(tmp_path, capsys):
    doc = write_doc(
        tmp_path,
        {
            "matrix": CUSP,
            "ideal": {"polynomial": [[{"coeff": "1", "exp": [1, 1]}]]},
        },
    )
    code, report, _ = invoke(capsys, ["bfunction", doc, "--assume-normal"])
    assert code == 1
    assert "monomial ideal" in report["error"]["message"]


# --- malformed input --------------------------------------------------------


def test_floats_rejected(tmp_path, capsys):
    path = tmp_path / "float.json"
    path.write_text('{"matrix": [[1, 0], [0, 1]], "options": {"alpha": 0.5}}')
    code, report, _ = invoke(capsys, ["facets", str(path)])
    assert code == 1
    assert "floats are not accepted" in report["error"]["message"]

    doc = write_doc(tmp_path, CUSP_DOC)
    code, report, _ = invoke(
        capsys, ["multiplier", doc, "--assume-normal", "--alpha", "0.5"]
    )
    assert code == 1


def test_schema_errors(tmp_path, capsys):
    cases = [
        {"matrix": [[1, 0], [0, 1]], "spurious": 1},
        {"ideal": {"monomial": [[1, 1]]}},
        {"matrix": [[1, 0], [0]]},
        {"matrix": [[1, 0], [0, 1]], "ideal": {"weird": []}},
        {"matrix": [[1, 0], [0, 1]], "ideal": {"monomial": []}},
    ]
    for i, bad in enumerate(cases):
        doc = write_doc(tmp_path, bad, name=f"bad{i}.json")
        code, report, _ = invoke(capsys, ["facets", doc])
        assert code == 1, bad
        assert "error" in report

    code, report, _ = invoke(capsys, ["facets", str(tmp_path / "missing.json")])
    assert code == 1

    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    code, report, _ = invoke(capsys, ["facets", str(notjson)])
    assert code == 1 and "invalid JSON" in report["error"]["message"]


def test_undecodable_document(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"matrix": [[1]], "note": "\xff"}')
    code, report, _ = invoke(capsys, ["check", str(path)])
    assert code == 1
    assert report["error"]["code"] == 1


def test_deeply_nested_document(tmp_path, capsys):
    path = tmp_path / "deep.json"
    depth = 100_000
    path.write_text('{"matrix": ' + "[" * depth + "]" * depth + "}")
    code, report, _ = invoke(capsys, ["check", str(path)])
    assert code == 1
    assert report["error"]["code"] == 1
    assert "nested too deeply" in report["error"]["message"]


def test_missing_required_flags(tmp_path, capsys):
    doc = write_doc(tmp_path, CUSP_DOC)
    code, report, _ = invoke(capsys, ["multiplier", doc, "--assume-normal"])
    assert code == 1 and "alpha" in report["error"]["message"]
    code, report, _ = invoke(capsys, ["jumping", doc, "--assume-normal"])
    assert code == 1 and "max" in report["error"]["message"]
    with pytest.raises(SystemExit) as exc:
        main(["bfunction", doc, "--assume-normal", "--schedule", "1,2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_options_rejected(tmp_path, capsys):
    doc = write_doc(tmp_path, {**CUSP_DOC, "options": {"shedule": [1], "kappa": 7}})
    code, report, _ = invoke(capsys, ["bfunction", doc, "--assume-normal"])
    assert code == 1
    assert "shedule" in report["error"]["message"]
    assert "kappa" in report["error"]["message"]


@pytest.mark.parametrize(
    "command, options, cap",
    [
        ("multiplier", {"alpha": "100000000000"}, "SCAN_POINTS_CAP"),  # <x, y>: 10^11 + 1 heads
        ("jumping", {"max": "100000000000/1"}, "CANDIDATES_CAP"),  # 2 * 10^11 candidates
        ("bfunction", {}, "GENERATORS_CAP"),  # ten generators: 5.6 * 10^18 c-vectors in box 66
        ("bfunction", {}, "REDUCTION_WORK_CAP"),  # x^(10^30): a generator of 10^30 factors
    ],
)
def test_work_caps(tmp_path, capsys, command, options, cap):
    doc = {"matrix": [[1, 0], [0, 1]], "ideal": {"monomial": [[1, 1]]}, "options": options}
    if cap == "GENERATORS_CAP":
        doc["ideal"] = {"monomial": [[k, 9 - k] for k in range(10)]}
    if cap == "REDUCTION_WORK_CAP":
        doc["ideal"] = {"monomial": [[10**30, 0]]}
    if cap == "SCAN_POINTS_CAP":
        doc["ideal"] = {"monomial": [[1, 0], [0, 1]]}
    code, report, _ = invoke(capsys, [command, write_doc(tmp_path, doc), "--assume-normal"])
    assert code == 3
    assert report["error"]["cap"] == cap
    assert cap in report["error"]["message"]
    if cap == "SCAN_POINTS_CAP":
        assert report["error"]["message"] == "SCAN_POINTS_CAP exceeded: 100000000001 > 1000000"


def test_principal_multiplier_at_a_huge_alpha_exits_0(tmp_path, capsys):
    # <xy> at alpha 10^11: the region's one vertex pins both exponents, so
    # the walk has one head and one member
    doc = {"matrix": [[1, 0], [0, 1]], "ideal": {"monomial": [[1, 1]]}}
    doc["options"] = {"alpha": "100000000000"}
    code, report, _ = invoke(capsys, ["multiplier", write_doc(tmp_path, doc), "--assume-normal"])
    assert code == 0
    assert report["generators"] == [[10**11, 10**11]]


def run_problem(command, document, *flags, timeout=60):
    """Run the CLI on a document of scripts/problems in a subprocess whose
    timeout keeps a runaway scan from hanging the suite; returns the exit
    code and the JSON report."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "toricbsato.cli", command,
         str(root / "scripts" / "problems" / document), *flags],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    return proc.returncode, json.loads(proc.stdout)


def test_normality_scan_cap():
    # the zonotope's bounding box holds about 10^10 points: the count must stop
    # the scan before it starts
    for command in ("check", "verify"):
        code, report = run_problem(command, "wide_zonotope.json", "--check-normal")
        assert code == 3
        assert report["error"]["cap"] == "SCAN_POINTS_CAP"
        assert "10000400004 > 1000000" in report["error"]["message"]


def test_deep_chain_cone_is_normal():
    # the combination search follows a chain 1000 column steps deep; a
    # search that recursed per step died with a RecursionError traceback
    code, report = run_problem("check", "deep_chain_cone.json", "--check-normal")
    assert code == 0
    assert report["normal"] is True and report["normality_witness"] is None
    code, report = run_problem("verify", "deep_chain_cone.json", "--check-normal")
    assert code == 0
    assert report["verdict"] == "PASS" and report["lct"] == "1"


def test_unit_ideal_reports_an_infinite_lct():
    # the library's unbounded threshold is None; the report spells it out
    code, report = run_problem("lct", "unit_ideal.json", "--assume-normal")
    assert code == 0
    assert report["lct"] == "infinity"
    code, report = run_problem("verify", "unit_ideal.json", "--check-normal")
    assert code == 0
    assert report["verdict"] == "PASS" and report["jumping"] is None


def test_unit_ideal_has_an_empty_jumping_report():
    code, report = run_problem("jumping", "unit_ideal.json", "--assume-normal", "--max", "2")
    assert code == 0
    assert report["lct"] == "infinity" and report["jumping"] == []
    assert report["unresolved"] == []


@pytest.mark.parametrize(
    "command, options, message",
    [
        ("lct", {"assume_normal": 1}, "assume_normal"),
        ("lct", {"assume_normal": "yes"}, "assume_normal"),
        ("check", {"box_cap": "six"}, "box_cap"),
        ("check", {"box_cap": True}, "box_cap"),
        ("check", {"alpha": "abc"}, "rational"),
        ("facets", {"max": [1]}, "rational"),
        ("check", {"mode": "open"}, "mode"),
    ],
)
def test_options_are_validated_when_the_document_is_read(
    tmp_path, capsys, command, options, message
):
    # every option is parsed once, whether or not the command reads it
    doc = write_doc(tmp_path, {**CUSP_DOC, "options": options})
    code, report, _ = invoke(capsys, [command, doc])
    assert code == 1 and message in report["error"]["message"]


def test_malformed_option_document_exits_one():
    # "assume_normal": 1 is not a boolean: malformed, not an unverified gate
    assert run_problem("lct", "malformed_option.json")[0] == 1
    assert run_problem("verify", "malformed_option.json", "--check-normal")[0] == 1


def test_parsed_options_reach_their_commands(tmp_path, capsys):
    options = {"alpha": "2/3", "mode": "closed", "assume_normal": True}
    doc = write_doc(tmp_path, {**CUSP_DOC, "options": options})
    code, report, _ = invoke(capsys, ["multiplier", doc])
    assert code == 0 and report["alpha"] == "2/3" and report["mode"] == "closed"
    # a command-line flag still wins over its option
    code, report, _ = invoke(capsys, ["multiplier", doc, "--alpha", "1", "--mode", "relint"])
    assert code == 0 and report["alpha"] == "1" and report["mode"] == "relint"
    code, report, _ = invoke(capsys, ["bfunction", doc])
    assert code == 0 and report["box_used"] == 2


@pytest.mark.parametrize(
    "command, document, flags, cap, count",
    [
        # the cone over the 4-cube: one exhausted tight facet scans
        # 9^4 + 25^4 + 73^4 window points
        ("jumping", "tesseract_cone.json", ["--assume-normal"],
         "WINDOW_POINTS_CAP", "28795427 > 10000000"),
        # 30 points of the moment curve in dimension 8: the double
        # description of the cyclic cone tests 11 480 633 ray pairs
        ("facets", "cyclic_cone.json", [], "RAY_PAIRS_CAP", "11480633 > 10000000"),
    ],
)
def test_counted_scan_caps(command, document, flags, cap, count):
    code, report = run_problem(command, document, *flags)
    assert code == 3
    assert report["error"]["cap"] == cap
    assert count in report["error"]["message"]


def test_forty_columns_facets():
    # 40 columns in dimension 7: C(40, 6) = 3 838 380 subsets of generators,
    # but the double description tests 1.79 M ray pairs
    code, report = run_problem("facets", "forty_columns.json", timeout=60)
    assert code == 0
    assert len(report["facets"]) == 1255


def test_pointedness_without_fourier_motzkin():
    # 14 mixed-sign columns in dimension 5: Fourier-Motzkin on one row per
    # column took about a minute; the rank of the 42 facet normals is instant
    code, report = run_problem("facets", "fourteen_mixed_columns.json", timeout=20)
    assert code == 0
    assert len(report["facets"]) == 42
    assert [5, -1, 0, 0, -1] in report["facets"]


def test_hexagon_multiplier_scans_the_character_lattice():
    # six facets, three coordinates: the generating box holds 12 744 900
    # points of Z^6, past SCAN_POINTS_CAP, but only 48 081 exponents v bound it
    code, report = run_problem(
        "multiplier", "hexagon_multiplier.json", "--assume-normal", "--alpha", "3/2", timeout=20
    )
    assert code == 0
    assert report["generators"] == [[9, -2, 0], [9, -1, 0]]
    assert report["box_used"] == [13, 13, 14, 14, 16, 16]


def test_plane_three_generators_certify_at_box_ten():
    # the proved last box 10 holds 330 g_c but only 7 minimal profiles, so
    # certifying is quick
    code, report = run_problem(
        "bfunction", "plane_three_generators.json", "--assume-normal", timeout=20
    )
    assert code == 0
    assert report["stabilized"] is True
    assert report["box_used"] == 10 and report["generator_count"] == 330
    assert report["truncation"] == [{"box": 10, "polynomial": report["b"]}]
    code, report = run_problem(
        "verify", "plane_three_generators.json", "--check-normal", timeout=20
    )
    assert code == 0
    assert report["verdict"] == "PASS" and report["notes"] == []
    assert report["bfunction"]["box_used"] == 10


def test_stalled_truncation_certifies_degree_seven():
    # <y^7, x^3 y^4, x^7>: the box loop that preceded the proved last box
    # stopped at box 3 with degree 9 and the roots -10/7 and -9/7, which
    # verify passed; box 10 gives degree 7 with simple roots
    code, report = run_problem(
        "bfunction", "plane_stalled_truncation.json", "--assume-normal", timeout=20
    )
    assert code == 0
    assert report["box_used"] == 10 and len(report["b"]["coefficients"]) == 8
    assert [r["value"] for r in report["roots_negated"]] == [f"{k}/7" for k in (2, 3, 4, 5, 6)] + [
        "1", "8/7"
    ]
    assert {r["multiplicity"] for r in report["roots_negated"]} == {1}


def test_coefficient_swell_certifies():
    # a5 with <(0,1), (7,6)>: the elimination swelled its coefficients past
    # REDUCTION_WORK_CAP, and the constant coefficient of its degree-43
    # b-function has 1 463 132 160 positive divisors, more than DIVISORS_CAP
    # allows a root search.  Two generators read b off the lines of the
    # proved last box 2, so neither arises; the largest root is -lct
    for command, flag in (("bfunction", "--assume-normal"), ("verify", "--check-normal")):
        code, report = run_problem(command, "a5_coefficient_swell.json", flag, timeout=30)
        assert code == 0
        res = report if command == "bfunction" else report["bfunction"]
        assert res["stabilized"] is True and res["box_used"] == 2
        assert len(res["b"]["coefficients"]) == 44
        assert res["roots_negated"][0] == {"multiplicity": 1, "value": "2/7"}
    assert report["verdict"] == "PASS" and report["lct"] == "2/7"


def test_divisors_cap_stops_a_root_search_of_three_generators(capsys, monkeypatch):
    # three generators still find their roots by the divisor search: on
    # <x^3, xy, y^2> it factors the constant coefficient 60 in 2 trial
    # divisions and counts its 12 divisors before listing any, 14 units
    monkeypatch.setattr("toricbsato.bsato.DIVISORS_CAP", 10)
    root = Path(__file__).resolve().parent.parent
    doc = str(root / "scripts" / "problems" / "plane_three_generators.json")
    code, report, _ = invoke(capsys, ["bfunction", doc, "--assume-normal"])
    assert code == 3
    assert report["error"]["cap"] == "DIVISORS_CAP"
    assert report["error"]["message"] == "DIVISORS_CAP exceeded: 14 > 10"


def test_tesseract_cone_certifies_at_box_three():
    # the cone over the 4-cube: two generators, so the proved last box 3
    # gives the degree-26 b-function, whose largest root -1/2 is -lct, with
    # multiplicity 4 (the block-order elimination stopped at
    # REDUCTION_WORK_CAP); verify then reaches the witness search, which
    # still stops at WINDOW_POINTS_CAP
    code, report = run_problem("bfunction", "tesseract_cone.json", "--assume-normal", timeout=30)
    assert code == 0
    assert report["stabilized"] is True and report["box_used"] == 3
    assert [t["polynomial"] is None for t in report["truncation"]] == [False]
    assert len(report["b"]["coefficients"]) == 27
    assert hashlib.sha256(report["b"]["text"].encode()).hexdigest() == (
        "8c04a1abd71cbc9b0e013d3858e1d869b5c5d181e491fb4c7fd8da5748ee5f06"
    )
    assert [(r["value"], r["multiplicity"]) for r in report["roots_negated"]] == [
        ("1/2", 4), ("2/3", 3), ("5/6", 4), ("1", 4), ("7/6", 4), ("4/3", 4),
        ("3/2", 1), ("5/3", 1), ("2", 1),
    ]
    assert report["unfactored_remainder"]["text"] == "1"
    code, report = run_problem("verify", "tesseract_cone.json", "--check-normal", timeout=30)
    assert code == 3
    assert report["error"]["cap"] == "WINDOW_POINTS_CAP"


def test_unknown_command_rejected(tmp_path, capsys):
    doc = write_doc(tmp_path, CUSP_DOC)
    with pytest.raises(SystemExit):
        main(["frobnicate", doc])
    capsys.readouterr()


def test_byte_determinism(tmp_path, capsys):
    doc = write_doc(tmp_path, CUSP_DOC)
    argv = ["verify", doc, "--check-normal"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


GOLDEN_REPORTS = [
    # (command, document, flags, SHA-256 of json.dumps([exit code, stdout, stderr]))
    ("verify", "deep_chain_cone", ["--check-normal"],
     "504352db99ca5be2121bdff2d2de21294cf80a3313354b81a23bcae870f0c9cd"),
    ("verify", "hexagon_multiplier", ["--check-normal"],
     "31d767fa8fe8588b48781e1447f35276fd58f9f03401e65474528d08e459d7bc"),
    ("verify", "negative_line", ["--check-normal"],
     "87321fc29bd7a1a13a6b7234be8ecda318e290df218f786a43912e8c8cb0efcd"),
    ("verify", "twisted_cubic", ["--check-normal"],
     "98d4dad3cbaab1fbf9a58cb46ef187945da05df24302374ae094350f30f964aa"),
    ("verify", "unit_ideal", ["--check-normal"],
     "f8515cbb5c31d3934e0c40b6b899158d4e0d54b7ca36d35a5f6fa4b10801c4f2"),
    ("verify", "non_normal_cone", ["--check-normal"],
     "092eab2028187f927c0cca78831a729cfe8212f6a8a44fd69a06528b646a13fb"),
    ("verify", "malformed_option", ["--check-normal"],
     "43cf7242a4232ebbf5b5eedbe22c2622e45248cce80aca2fabe035db1717b221"),
    ("bfunction", "plane_three_generators", ["--assume-normal"],
     "d7993b8eaf3d7ab844ccdd458219e395fbf6b1a5ed5098de092a5ea6fdc5faed"),
    ("bfunction", "tesseract_cone", ["--assume-normal"],
     "843dd5d675b8be267c54e1448684d6b6c6916e7cef7f42c2681d5e6ae38935f5"),
    ("verify", "plane_three_generators", ["--check-normal"],
     "07aa0d20df5383143b8cdf395ea24e386d12abfefc33febef81ad499267205a8"),
    ("jumping", "hexagon_multiplier", ["--assume-normal", "--max", "4/3"],
     "c35dd39b97334849bfb27c15f42909609ddd052233b15f83e3fb76bd6781a37c"),
    ("multiplier", "hexagon_multiplier", ["--assume-normal", "--alpha", "3/2"],
     "8475ce7b01d62dce7a55d59a93b5f7dc2a5ef893189a6511149d920b7d4a8926"),
    ("multiplier", "twisted_cubic", ["--assume-normal", "--alpha", "2/3", "--mode", "relint"],
     "0d19a5c332d4659afc509b47cd6fceb019613f5cd2baf869033b5b6d40772531"),
    ("multiplier", "twisted_cubic", ["--assume-normal", "--alpha", "2/3", "--mode", "closed"],
     "06917c5d6d4d91ac20ad129b90fb8dcc21696ca9024201f5865ace4826855448"),
    ("multiplier", "unit_ideal", ["--assume-normal", "--alpha", "1"],
     "723a22f3c8460a98ef53750292705ba47f898b7aa6cdea77167a4390d710344e"),
    ("jumping", "twisted_cubic", ["--assume-normal", "--max", "4/3"],
     "602d10b66299f201fe2e0764ef36860cf1472504acedfedbf42ed630e469156a"),
]


@pytest.mark.parametrize(
    "command, document, flags, digest",
    GOLDEN_REPORTS,
    ids=[
        "-".join([command, document, *(f for f in flags if f in ("relint", "closed"))])
        for command, document, flags, _ in GOLDEN_REPORTS
    ],
)
def test_golden_report_bytes(capsys, command, document, flags, digest):
    # the report bytes, the summary line and the exit code are pinned: a
    # refactor that claims the same answers must leave all three unchanged
    path = Path(__file__).resolve().parent.parent / "scripts" / "problems" / f"{document}.json"
    code = main([command, str(path), *flags])
    out, err = capsys.readouterr()
    got = hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()
    assert got == digest, f"exit {code}, stderr {err!r}, stdout:\n{out}"


def test_parser_is_shared_and_keeps_no_state(tmp_path, capsys):
    doc = write_doc(tmp_path, CUSP_DOC)
    code, _, _ = invoke(capsys, ["multiplier", doc, "--assume-normal", "--alpha", "2/3"])
    assert code == 0
    code, report, _ = invoke(capsys, ["multiplier", doc, "--assume-normal"])
    assert code == 1 and "alpha" in report["error"]["message"]
    assert build_parser() is build_parser()


# --- fuzzed documents -------------------------------------------------------

HUGE = 10**30
# small entries and huge ones (far past every counted cap); no middle sizes,
# so every draw ends quickly
fuzz_ints = st.one_of(st.integers(-3, 3), st.sampled_from([HUGE, -HUGE, 2**64 + 1]))
fuzz_scalars = st.one_of(
    fuzz_ints, st.floats(allow_nan=False, allow_infinity=False), st.booleans(), st.text(max_size=3)
)
good_rationals = st.sampled_from(["1/2", "2/3", "1", "3/2", "5/2", 2])
bad_rationals = st.one_of(
    st.sampled_from(["0", "-1", "1.5", "1/0", "9" * 40, str(HUGE)]), fuzz_scalars
)
fuzz_options = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={
            "alpha": good_rationals,
            "max": good_rationals,
            "mode": st.sampled_from(["relint", "closed"]),
            "assume_normal": st.just(True),
        },
    ),
    st.fixed_dictionaries(
        {},
        optional={
            "alpha": bad_rationals,
            "max": bad_rationals,
            "mode": st.sampled_from(["open", 1, None]),
            "box_cap": st.one_of(st.integers(-1, 0), st.just(HUGE), fuzz_scalars),
            "assume_normal": fuzz_scalars,
            "kappa": fuzz_scalars,
        },
    ),
)
fuzz_calls = st.builds(
    lambda command, normal, flags: (command, [normal, *flags]),
    st.sampled_from(COMMANDS),
    st.sampled_from([["--assume-normal"], ["--assume-normal"], ["--check-normal"], []]),
    st.lists(
        st.sampled_from(
            [["--alpha", "2/3"], ["--alpha", "1e3"], ["--max", "4/3"], ["--max", str(HUGE)],
             ["--mode", "closed"]]
        ),
        max_size=3,
    ),
)
NORMAL_MATRICES = [
    [[1]], [[1, 0], [0, 1]], CUSP, [[0, 1, 6], [1, 1, 5]],
    [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
]
# non-pointed, not full-dimensional, unsaturated, zero, saturated but not normal
ODD_MATRICES = [
    [[1, -1]], [[1, 0, -1], [0, 1, 0]], [[2]], [[1, 1], [0, 2]], [[0]], [[1, 1, 1], [0, 2, 3]]
]


@st.composite
def fuzz_documents(draw):
    """Document bytes.  Most draws are well-formed: a small matrix (normal,
    with a first row of ones, arbitrary, non-pointed, unsaturated, empty or
    ragged) and an ideal whose exponents are sums of columns; the rest
    carry arbitrary exponents, floats, wrong types, truncated JSON or
    invalid UTF-8."""
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["normal"] * 5 + ["ones", "any", "odd", "ragged", "scalar"]))
    if kind == "normal":
        matrix = draw(st.sampled_from(NORMAL_MATRICES))
    elif kind == "odd":
        matrix = draw(st.sampled_from(ODD_MATRICES))
    elif kind == "ragged":
        matrix = draw(st.lists(st.lists(fuzz_ints, max_size=3), max_size=3))
    elif kind == "scalar":
        matrix = draw(fuzz_scalars)
    else:
        rows = [draw(st.lists(fuzz_ints, min_size=m, max_size=m)) for _ in range(d)]
        matrix = [[1] * m] + rows[1:] if kind == "ones" else rows
    doc = {"matrix": matrix}
    cols = list(zip(*matrix)) if kind not in ("ragged", "scalar") else [(0,)]
    sums = st.lists(st.sampled_from(cols), max_size=3).map(
        lambda cs: [sum(x) for x in zip(*cs)] or [0] * len(cols[0])
    )
    exps = st.lists(sums, min_size=1, max_size=2)
    ideal = draw(st.sampled_from(["monomial"] * 5 + ["arbitrary", "polynomial", "none", "scalar"]))
    if ideal == "monomial":
        doc["ideal"] = {"monomial": draw(exps)}
    elif ideal == "arbitrary":
        doc["ideal"] = {"monomial": draw(st.lists(st.lists(fuzz_ints, max_size=3), max_size=2))}
    elif ideal == "polynomial":
        coeff = draw(st.one_of(good_rationals, bad_rationals))
        doc["ideal"] = {"polynomial": [[{"coeff": coeff, "exp": x} for x in draw(exps)]]}
    elif ideal == "scalar":
        doc["ideal"] = draw(fuzz_scalars)
    if draw(st.booleans()):
        doc["options"] = draw(fuzz_options)
    raw = json.dumps(doc).encode()
    return draw(st.sampled_from([raw] * 8 + [raw[:-1], raw.replace(b"[", b'["\xff",', 1)]))


@given(
    fuzz_documents(),
    st.lists(fuzz_calls, min_size=2, max_size=4),
)
@example(  # a huge matrix entry made a range too long for len(): OverflowError
    json.dumps({"matrix": [[1, HUGE], [0, 1]], "ideal": {"monomial": [[1, 0]]}}).encode(),
    [("multiplier", [["--assume-normal"], ["--alpha", "1"]]), ("check", [])],
)
@example(  # a huge exponent built a degree-10^30 generator without end
    json.dumps({"matrix": [[1]], "ideal": {"monomial": [[HUGE]]}}).encode(),
    [("bfunction", [["--assume-normal"]]), ("verify", [["--assume-normal"]])],
)
@settings(max_examples=150, deadline=None)
def test_fuzzed_documents_keep_the_exit_contract(tmp_path_factory, raw, calls):
    """Every command on any document exits 0-4 with a JSON report; the
    calls share one process, and so one parser."""
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_bytes(raw)
    for command, flags in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), *(x for flag in flags for x in flag)])
        assert code in (0, 1, 2, 3, 4), err.getvalue()
        report = json.loads(out.getvalue())
        assert report["command"] == command
