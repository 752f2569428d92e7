"""End-to-end command-line tests: exit codes, report content, reproducibility."""

import hashlib
import json
import random

import pytest

from framecalc import fixtures, serialize
from framecalc.cli import EXIT_FAIL, EXIT_INPUT, EXIT_OK, main
from framecalc.rings import (ArtinRing, dual_number_extension, prime_field,
                             truncated_poly_ring)
from framecalc.witt import WittRing
from framecalc.frames import RelativeFrame, WittFrame, ZipFrame
from framecalc.displays import Display, to_fzip, twist, unit_display
from framecalc.orthogonal import standard_gram


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_selftest_passes():
    assert main(["selftest"]) == EXIT_OK


def test_frame_check_on_shipped_fixtures(capsys):
    assert main(["frame", "check"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "passed: True" in out


def test_sampled_frame_check_decides_p_multiples_from_structure(tmp_path, capsys):
    # |W_4(F_5)| = 625 exceeds the budget, so S0 is sampled; sigma0(s) - s^5
    # must lie in p*S0, not in p times the sample
    spec = _write(tmp_path, "spec.json", {"kind": "witt", "ring": {"p": 5}, "m": 4})
    assert main(["frame", "check", "--spec", spec, "--budget", "600",
                 "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["witnesses"] == {}


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_INPUT


def test_missing_spec_exits_2(capsys):
    assert main(["witt", "add"]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_nonexistent_spec_file_exits_2(tmp_path):
    assert main(["witt", "add", "--spec", str(tmp_path / "nope.json")]) == EXIT_INPUT


def test_malformed_spec_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["ring", "--spec", str(path)]) == EXIT_INPUT


def test_bad_schema_exits_2(tmp_path):
    spec = _write(tmp_path, "spec.json", {"ring": {"p": 6}})
    assert main(["ring", "--spec", spec]) == EXIT_INPUT


@pytest.mark.parametrize("x0", [{"e^2": [1]}, {"1": ["a"]}, {"e^x": [1]}],
                         ids=["monomial-in-the-ideal", "non-integer-coefficient",
                              "non-integer-exponent"])
def test_malformed_element_exits_2(tmp_path, capsys, x0):
    spec = _write(tmp_path, "spec.json", {
        "ring": {"p": 3, "vars": ["e"], "ideal": ["e^2"]},
        "m": 2,
        "x": [x0, {"1": [0]}],
        "y": [{"1": [1]}, {"1": [0]}],
    })
    assert main(["witt", "add", "--spec", spec]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_witt_add_frozen_value(tmp_path, capsys):
    spec = _write(tmp_path, "spec.json", {
        "ring": {"p": 3},
        "m": 2,
        "x": [{"1": [1]}, {"1": [0]}],
        "y": [{"1": [2]}, {"1": [0]}],
    })
    assert main(["witt", "add", "--spec", spec, "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    # [1] + [2] = 3 = 0 in W_2(F_3): the carry cancels against -(1+2)/3
    assert report["result"] == [{}, {}]


def test_witt_teich_multiplicative(tmp_path, capsys):
    spec = _write(tmp_path, "spec.json", {"ring": {"p": 3}, "m": 3, "a": {"1": [2]}})
    assert main(["witt", "teich", "--spec", spec, "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["result"] == [{"1": [2]}, {}, {}]


def test_ring_report(tmp_path, capsys):
    spec = _write(tmp_path, "spec.json", {"p": 3, "vars": ["x"],
                                          "ideal": ["x^2"]})
    assert main(["ring", "--spec", spec, "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["size"] == 9
    assert report["units"] == 6
    assert report["passed"]


def test_frame_build(tmp_path, capsys):
    spec = _write(tmp_path, "spec.json", {"kind": "witt", "m": 2,
                                          "ring": {"p": 3}})
    assert main(["frame", "build", "--spec", spec, "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["s0_size"] == 9


def test_display_classify_and_zip_roundtrip(tmp_path, capsys):
    frame_desc = {"kind": "zip", "ring": {"p": 3}}
    spec = _write(tmp_path, "cls.json", {"frame": frame_desc, "mu": [1, 0]})
    assert main(["display", "classify", "--spec", spec, "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["orbits"] == 6

    F3 = prime_field(3)
    zf = ZipFrame(F3)
    d = Display(zf, (1, 0), [[F3.zero(), F3.one()], [F3.one(), F3.el(2)]])
    spec = _write(tmp_path, "rt.json",
                  {"display": serialize.display_to_dict(d)})
    assert main(["zip", "roundtrip", "--spec", spec, "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["roundtrip_identity"]


def test_ortho_normalize_random(tmp_path, capsys):
    frame_desc = {"kind": "relative", "m": 2,
                  "ext": {"ring": {"p": 3, "vars": ["e"], "ideal": ["e^2"]},
                          "extra": ["e"]}}
    spec = _write(tmp_path, "norm.json",
                  {"frame": frame_desc, "mu": [1, 0, 0, -1], "count": 5})
    assert main(["ortho", "normalize", "--spec", spec, "--json",
                 "--seed", "7"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 5
    assert all(r["verified"] for r in report["results"])


def test_deform_lift_and_hodge_default_fixture(capsys):
    assert main(["deform", "lift", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["reduces_to_input"]
    assert main(["deform", "hodge", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 3


def test_deform_k3_reports_nine(capsys):
    assert main(["deform", "k3", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 9
    assert report["expected"] == 9
    assert len(report["deformations"]) == 9
    assert all(t["orthogonal"] and t["reduces"] and t["distinct"]
               for t in report["transcript"])
    assert report["passed"]


def test_reports_are_byte_reproducible(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert main(["deform", "k3", "--seed", "11",
                     "--out", str(out)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_failed_verification_exits_1(tmp_path, capsys):
    # a display that is not orthogonal: ortho check reports failure
    F3 = prime_field(3)
    zf = ZipFrame(F3)
    d = Display(zf, (1, 0, 0, -1),
                [[F3.el(2 if i == j == 0 else (1 if i == j else 0))
                  for j in range(4)] for i in range(4)])
    desc = serialize.display_to_dict(d)
    desc["selfdual"] = False  # deserialize as a plain display, check the form
    spec = _write(tmp_path, "bad.json", {"display": desc})
    assert main(["ortho", "check", "--spec", spec, "--json"]) == EXIT_FAIL
    report = json.loads(capsys.readouterr().out)
    assert report["orthogonal"] is False


def test_failed_exactness_check_exits_1_with_its_witness(tmp_path, capsys, monkeypatch):
    # a lifted product off by one makes the ghost inversion of a fresh
    # W_2(F_3) inexact on the first miss; the CLI names the failed check
    # and its witness on one line, without a traceback
    lift_mul = ArtinRing.lift_mul
    monkeypatch.setattr(ArtinRing, "lift_mul",
                        lambda ring, a, b, k: [c + 1 for c in lift_mul(ring, a, b, k)])
    monkeypatch.setattr(WittRing, "_instances", {})
    spec = _write(tmp_path, "spec.json", _WITT_ADD)
    assert main(["witt", "mul", "--spec", spec, "--json"]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: verification failed: ghost inversion is not exact: "
                            "w_1 = [7] after the coordinates (2,)\n")


def test_ortho_normalize_of_a_given_gram(tmp_path, capsys):
    # a Gram form has rows of weight -mu; the CLI reads a gram without
    # "mu_row" that way, and one written by graded_to_dict carries it
    mu = (1, 0, 0, -1)
    zf = ZipFrame(prime_field(3))
    rel = RelativeFrame(dual_number_extension(3), 2)
    bare = {key: val for key, val
            in serialize.graded_to_dict(standard_gram(zf, mu)).items()
            if key != "mu_row"}
    perturbed = fixtures.rand_gram_perturbation(rel, mu, random.Random(3))
    for frame, gram in ((zf, bare), (rel, serialize.graded_to_dict(perturbed))):
        spec = _write(tmp_path, "gram.json", {
            "frame": serialize.frame_to_dict(frame), "mu": list(mu),
            "gram": gram})
        assert main(["ortho", "normalize", "--spec", spec, "--json"]) == EXIT_OK
        [result] = json.loads(capsys.readouterr().out)["results"]
        assert result["split"] and result["verified"]


def test_k3_unpack_reports_whether_the_untwisted_display_is_self_dual(
        tmp_path, capsys):
    _, k3 = fixtures.k3_fixture()
    spec = _write(tmp_path, "k3.json", {"display": serialize.display_to_dict(k3)})
    # the fixture itself was never packed: its twist by -1 has weights
    # (0, -1, -1, -2), which is not of self-dual type
    assert main(["k3", "unpack", "--spec", spec, "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["result"]["selfdual"] is False
    packed = tmp_path / "packed.json"
    assert main(["k3", "pack", "--spec", spec, "--out", str(packed)]) == EXIT_OK
    spec = _write(tmp_path, "unpack.json",
                  {"display": json.loads(packed.read_text())["result"]})
    assert main(["k3", "unpack", "--spec", spec, "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["result"]["selfdual"] is True


def _el(c):
    return {"1": [c]}


_ZIP_F3 = {"kind": "zip", "ring": {"p": 3}}
_TAUTOLOGICAL_F3 = {"kind": "tautological", "ring": {"p": 3}}
_WITT_ADD = {"ring": {"p": 3}, "m": 2, "x": [_el(1), _el(0)],
             "y": [_el(2), _el(0)]}


def _display(mu, rows, cols):
    return {"frame": _ZIP_F3, "mu": mu,
            "phi": [[_el(int(i == j)) for j in range(cols)]
                    for i in range(rows)]}


def _unit_zip():
    zf = ZipFrame(prime_field(3))
    return serialize.fzip_to_dict(to_fzip(unit_display(zf, 2, 1)))


def _zip_without(key):
    desc = _unit_zip()
    del desc[key]
    return {"zip": desc, "frame": _ZIP_F3}


def _zip_alpha(rank, pick):
    # the unit F-zip of the given rank and weight 1, its one alpha step
    # holding pick(pairs) in place of its own pairs
    desc = serialize.fzip_to_dict(to_fzip(unit_display(ZipFrame(prime_field(3)), rank, 1)))
    desc["alpha"]["1"] = pick(desc["alpha"]["1"])
    return {"zip": desc, "frame": _ZIP_F3}


_WITT_F3 = {"kind": "witt", "ring": {"p": 3}, "m": 2}
_WITT_DISPLAY = {"frame": _WITT_F3, "mu": [1, 0],
                 "phi": [[[_el(int(i == j)), _el(0)] for j in range(2)]
                         for i in range(2)]}
_RELATIVE_F3 = {"kind": "relative", "m": 2,
                "ext": {"ring": {"p": 3, "vars": ["e"], "ideal": ["e^2"]},
                        "extra": ["e"]}}
# a self-dual display of rank 1, which has no isotropic Hodge lifts
_SELFDUAL_RANK_1 = {"ext": _RELATIVE_F3["ext"], "m": 2,
                    "display": {"mu": [0], "phi": [[[_el(1), _el(0)]]]}}


@pytest.mark.parametrize("argv, spec", [
    (["witt", "add"], {**_WITT_ADD, "ring": {"p": "a"}}),
    (["witt", "add"], {**_WITT_ADD, "m": "two"}),
    (["witt", "add"], {**_WITT_ADD, "m": 0}),
    (["ring"], {"ring": {"p": None}}),
    (["ring"], [3]),
    (["display", "classify"], {"frame": _ZIP_F3, "mu": ["x", 0]}),
    (["display", "classify"],
     {"frame": {"kind": "witt", "ring": {"p": 3}, "m": "z"}, "mu": [1, 0]}),
    (["display", "classify"], {"frame": {"kind": "witt"}, "mu": [1, 0]}),
    (["zip", "from"], _zip_without("ring")),
    (["zip", "from"], _zip_without("n")),
    (["display", "act"],
     {"display": _display([1, 0], 2, 2),
      "element": {"mu": [0, 1], "grid": [[_el(1), _el(0)], [_el(0), _el(1)]]}}),
    (["ring"], {"p": 3, "vars": 5}),
    (["display", "act"],
     {"display": _display([1, 0], 2, 2),
      "element": {"mu": [1, 0], "grid": [[_el(0), _el(0)], [_el(0), _el(0)]]}}),
    # entry (1, 0) has degree 1, where the tautological frame's P is 0
    (["display", "act"],
     {"display": {**_display([1, 0], 2, 2), "frame": _TAUTOLOGICAL_F3},
      "element": {"mu": [1, 0], "grid": [[_el(1), _el(0)], [_el(1), _el(1)]]}}),
    (["ortho", "normalize"],
     {"frame": {"kind": "relative", "m": 1,
                "ext": {"ring": {"p": 3, "vars": ["e"], "ideal": ["e^2"]},
                        "extra": ["e"]}},
      "mu": [1, 0, 0, -1]}),
    (["ortho", "normalize"],
     {"frame": {"kind": "witt", "ring": {"p": 3}, "m": 2}, "mu": [1, -1],
      "count": 2}),
    (["ortho", "normalize"], {"frame": _ZIP_F3, "mu": [1, -1]}),
    (["zip", "from"], _zip_alpha(2, lambda pairs: pairs[:1])),
    (["zip", "from"], _zip_alpha(2, lambda pairs: [pairs[0], [pairs[0][0], pairs[1][1]]])),
    (["zip", "from"], _zip_alpha(1, lambda pairs: pairs * 2)),
    (["zip", "from"], {"zip": _unit_zip(), "frame": _WITT_F3}),
    (["zip", "to"], {"display": _WITT_DISPLAY}),
    (["zip", "roundtrip"], {"display": _WITT_DISPLAY}),
    (["ortho", "normalize"], {"frame": _RELATIVE_F3, "mu": [1, 0, 0, -1], "count": -4}),
    (["ortho", "normalize"], {"frame": _RELATIVE_F3, "mu": [1, 0, 0, -1], "count": 0}),
    (["ortho", "normalize"], {"frame": _RELATIVE_F3, "mu": [1, 0]}),
    (["ortho", "normalize"], {"frame": _RELATIVE_F3, "mu": [2, 0, -1]}),
    (["deform", "k3"], _SELFDUAL_RANK_1),
    (["deform", "hodge"], {**_SELFDUAL_RANK_1, "selfdual": True}),
    (["zip", "to"], {"display": {**_display([1, 0], 2, 2), "frame": _TAUTOLOGICAL_F3}}),
], ids=["ring-p-not-an-integer", "m-not-an-integer", "m-zero", "ring-p-null",
        "spec-is-a-list", "mu-not-integers", "frame-m-not-an-integer",
        "witt-frame-without-ring", "zip-without-ring", "zip-without-n",
        "act-element-weights-differ", "ring-vars-not-a-list",
        "act-element-singular", "act-element-nonzero-in-p-zero",
        "relative-frame-m-1", "normalize-random-over-witt-frame",
        "normalize-random-over-zip-frame", "zip-alpha-too-few",
        "zip-alpha-dependent", "zip-alpha-too-many", "zip-from-witt-frame",
        "zip-to-witt-frame", "zip-roundtrip-witt-frame",
        "normalize-count-negative", "normalize-count-zero",
        "normalize-random-weights-1-0", "normalize-random-weights-2-0-minus-1",
        "deform-k3-rank-1", "deform-hodge-selfdual-rank-1",
        "zip-to-tautological-frame"])
def test_malformed_field_exits_2(tmp_path, capsys, argv, spec):
    path = _write(tmp_path, "spec.json", spec)
    assert main(argv + ["--spec", path]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


_ZIP_F2 = {"kind": "zip", "ring": {"p": 2}}


@pytest.mark.parametrize("argv, spec", [
    (["display", "tensor"],
     {"first": _display([1, 0], 2, 2),
      "second": {**_display([1, 0], 2, 2), "frame": _ZIP_F2}}),
    (["zip", "from"], {"zip": _unit_zip(), "frame": _ZIP_F2}),
], ids=["display-tensor", "zip-from"])
def test_operands_over_different_rings_exit_2(tmp_path, capsys, argv, spec):
    # exit 1 means a failed verification; mismatched operands are bad input
    path = _write(tmp_path, "spec.json", spec)
    assert main(argv + ["--spec", path, "--json"]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "Traceback" not in err


_EXT_F2 = {"ring": {"p": 2, "vars": ["e"], "ideal": ["e^2"]}, "extra": ["e"]}


@pytest.mark.parametrize("argv, spec", [
    (["frame", "build"], {"kind": "relative", "m": 2, "ext": _EXT_F2}),
    (["display", "classify"],
     {"frame": {"kind": "relative", "m": 2, "ext": _EXT_F2}, "mu": [1, 0]}),
    (["deform", "lift"],
     {"ext": _EXT_F2, "m": 2,
      "display": {"mu": [1, 0], "phi": [[_el(1), _el(0)], [_el(0), _el(1)]]}}),
], ids=["frame-build", "display-classify", "deform-lift"])
def test_relative_frame_at_p_2_exits_2(tmp_path, capsys, argv, spec):
    # relative frames need p >= 3; at p = 2 that is an input error
    path = _write(tmp_path, "spec.json", spec)
    assert main(argv + ["--spec", path]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "p >= 3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, spec", [
    (["display", "hodge"], {"display": _display([1, 0], 2, 3)}),
    (["zip", "roundtrip"], {"display": _display([1, 0], 2, 3)}),
    (["display", "dual"], {"display": _display([1, 0], 2, 3)}),
    (["display", "dual"], {"display": _display([1, 0, 0], 2, 2)}),
    (["zip", "to"], {"display": _display([1, 0, 0], 2, 2)}),
    (["display", "act"], {"display": _display([1, 0], 2, 2),
                          "element": {"grid": [[_el(1), _el(0)]]}}),
    (["display", "act"], {"display": _display([1, 0], 2, 2),
                          "element": {"grid": [[_el(1), _el(0), _el(0)],
                                               [_el(0), _el(1), _el(0)]]}}),
    (["ortho", "normalize"],
     {"frame": _ZIP_F3, "mu": [1, 0, 0, -1],
      "gram": {"grid": [[_el(int(i + j == 3)) for j in range(4)]
                        for i in range(3)]}}),
    (["ortho", "normalize"],
     {"frame": _ZIP_F3, "mu": [1, 0, 0, -1],
      "gram": {"mu_row": [1, 0, 0, -1],
               "grid": [[_el(int(i + j == 3)) for j in range(4)]
                        for i in range(4)]}}),
], ids=["hodge-2x3-phi", "roundtrip-2x3-phi", "dual-2x3-phi",
        "dual-2x2-phi-for-3-weights", "zip-to-2x2-phi-for-3-weights",
        "act-1x2-element", "act-2x3-element", "normalize-3x4-gram",
        "normalize-gram-with-row-weights-mu"])
def test_wrong_shape_matrix_exits_2(tmp_path, capsys, argv, spec):
    path = _write(tmp_path, "spec.json", spec)
    assert main(argv + ["--spec", path]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, mu", [("display", [1, 0]),
                                         ("ortho", [1, 0, 0, -1])],
                         ids=["display", "ortho"])
def test_classify_errors_name_their_cause(tmp_path, capsys, command, mu):
    # weights out of order are bad input, not an exceeded budget
    spec = _write(tmp_path, "order.json", {"frame": _ZIP_F3, "mu": [0, 1]})
    assert main([command, "classify", "--spec", spec]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: weights must be non-increasing\n"
    # 3^(n^2) matrices past --budget are
    spec = _write(tmp_path, "cap.json", {"frame": _ZIP_F3, "mu": mu})
    assert main([command, "classify", "--spec", spec, "--budget", "10"]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: budget exceeded: display space too large to enumerate\n")


def _type_10_display():
    return {"frame": _ZIP_F3, "mu": [1, 0],
            "phi": [[_el(1), _el(0)], [_el(0), _el(1)]]}


@pytest.mark.parametrize("argv, spec", [
    (["display", "iso", "--budget", "5"],
     {"first": _type_10_display(), "second": _type_10_display()}),
    # |W_4(F_3[x]/x^4)| = 3^16 is past the default cap of 10^7
    (["frame", "check"],
     {"kind": "witt", "ring": {"p": 3, "vars": ["x"], "ideal": ["x^4"]}, "m": 4}),
], ids=["display-iso", "frame-check"])
def test_budget_overrun_exits_2(tmp_path, capsys, argv, spec):
    path = _write(tmp_path, "spec.json", spec)
    assert main(argv + ["--spec", path]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: budget exceeded: ") and "Traceback" not in err


# ---------------------------------------------------------------------------
# Report bytes of every command and op
# ---------------------------------------------------------------------------

def _report_specs():
    """'command op' -> the spec of one small run, None for the default input."""
    F3 = prime_field(3)
    zf, wf = ZipFrame(F3), WittFrame(F3, 2)
    rel = RelativeFrame(dual_number_extension(3), 2)
    R = truncated_poly_ring(3, "x", 2)
    wr = WittRing(R, 2)
    x = wr.el([R.el({(0,): 1, (1,): 2}), R.el({(1,): 1})])
    y = wr.el([R.el(2), R.el({(0,): 1, (1,): 1})])
    zd = Display(zf, (1, 0), [[F3.zero(), F3.one()], [F3.one(), F3.el(2)]])
    s0 = wf.s0
    wd = Display(wf, (1, 0), [[s0.zero(), s0.one()],
                              [s0.one(), s0.el([F3.el(1), F3.el(2)])]])
    _, k3 = fixtures.k3_fixture()
    _, gl2 = fixtures.gl2_fixture()
    D = serialize.display_to_dict
    witt = {"ring": serialize.ring_to_dict(R), "m": 2,
            "x": serialize.witt_to_list(x), "y": serialize.witt_to_list(y)}
    deform = {"ext": serialize.ext_to_dict(dual_number_extension(3)), "m": 2,
              "display": D(gl2)}
    return {
        "ring": serialize.ring_to_dict(R),
        "witt add": witt, "witt mul": witt, "witt frob": witt, "witt v": witt,
        "witt teich": {"ring": serialize.ring_to_dict(R), "m": 3,
                       "a": serialize.elem_to_dict(x.comps[0])},
        "frame build": serialize.frame_to_dict(rel),
        "frame check": None,
        "display act": {"display": D(wd), "element": serialize.graded_to_dict(
            fixtures.rand_group_element(wf, (1, 0), random.Random(1)))},
        "display iso": {"first": D(zd), "second": D(zd.act(
            fixtures.rand_group_element(zf, (1, 0), random.Random(2))))},
        "display classify": {"frame": serialize.frame_to_dict(zf), "mu": [1, 0]},
        "display hodge": {"display": D(wd)},
        "display tensor": {"first": D(wd), "second": D(wd)},
        "display dual": {"display": D(wd)},
        "zip to": {"display": D(zd)},
        "zip from": {"zip": serialize.fzip_to_dict(to_fzip(zd)),
                     "frame": serialize.frame_to_dict(zf)},
        "zip roundtrip": {"display": D(zd)},
        "ortho check": {"display": D(k3)},
        "ortho normalize": {"frame": serialize.frame_to_dict(rel),
                            "mu": [1, 0, 0, -1], "count": 2},
        # the split form over the tautological frame of F_3, whose entries
        # of positive degree are P = 0, the zero of S0
        "ortho normalize/tautological": {
            "frame": _TAUTOLOGICAL_F3, "mu": [1, 0, 0, -1],
            "gram": {"grid": [[{}, {}, {}, 1], [{}, {}, 1, {}], [{}, 1, {}, {}],
                              [1, {}, {}, {}]]}},
        # 3^16 structure matrices of K3 type over F_3: past the default cap
        "ortho classify": {"frame": serialize.frame_to_dict(zf),
                           "mu": [1, 0, 0, -1]},
        "k3 pack": {"display": D(k3)},
        "k3 unpack": {"display": D(twist(k3, 1))},  # the output of `k3 pack`
        "deform lift": deform, "deform hodge": deform, "deform k3": None,
        "selftest": None,
    }


@pytest.fixture(scope="module")
def report_specs():
    return _report_specs()


# (exit code, sha256 of the --json stdout); the stderr is empty unless named.
# A name is "command op", and "command op/variant" for one more input.
_REPORTS = {
    "ring": (EXIT_OK,
        "2495cc7daee05305ced3c0fae004a5c166d1c9c9dc33f8a782fdb6eb948fc62e"),
    "witt add": (EXIT_OK,
        "66e98663bab30b66ad44d7d239c8b47c40a22745973bd7cd901e1156a346b1db"),
    "witt mul": (EXIT_OK,
        "513a636b576c062b0b90ed56a1b3c2ffb929b5013967422418bf77905b1bd2ea"),
    "witt frob": (EXIT_OK,
        "fc018d9f970c344bb7891cc9fd04b4fa51bce129b546281bef2ad39de2794dc2"),
    "witt v": (EXIT_OK,
        "fb0e2646f4827c0515eecf470288baa4cf358bfb56753356d66b1580b1f55f25"),
    "witt teich": (EXIT_OK,
        "e9da71ebd312cf76ac865a754278c68d6c16b28b5e0a705bb8b1dc9027452ce0"),
    "frame build": (EXIT_OK,
        "1e05b9efd612f99f42e8e9bed755b20b08522fe34fc4354ee65ebeef7745f5a7"),
    "frame check": (EXIT_OK,
        "fbf6845239f34a0e7c6af72e8deaffe0f933758d76ea665926a2feae0a48df76"),
    "display act": (EXIT_OK,
        "0c7788378ba26d3bda2dd3701fa276748d9d41ed61abf469d1a25acf39046839"),
    "display iso": (EXIT_OK,
        "6f9b99b306804a41f8454f70aaa8ca6703f6088b6410fd79b5a7718fdc8b3b65"),
    "display classify": (EXIT_OK,
        "e1a161dc67c4bae201e9a105a7aad96177eb817c2da726ea73b621ad7e872e9f"),
    "display hodge": (EXIT_OK,
        "8ffa777a003c3ee1b753f3417eb6e5b4685073e678ed21f44bab779c2616e453"),
    "display tensor": (EXIT_OK,
        "0c873844f64b6a14e5d3ba58e01a3e3533a316b3636c570b227bcd6ec352453f"),
    "display dual": (EXIT_OK,
        "3f79ca5c17029907ff0b918ab594cbd3e5007af6be766103e95e092b66b83132"),
    "zip to": (EXIT_OK,
        "1b96d83f7605a7fbca75ae56d4cee7cae40655773d7bd55c1ac68245a8e24d9c"),
    "zip from": (EXIT_OK,
        "63268f9a34feb50ee2638a0470fa548575088c0f2d28da455262572490e4838e"),
    "zip roundtrip": (EXIT_OK,
        "56fa3cf727cdee1e5d7834341c69a64fc5de927b32a3f85e2781ea0c274cf46d"),
    "ortho check": (EXIT_OK,
        "bb09f48489959973b016125eca2d3b8891858001b33f725cad1e7043e619ccc6"),
    "ortho normalize": (EXIT_OK,
        "5be5537cb85fd36b46ab8a08f842d2c6f9a99b5bfd299419088f781b7f33107d"),
    "ortho normalize/tautological": (EXIT_OK,
        "f15ed3d9fc2200c5162aeed177a90c7dc6e82f2cc6bcc71cb71004c623f0cd3e"),
    "ortho classify": (EXIT_INPUT,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "k3 pack": (EXIT_OK,
        "3cb0ea723fde424638263c9e3864668486e046558d9e106fc592376f6758f5b6"),
    "k3 unpack": (EXIT_OK,
        "cb8504d0c6024b0ca2073a75502862c34098c57a0a743ad5e2b702fc36d2869a"),
    "deform lift": (EXIT_OK,
        "4ea28e17f78fabdb0c827737ad2b741e9660129a0a7214628054b2e444e5f52f"),
    "deform hodge": (EXIT_OK,
        "31e33e2ab353bf359871a07c96a8821ae7fef48fd41575d3ea14272c674bab5d"),
    "deform k3": (EXIT_OK,
        "006b2845ffbd11c5aedf98a15048e9b3762602879a48379b926041e701eaa8b5"),
    "selftest": (EXIT_OK,
        "56139084f67acd78affc298e12150fc70d9a06c2a97eaeaefa375776dc83b933"),
}
_STDERR = {"ortho classify":
           "error: budget exceeded: display space too large to enumerate\n"}


@pytest.mark.parametrize("name", list(_REPORTS))
def test_report_bytes_of_every_command(tmp_path, capsys, report_specs, name):
    argv = name.split("/")[0].split() + ["--json"]
    if report_specs[name] is not None:
        argv += ["--spec", _write(tmp_path, "spec.json", report_specs[name])]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == _REPORTS[name]
    assert err == _STDERR.get(name, "")
