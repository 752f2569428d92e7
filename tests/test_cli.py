"""End-to-end command-line tests: exit codes, report content, reproducibility."""

import json

import pytest

from framecalc import serialize
from framecalc.cli import EXIT_FAIL, EXIT_INPUT, EXIT_OK, main
from framecalc.rings import ArtinRing, prime_field
from framecalc.witt import WittRing
from framecalc.frames import ZipFrame
from framecalc.displays import to_fzip, unit_display


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
    from framecalc.displays import Display
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
    from framecalc.displays import Display
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


def _el(c):
    return {"1": [c]}


_ZIP_F3 = {"kind": "zip", "ring": {"p": 3}}
_WITT_ADD = {"ring": {"p": 3}, "m": 2, "x": [_el(1), _el(0)],
             "y": [_el(2), _el(0)]}


def _display(mu, rows, cols):
    return {"frame": _ZIP_F3, "mu": mu,
            "phi": [[_el(int(i == j)) for j in range(cols)]
                    for i in range(rows)]}


def _zip_without(key):
    zf = ZipFrame(prime_field(3))
    desc = serialize.fzip_to_dict(to_fzip(unit_display(zf, 2, 1)))
    del desc[key]
    return {"zip": desc, "frame": _ZIP_F3}


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
    (["ortho", "normalize"],
     {"frame": {"kind": "relative", "m": 1,
                "ext": {"ring": {"p": 3, "vars": ["e"], "ideal": ["e^2"]},
                        "extra": ["e"]}},
      "mu": [1, 0, 0, -1]}),
    (["ortho", "normalize"],
     {"frame": {"kind": "witt", "ring": {"p": 3}, "m": 2}, "mu": [1, -1],
      "count": 2}),
    (["ortho", "normalize"], {"frame": _ZIP_F3, "mu": [1, -1]}),
], ids=["ring-p-not-an-integer", "m-not-an-integer", "m-zero", "ring-p-null",
        "spec-is-a-list", "mu-not-integers", "frame-m-not-an-integer",
        "witt-frame-without-ring", "zip-without-ring", "zip-without-n",
        "act-element-weights-differ", "ring-vars-not-a-list",
        "relative-frame-m-1", "normalize-random-over-witt-frame",
        "normalize-random-over-zip-frame"])
def test_malformed_field_exits_2(tmp_path, capsys, argv, spec):
    path = _write(tmp_path, "spec.json", spec)
    assert main(argv + ["--spec", path]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


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
], ids=["hodge-2x3-phi", "roundtrip-2x3-phi", "dual-2x3-phi",
        "dual-2x2-phi-for-3-weights", "zip-to-2x2-phi-for-3-weights",
        "act-1x2-element", "act-2x3-element"])
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
