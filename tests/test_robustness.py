"""Checks that hold in every interpreter mode, and caps that hold before
any enumeration starts."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from framecalc import orthogonal
from framecalc.cli import EXIT_INPUT, main
from framecalc.displays import classify_orbits, group_elements
from framecalc.frames import WittFrame
from framecalc.rings import (EnumerationTooLarge, prime_field,
                             truncated_poly_ring)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_exactness_check_survives_optimize_mode():
    # adding elements of F_3 and F_5 must fail even with asserts stripped
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("from framecalc.rings import prime_field\n"
            "print(prime_field(3).one() + prime_field(5).one())\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0, proc.stdout
    assert "ring mismatch" in proc.stderr


def test_orth_classify_checks_the_display_cap_before_the_group(monkeypatch):
    # the orthogonal group of W_2(F_3) for the K3 type has 472,392 elements;
    # the 9^16 matrices over W_2(F_3) exceed the cap, which must fire first
    def group_enumerated(*args, **kwargs):
        raise AssertionError("the group was enumerated before the cap check")

    monkeypatch.setattr(orthogonal, "orth_group_elements", group_enumerated)
    frame = WittFrame(prime_field(3), 2)
    with pytest.raises(ValueError, match="too large to enumerate"):
        orthogonal.classify_orth_orbits(frame, (1, 0, 0, -1), cap=1000)


# W_3(F_3[x]/x^4) has 3^12 = 531,441 elements, and listing them allocates
# some 100 MiB; the 3^48 displays or group elements of type (1, 0) over it
# exceed the default cap of 10^7 by far, which is known before listing
_W3 = {"kind": "witt", "ring": {"p": 3, "vars": ["x"], "ideal": ["x^4"]}, "m": 3}


def _traced_peak(call):
    """call()'s result and the peak of the memory it allocated (tracemalloc)."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("refuse", [
    lambda frame: classify_orbits(frame, (1, 0)),
    lambda frame: next(group_elements(frame, (1, 0))),
], ids=["classify", "group"])
def test_oversized_display_enumerations_refuse_before_listing(refuse):
    frame = WittFrame(truncated_poly_ring(3, "x", 4), 3)

    def refused():
        with pytest.raises(EnumerationTooLarge, match="too large to enumerate"):
            refuse(frame)

    _, peak = _traced_peak(refused)
    assert peak < 4 << 20, f"peak {peak} bytes before the refusal"


def test_display_classify_refuses_an_oversized_spec_in_bounded_memory(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"frame": _W3, "mu": [1, 0]}))
    code, peak = _traced_peak(lambda: main(["display", "classify", "--spec", str(spec)]))
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: budget exceeded: display space too large to enumerate\n")
    assert peak < 4 << 20, f"peak {peak} bytes before the refusal"

