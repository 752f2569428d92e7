"""Checks that hold in every interpreter mode, and caps that hold before
any enumeration starts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from framecalc import orthogonal
from framecalc.frames import WittFrame
from framecalc.rings import prime_field

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
