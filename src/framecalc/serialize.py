"""JSON descriptors for rings, elements, frames, and displays.

The formats are meant for the command-line front end and for shipping
fixtures: a ring is {"p", "f", "modulus", "vars", "ideal"} with ideal
generators as monomial strings, an element is a {monomial: coefficient-list}
map, a frame is {"kind", "ring"/"ext", "m"}, and a display is
{"frame", "mu", "phi"}.  Serialization is deterministic (sorted keys) so
reports built from these dictionaries are byte-reproducible.
"""

from __future__ import annotations

import json

from .rings import ArtinRing, Field, SquareZeroExtension
from .witt import WittRing, WittVector
from .frames import (RelativeFrame, TautologicalFrame, WittFrame, ZipFrame)
from .displays import Display
from .orthogonal import OrthDisplay


class SchemaError(ValueError):
    """Malformed descriptor; message carries the offending path."""


def dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


# ---------------------------------------------------------------------------
# Monomials
# ---------------------------------------------------------------------------

def mono_to_str(variables, expo):
    parts = []
    for v, e in zip(variables, expo):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts) if parts else "1"


def mono_from_str(variables, s):
    expo = [0] * len(variables)
    s = s.strip()
    if s in ("", "1"):
        return tuple(expo)
    for part in s.split("*"):
        part = part.strip()
        if "^" in part:
            name, _, power = part.partition("^")
            try:
                e = int(power)
            except ValueError:
                raise SchemaError(f"bad exponent in monomial {s!r}")
        else:
            name, e = part, 1
        if name not in variables:
            raise SchemaError(f"unknown variable {name!r} in monomial {s!r}")
        expo[variables.index(name)] += e
    return tuple(expo)


# ---------------------------------------------------------------------------
# Rings and square-zero extensions
# ---------------------------------------------------------------------------

def ring_to_dict(ring):
    return {
        "p": ring.field.p,
        "f": ring.field.f,
        "modulus": list(ring.field.modulus),
        "vars": list(ring.vars),
        "ideal": [mono_to_str(ring.vars, g) for g in ring.ideal_gens],
    }


def ring_from_dict(desc):
    if not isinstance(desc, dict):
        raise SchemaError("ring descriptor must be an object")
    try:
        p = int(desc["p"])
    except KeyError:
        raise SchemaError("ring descriptor: missing 'p'")
    f = int(desc.get("f", 1))
    modulus = desc.get("modulus")
    variables = tuple(desc.get("vars", ()))
    ideal = [mono_from_str(variables, g) for g in desc.get("ideal", ())]
    try:
        field = Field(p, f, modulus)
        return ArtinRing(field, variables, ideal)
    except ValueError as exc:
        raise SchemaError(f"ring descriptor: {exc}")


def ext_to_dict(ext):
    return {
        "ring": ring_to_dict(ext.B),
        "extra": [mono_to_str(ext.B.vars, g) for g in ext.A.ideal_gens
                  if g not in ext.B.ideal_gens],
    }


def ext_from_dict(desc):
    if not isinstance(desc, dict) or "ring" not in desc:
        raise SchemaError("extension descriptor must carry 'ring'")
    B = ring_from_dict(desc["ring"])
    extra = [mono_from_str(B.vars, g) for g in desc.get("extra", ())]
    try:
        return SquareZeroExtension(B, extra)
    except ValueError as exc:
        raise SchemaError(f"extension descriptor: {exc}")


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

def elem_to_dict(e):
    return {mono_to_str(e.ring.vars, mono): list(cs) for mono, cs in e.terms()}


def _coeff_from_json(c):
    if isinstance(c, str):
        try:
            return int(c)
        except ValueError:
            raise SchemaError(f"coefficient {c!r} is not an integer")
    if isinstance(c, int) or (isinstance(c, list)
                              and all(isinstance(v, int) for v in c)):
        return c
    raise SchemaError(f"coefficient {c!r} must be an int or a list of ints")


def elem_from_dict(ring, desc):
    if isinstance(desc, int):
        return ring.el(desc)
    if not isinstance(desc, dict):
        raise SchemaError("element must be an int or a {monomial: coeffs} map")
    out = {mono_from_str(ring.vars, mono): _coeff_from_json(c)
           for mono, c in desc.items()}
    try:
        return ring.el(out)
    except ValueError as exc:
        raise SchemaError(f"element {desc!r}: {exc}")


def witt_to_list(w):
    return [elem_to_dict(c) for c in w.comps]


def witt_from_list(wring, lst):
    if not isinstance(lst, list) or len(lst) != wring.m:
        raise SchemaError(f"Witt vector must be a list of {wring.m} elements")
    return wring.el([elem_from_dict(wring.ring, c) for c in lst])


def s0_elem_to_json(s0, e):
    """Entry of a matrix over S0: Witt list for Witt-type S0, element map otherwise."""
    if isinstance(s0, WittRing):
        return witt_to_list(e)
    return elem_to_dict(e)


def s0_elem_from_json(s0, desc):
    if isinstance(s0, WittRing):
        return witt_from_list(s0, desc)
    return elem_from_dict(s0, desc)


def matrix_to_json(s0, M):
    return [[s0_elem_to_json(s0, e) for e in row] for row in M]


def matrix_from_json(s0, desc):
    if not isinstance(desc, list) or not desc:
        raise SchemaError("matrix must be a non-empty list of rows")
    return [[s0_elem_from_json(s0, e) for e in row] for row in desc]


def payload_to_json(frame, degree, payload):
    """Graded payloads: degree <= 0 lives in S0; positive degrees live in P,
    which for a relative frame is a (Witt vector, kernel element) pair."""
    if degree >= 1 and isinstance(frame, RelativeFrame):
        return [witt_to_list(payload[0]), elem_to_dict(payload[1])]
    return s0_elem_to_json(frame.s0, payload)


def payload_from_json(frame, degree, desc):
    if degree >= 1 and isinstance(frame, RelativeFrame):
        if not isinstance(desc, list) or len(desc) != 2:
            raise SchemaError("positive-degree relative payload must be a pair")
        return (witt_from_list(frame.s0, desc[0]),
                elem_from_dict(frame.ext.B, desc[1]))
    return s0_elem_from_json(frame.s0, desc)


def graded_to_dict(A):
    return {
        "mu": list(A.mu_col),
        "grid": [[payload_to_json(A.frame, e.degree, e.payload) for e in row]
                 for row in A.entries],
    }


def graded_from_dict(frame, desc, mu=None):
    from .displays import GradedMatrix
    if not isinstance(desc, dict) or "grid" not in desc:
        raise SchemaError("graded matrix descriptor must carry 'grid'")
    mu = tuple(int(w) for w in desc.get("mu", mu or ()))
    if not mu:
        raise SchemaError("graded matrix descriptor must carry 'mu'")
    grid = [[payload_from_json(frame, mu[j] - mu[i], e)
             for j, e in enumerate(row)]
            for i, row in enumerate(desc["grid"])]
    return GradedMatrix.from_payloads(frame, mu, grid)


def vector_to_json(ring, v):
    return [elem_to_dict(c) for c in v]


def fzip_to_dict(z):
    return {
        "ring": ring_to_dict(z.ring),
        "n": z.n,
        "weights": list(z.weights),
        "C": {str(i): [vector_to_json(z.ring, v) for v in cols]
              for i, cols in z.C.items()},
        "D": {str(i): [vector_to_json(z.ring, v) for v in cols]
              for i, cols in z.D.items()},
        "alpha": {str(i): [[vector_to_json(z.ring, r), vector_to_json(z.ring, v)]
                           for r, v in pairs]
                  for i, pairs in z.alpha.items()},
    }


def fzip_from_dict(desc):
    from .displays import FZip
    if not isinstance(desc, dict) or "alpha" not in desc:
        raise SchemaError("F-zip descriptor must carry 'alpha'")
    ring = ring_from_dict(desc["ring"])

    def vec(v):
        return [elem_from_dict(ring, c) for c in v]

    C = {int(i): [vec(v) for v in cols] for i, cols in desc.get("C", {}).items()}
    D = {int(i): [vec(v) for v in cols] for i, cols in desc.get("D", {}).items()}
    alpha = {int(i): [(vec(pair[0]), vec(pair[1])) for pair in pairs]
             for i, pairs in desc["alpha"].items()}
    return FZip(ring, int(desc["n"]), C, D, alpha)


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

def frame_to_dict(frame):
    if isinstance(frame, WittFrame):
        return {"kind": "witt", "ring": ring_to_dict(frame.ring), "m": frame.m}
    if isinstance(frame, ZipFrame):
        return {"kind": "zip", "ring": ring_to_dict(frame.ring)}
    if isinstance(frame, RelativeFrame):
        return {"kind": "relative", "ext": ext_to_dict(frame.ext), "m": frame.m}
    if isinstance(frame, TautologicalFrame):
        return {"kind": "tautological", "ring": ring_to_dict(frame.ring)}
    raise SchemaError(f"unknown frame object {frame!r}")


def frame_from_dict(desc):
    if not isinstance(desc, dict) or "kind" not in desc:
        raise SchemaError("frame descriptor must carry 'kind'")
    kind = desc["kind"]
    if kind == "witt":
        return WittFrame(ring_from_dict(desc["ring"]), int(desc.get("m", 1)))
    if kind == "zip":
        return ZipFrame(ring_from_dict(desc["ring"]))
    if kind == "relative":
        return RelativeFrame(ext_from_dict(desc["ext"]), int(desc.get("m", 2)))
    if kind == "tautological":
        return TautologicalFrame(ring_from_dict(desc["ring"]))
    raise SchemaError(f"frame descriptor: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Displays
# ---------------------------------------------------------------------------

def display_to_dict(d):
    return {
        "frame": frame_to_dict(d.frame),
        "mu": list(d.mu),
        "phi": matrix_to_json(d.frame.s0, d.phi),
        "selfdual": isinstance(d, OrthDisplay),
    }


def display_from_dict(desc, frame=None):
    if not isinstance(desc, dict) or "mu" not in desc or "phi" not in desc:
        raise SchemaError("display descriptor must carry 'mu' and 'phi'")
    if frame is None:
        frame = frame_from_dict(desc["frame"])
    mu = tuple(int(w) for w in desc["mu"])
    phi = matrix_from_json(frame.s0, desc["phi"])
    cls = OrthDisplay if desc.get("selfdual") else Display
    try:
        return cls(frame, mu, phi, check=True)
    except ValueError as exc:
        raise SchemaError(f"display descriptor: {exc}")
