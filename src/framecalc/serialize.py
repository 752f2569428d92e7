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
from .witt import WittRing
from .frames import (RelativeFrame, TautologicalFrame, WittFrame, ZipFrame)
from .displays import Display, FZip, GradedElem, GradedMatrix
from .orthogonal import OrthDisplay


class SchemaError(ValueError):
    """Malformed descriptor; message carries the offending path."""


def dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def require(desc, key, what="spec"):
    """desc[key] of a descriptor object; a SchemaError names what lacks it."""
    if not isinstance(desc, dict):
        raise SchemaError(f"{what} must be an object")
    if key not in desc:
        raise SchemaError(f"{what}: missing {key!r}")
    return desc[key]


def to_int(value, what, low=None):
    """An integer field, given as a JSON int or a string of one, and at
    least low if given; anything else (null, a bool, a float, other text)
    is a SchemaError."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            pass
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise SchemaError(f"{what} must be at least {low}, got {value}")
    return value


def int_tuple(values, what):
    """A list of integer fields, such as the weights mu."""
    if not isinstance(values, list):
        raise SchemaError(f"{what} must be a list of integers")
    return tuple(to_int(v, what) for v in values)


def str_list(values, what):
    """A list of names or monomial strings."""
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise SchemaError(f"{what} must be a list of strings")
    return values


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
    p = to_int(require(desc, "p", "ring descriptor"), "ring descriptor 'p'")
    f = to_int(desc.get("f", 1), "ring descriptor 'f'")
    modulus = desc.get("modulus")
    if modulus is not None:
        modulus = int_tuple(modulus, "ring descriptor 'modulus'")
    variables = tuple(str_list(desc.get("vars", []), "ring descriptor 'vars'"))
    ideal = [mono_from_str(variables, g)
             for g in str_list(desc.get("ideal", []), "ring descriptor 'ideal'")]
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
    B = ring_from_dict(require(desc, "ring", "extension descriptor"))
    extra = [mono_from_str(B.vars, g)
             for g in str_list(desc.get("extra", []), "extension descriptor 'extra'")]
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
    if isinstance(c, list):
        return list(int_tuple(c, "coefficient"))
    return to_int(c, "coefficient")


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


def payload_to_json(frame, degree, payload):
    """Graded payloads: degree <= 0 lives in S0, a Witt list for a Witt-type
    S0 and an element map otherwise; positive degrees live in P, which for a
    relative frame is a (Witt vector, kernel element) pair."""
    if degree >= 1 and isinstance(frame, RelativeFrame):
        return [witt_to_list(payload[0]), elem_to_dict(payload[1])]
    if isinstance(frame.s0, WittRing):
        return witt_to_list(payload)
    return elem_to_dict(payload)


def payload_from_json(frame, degree, desc):
    if degree >= 1 and isinstance(frame, RelativeFrame):
        if not isinstance(desc, list) or len(desc) != 2:
            raise SchemaError("positive-degree relative payload must be a pair")
        return (witt_from_list(frame.s0, desc[0]),
                elem_from_dict(frame.ext.B, desc[1]))
    if isinstance(frame.s0, WittRing):
        return witt_from_list(frame.s0, desc)
    x = elem_from_dict(frame.s0, desc)
    if degree >= 1 and not frame.has_p_module and not x.is_zero():
        raise SchemaError(f"positive-degree entry {desc!r} over a frame with P = 0")
    return x


def matrix_to_json(frame, M):
    """A matrix over S0: every entry is a payload of degree 0."""
    return [[payload_to_json(frame, 0, e) for e in row] for row in M]


def graded_to_dict(A):
    """{"mu", "grid"}, and "mu_row" when the row weights differ from mu."""
    desc = {
        "mu": list(A.mu_col),
        "grid": [[payload_to_json(A.frame, e.degree, e.payload) for e in row]
                 for row in A.entries],
    }
    if A.mu_row != A.mu_col:
        desc["mu_row"] = list(A.mu_row)
    return desc


def graded_from_dict(frame, desc, mu=None, mu_row=None):
    """The descriptor's "mu" and "mu_row" override the arguments; the row
    weights default to mu.  Entry (i, j) has degree mu[j] - mu_row[i]."""
    grid = require(desc, "grid", "graded matrix descriptor")
    if "mu" in desc:
        mu = int_tuple(desc["mu"], "graded matrix 'mu'")
    if not mu:
        raise SchemaError("graded matrix descriptor must carry 'mu'")
    if "mu_row" in desc:
        mu_row = int_tuple(desc["mu_row"], "graded matrix 'mu_row'")
    mu_row = mu if mu_row is None else mu_row
    n = len(mu)
    if len(mu_row) != n:
        raise SchemaError(f"graded matrix 'mu_row' must have {n} weights")
    if (not isinstance(grid, list) or len(grid) != n
            or any(not isinstance(row, list) or len(row) != n for row in grid)):
        raise SchemaError(f"graded matrix grid must be {n}x{n}")
    entries = [[GradedElem(frame, v - w, payload_from_json(frame, v - w, e))
                for v, e in zip(mu, row)] for w, row in zip(mu_row, grid)]
    return GradedMatrix(frame, mu_row, mu, entries)


def vector_to_json(v):
    return [elem_to_dict(c) for c in v]


def fzip_to_dict(z):
    return {
        "ring": ring_to_dict(z.ring),
        "n": z.n,
        "weights": list(z.weights),
        "C": {str(i): [vector_to_json(v) for v in cols]
              for i, cols in z.C.items()},
        "D": {str(i): [vector_to_json(v) for v in cols]
              for i, cols in z.D.items()},
        "alpha": {str(i): [[vector_to_json(r), vector_to_json(v)]
                           for r, v in pairs]
                  for i, pairs in z.alpha.items()},
    }


def fzip_from_dict(desc):
    what = "F-zip descriptor"
    require(desc, "alpha", what)
    ring = ring_from_dict(require(desc, "ring", what))
    n = to_int(require(desc, "n", what), f"{what} 'n'", low=1)

    def vec(v):
        if not isinstance(v, list) or len(v) != n:
            raise SchemaError(f"{what}: vectors must have {n} entries")
        return [elem_from_dict(ring, c) for c in v]

    def pieces(key, build):
        m = desc.get(key, {})
        if not isinstance(m, dict):
            raise SchemaError(f"{what}: {key!r} must map indices to lists")
        return {to_int(i, f"{what} index"): [build(v) for v in vs]
                for i, vs in m.items()}

    def pair(v):
        if not isinstance(v, list) or len(v) != 2:
            raise SchemaError(f"{what}: alpha entries must be pairs")
        return vec(v[0]), vec(v[1])

    return FZip(ring, n, pieces("C", vec), pieces("D", vec),
                pieces("alpha", pair))


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

def frame_to_dict(frame):
    if isinstance(frame, WittFrame):
        return {"kind": "witt", "ring": ring_to_dict(frame.ring), "m": frame.m}
    if isinstance(frame, TautologicalFrame):
        return {"kind": "tautological", "ring": ring_to_dict(frame.ring)}
    if isinstance(frame, ZipFrame):
        return {"kind": "zip", "ring": ring_to_dict(frame.ring)}
    if isinstance(frame, RelativeFrame):
        return {"kind": "relative", "ext": ext_to_dict(frame.ext), "m": frame.m}
    raise SchemaError(f"unknown frame object {frame!r}")


def frame_from_dict(desc):
    what = "frame descriptor"
    kind = require(desc, "kind", what)
    if kind == "witt":
        return WittFrame(ring_from_dict(require(desc, "ring", what)),
                         to_int(desc.get("m", 1), f"{what} 'm'", low=1))
    if kind == "zip":
        return ZipFrame(ring_from_dict(require(desc, "ring", what)))
    if kind == "relative":
        ext = ext_from_dict(require(desc, "ext", what))
        m = to_int(desc.get("m", 2), f"{what} 'm'", low=2)
        try:
            return RelativeFrame(ext, m)
        except ValueError as exc:
            raise SchemaError(f"{what}: {exc}")
    if kind == "tautological":
        return TautologicalFrame(ring_from_dict(require(desc, "ring", what)))
    raise SchemaError(f"frame descriptor: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Displays
# ---------------------------------------------------------------------------

def display_to_dict(d):
    return {
        "frame": frame_to_dict(d.frame),
        "mu": list(d.mu),
        "phi": matrix_to_json(d.frame, d.phi),
        "selfdual": isinstance(d, OrthDisplay),
    }


def display_from_dict(desc, frame=None):
    what = "display descriptor"
    mu = int_tuple(require(desc, "mu", what), f"{what} 'mu'")
    phi = require(desc, "phi", what)
    if frame is None:
        frame = frame_from_dict(require(desc, "frame", what))
    if (not isinstance(phi, list) or not phi
            or not all(isinstance(row, list) for row in phi)):
        raise SchemaError("matrix must be a non-empty list of rows")
    phi = [[payload_from_json(frame, 0, e) for e in row] for row in phi]
    cls = OrthDisplay if desc.get("selfdual") else Display
    try:
        return cls(frame, mu, phi, check=True)
    except ValueError as exc:
        raise SchemaError(f"display descriptor: {exc}")
