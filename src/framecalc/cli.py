"""Command-line front end: deterministic JSON reports for every operation.

Subcommands: ring, witt, frame, display, zip, ortho, k3, deform, selftest;
the `COMMANDS` table names each with its handler and ops.  A handler returns
only its payload, and `_emit` wraps it in the report envelope: the
`command` name and a `passed` that is true unless the payload says
otherwise.
Exit codes: 0 = success, 1 = a verification failed (the report carries a
witness, or a failed exactness check writes `error: verification failed:`
with its witness), 2 = input error (bad spec, unknown command, operands over
different frames or rings, budget exceeded).
Reports are emitted with sorted keys and fixed formatting, so the same spec
and seed always produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import linalg, serialize
from .serialize import SchemaError, dumps, require
from .rings import (EnumerationTooLarge, RingMismatch, VerificationError,
                    prime_field)
from .witt import WittRing, teichmuller, verschiebung, witt_frobenius
from .frames import (Thickening, WittFrame, ZipFrame, check_zip_projection,
                     frame_axiom_check)
from .displays import (classify_fzips, classify_orbits, dual, from_fzip,
                       in_display_group, is_isomorphic_bruteforce, tensor,
                       to_fzip, twist, unit_display)
from .orthogonal import (GramNotSplit, OrthDisplay, classify_orth_orbits,
                         decompose, is_self_dual_type, normalize_gram,
                         verify_orth)
from .deformation import (base_change, hodge_lift_parameters, k3_deform,
                          lift_orth_display)
from . import fixtures

EXIT_OK, EXIT_FAIL, EXIT_INPUT = 0, 1, 2


class InputError(ValueError):
    pass


def _load_spec(args, required=True):
    if args.spec is None:
        if required:
            raise InputError("this operation requires --spec <file>")
        return None
    try:
        with open(args.spec) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read spec: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {args.spec}: {exc}")
    if not isinstance(spec, dict):
        raise InputError(f"{args.spec}: the spec must be a JSON object")
    return spec


def _as_input(call, *args):
    """call(*args), with bad input (a ValueError) reported as itself; an
    enumeration past the cap goes on to `main` as an exceeded budget."""
    try:
        return call(*args)
    except EnumerationTooLarge:
        raise
    except ValueError as exc:
        raise InputError(str(exc))


def _emit(args, payload):
    """Write the report: the payload of `args.func`, under the command name
    and a `passed` that defaults to true."""
    name = f"{args.command} {args.op}" if args.op else args.command
    report = {"command": name, "passed": True, **payload}
    text = dumps(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.json or not args.out:
        sys.stdout.write(text if args.json else _summary(report))
    return EXIT_OK if report["passed"] else EXIT_FAIL


def _summary(report, prefix=""):
    """Human-readable digest: shallow scalar fields, one per line."""
    lines = []
    for key in sorted(report):
        val = report[key]
        if isinstance(val, (bool, int, float, str)):
            lines.append(f"{prefix}{key}: {val}")
        elif isinstance(val, dict) and key in ("checks", "counts"):
            lines.append(f"{prefix}{key}:")
            lines.append(_summary(val, prefix + "  ").rstrip("\n") + "\n")
    return "".join(line if line.endswith("\n") else line + "\n"
                   for line in lines)


# ---------------------------------------------------------------------------
# ring
# ---------------------------------------------------------------------------

def cmd_ring(args):
    spec = _load_spec(args)
    ring = serialize.ring_from_dict(spec.get("ring", spec))
    rng = random.Random(args.seed)
    elems = [fixtures.rand_ring_elem(ring, rng) for _ in range(12)]
    failures = []
    for a in elems[:4]:
        for b in elems[4:8]:
            for c in elems[8:]:
                if (a + b) + c != a + (b + c) or (a * b) * c != a * (b * c):
                    failures.append("associativity")
                if a * (b + c) != a * b + a * c:
                    failures.append("distributivity")
                if a * b != b * a:
                    failures.append("commutativity")
    q = ring.field.q
    return {
        "ring": serialize.ring_to_dict(ring),
        "size": ring.size,
        "rank": len(ring.basis),
        "basis": [serialize.mono_to_str(ring.vars, m) for m in ring.basis],
        "units": (q - 1) * q ** (len(ring.basis) - 1),
        "failures": sorted(set(failures)),
        "passed": not failures,
    }


# ---------------------------------------------------------------------------
# witt
# ---------------------------------------------------------------------------

def cmd_witt(args):
    spec = _load_spec(args)
    ring = serialize.ring_from_dict(require(spec, "ring"))
    m = serialize.to_int(require(spec, "m"), "m", low=1)
    wring = WittRing(ring, m)
    op = args.op
    if op == "frob" and m < 2:
        raise InputError("frob lowers the length; need m >= 2")
    if op == "teich":
        a = serialize.elem_from_dict(ring, require(spec, "a"))
        res = teichmuller(a, m)
    else:
        x = serialize.witt_from_list(wring, require(spec, "x"))
        if op in ("add", "mul"):
            y = serialize.witt_from_list(wring, require(spec, "y"))
            res = x + y if op == "add" else x * y
        else:
            res = witt_frobenius(x) if op == "frob" else verschiebung(x)
    return {"ring": serialize.ring_to_dict(ring), "m": m,
            "result": serialize.witt_to_list(res)}


# ---------------------------------------------------------------------------
# frame
# ---------------------------------------------------------------------------

def cmd_frame(args):
    spec = _load_spec(args, required=(args.op == "build"))
    if args.op == "build":
        frame = serialize.frame_from_dict(spec)
        return {"frame": serialize.frame_to_dict(frame),
                "s0_size": frame.s0.size}
    frames = [serialize.frame_from_dict(spec)] if spec else fixtures.fixture_frames()
    budget = args.budget or 20000
    checks = {}
    witnesses = {}
    for frame in frames:
        name = repr(frame)
        res = frame_axiom_check(frame, budget=budget, seed=args.seed)
        ok = res["passed"]
        if frame.kind in ("witt", "relative"):
            proj = check_zip_projection(frame, budget=budget, seed=args.seed)
            ok = ok and proj["passed"]
            if not proj["passed"]:
                witnesses[name] = proj["failures"][:3]
        if not res["passed"]:
            witnesses[name] = res["failures"][:3]
        checks[name] = ok
    return {
        "checks": checks,
        "witnesses": {k: [str(w) for w in v] for k, v in witnesses.items()},
        "passed": all(checks.values()),
    }


# ---------------------------------------------------------------------------
# display
# ---------------------------------------------------------------------------

def cmd_display(args):
    spec = _load_spec(args)
    op = args.op
    cap = args.budget or 10 ** 7
    if op == "classify":
        frame = serialize.frame_from_dict(require(spec, "frame"))
        mu = serialize.int_tuple(require(spec, "mu"), "mu")
        orbits = _as_input(classify_orbits, frame, mu, cap)
        reps = [serialize.display_to_dict(min(o, key=lambda d: str(d.phi)))
                for o in orbits]
        return {"orbits": len(orbits),
                "orbit_sizes": sorted(len(o) for o in orbits),
                "representatives": reps}
    if op in ("iso", "tensor"):
        d1 = serialize.display_from_dict(require(spec, "first"))
        d2 = serialize.display_from_dict(require(spec, "second"))
        if op == "iso":
            return {"isomorphic": is_isomorphic_bruteforce(d1, d2, cap)}
        return {"result": serialize.display_to_dict(tensor(d1, d2))}
    d = serialize.display_from_dict(require(spec, "display"))
    if op == "act":
        g = serialize.graded_from_dict(d.frame, require(spec, "element"), d.mu)
        if g.mu_row != d.mu or g.mu_col != d.mu:
            raise InputError("element: weights differ from the display's")
        if not in_display_group(g):
            raise InputError("element: not invertible in the display group")
        return {"result": serialize.display_to_dict(d.act(g))}
    if op == "hodge":
        return {"filtration": {str(k): v
                               for k, v in d.hodge_filtration().items()}}
    return {"result": serialize.display_to_dict(dual(d))}


# ---------------------------------------------------------------------------
# zip
# ---------------------------------------------------------------------------

def cmd_zip(args):
    spec = _load_spec(args)
    if args.op == "from":
        z = serialize.fzip_from_dict(require(spec, "zip"))
        frame = serialize.frame_from_dict(require(spec, "frame"))
        return {"result": serialize.display_to_dict(_as_input(from_fzip, z, frame))}
    d = serialize.display_from_dict(require(spec, "display"))
    z = _as_input(to_fzip, d)
    if args.op == "to":
        return {"result": serialize.fzip_to_dict(z)}
    back = from_fzip(z, d.frame)
    ok = back == d
    return {"roundtrip_identity": ok,
            "witness": None if ok else serialize.display_to_dict(back),
            "passed": ok}


# ---------------------------------------------------------------------------
# ortho / k3
# ---------------------------------------------------------------------------

def cmd_ortho(args):
    spec = _load_spec(args)
    if args.op == "check":
        ok = verify_orth(serialize.display_from_dict(require(spec, "display")))
        return {"orthogonal": ok, "passed": ok}
    frame = serialize.frame_from_dict(require(spec, "frame"))
    mu = serialize.int_tuple(require(spec, "mu"), "mu")
    if args.op == "classify":
        orbits = _as_input(classify_orth_orbits, frame, mu, args.budget or 10 ** 7)
        return {"orbits": len(orbits),
                "orbit_sizes": sorted(len(o) for o in orbits)}
    if "gram" in spec:
        # a Gram form has rows of weight -mu: entry (i, j) of degree mu_i + mu_j
        neg = tuple(-w for w in mu)
        B = serialize.graded_from_dict(frame, spec["gram"], mu, neg)
        if (B.mu_row, B.mu_col) != (neg, mu):
            raise InputError("gram: the weights must be -mu by mu")
        grams = [B]
    else:
        if frame.kind != "relative":
            raise InputError('random perturbations need a relative frame; '
                             'give a "gram" for any other')
        if not is_self_dual_type(mu):
            raise InputError("random perturbations need a self-dual weight type")
        rng = random.Random(args.seed)
        count = serialize.to_int(spec.get("count", 1), "count", low=1)
        grams = [fixtures.rand_gram_perturbation(frame, mu, rng)
                 for _ in range(count)]
    results = []
    ok = True
    for B in grams:
        try:
            # raises unless A^t B A is the split form exactly
            A = normalize_gram(B)
        except GramNotSplit as exc:
            results.append({"split": False, "witness": str(exc)})
            ok = False
            continue
        results.append({"split": True, "verified": True,
                        "basis_change": serialize.graded_to_dict(A)})
    return {"results": results, "count": len(grams), "passed": ok}


def cmd_k3(args):
    spec = _load_spec(args)
    d = serialize.display_from_dict(require(spec, "display"))
    t = twist(d, 1 if args.op == "pack" else -1)
    out = serialize.display_to_dict(t)
    if args.op == "unpack":
        out["selfdual"] = verify_orth(t)
    return {"result": out}


# ---------------------------------------------------------------------------
# deform
# ---------------------------------------------------------------------------

def _deform_inputs(args):
    spec = _load_spec(args, required=False)
    if spec is None:
        th, d = fixtures.k3_fixture() if args.op == "k3" else fixtures.gl2_fixture()
        return th, d, isinstance(d, OrthDisplay)
    ext = serialize.ext_from_dict(require(spec, "ext"))
    m = serialize.to_int(spec.get("m", 2), "m", low=2)
    try:
        th = Thickening(ext, m)
    except ValueError as exc:
        raise SchemaError(f"deform spec: {exc}")
    selfdual = bool(spec.get("selfdual")) or args.op == "k3"
    desc = require(spec, "display")
    if isinstance(desc, dict):
        desc = {"selfdual": selfdual, **desc}
    d = serialize.display_from_dict(desc, frame=th.target)
    if selfdual and args.op != "lift" and d.n < 2:
        # the isotropic Hodge lifts take rank - 2 values each
        raise InputError("Hodge lifts of a self-dual display need rank >= 2")
    return th, d, selfdual


def cmd_deform(args):
    th, d, selfdual = _deform_inputs(args)
    if args.op == "lift":
        dhat = (lift_orth_display(th, d) if selfdual
                else base_change(d, th.source, th.lift0))
        ok = linalg.mat_eq(base_change(dhat, th.target, th.eps0).phi, d.phi)
        return {"lifted": serialize.display_to_dict(dhat),
                "reduces_to_input": ok, "passed": ok}
    if args.op == "hodge":
        params = list(hodge_lift_parameters(th.source, d.mu, orth=selfdual))
        ser = []
        for pr in params:
            if selfdual:
                ser.append([serialize.elem_to_dict(x) for x in pr])
            else:
                ser.append({f"{i},{j}": serialize.elem_to_dict(x)
                            for (i, j), x in pr.items()})
        expected = th.source.ext.j_size ** (d.n - 2 if selfdual else
                                            sum(1 for i in range(d.n)
                                                for j in range(d.n)
                                                if d.mu[j] - d.mu[i] >= 1))
        return {"count": len(params), "expected": expected, "lifts": ser,
                "passed": len(params) == expected}
    if not selfdual:
        raise InputError("deform k3 requires a self-dual display")
    # raises unless every deformation is orthogonal and reduces to d
    deformations = k3_deform(th, d)
    transcript = []
    seen = set()
    ok = True
    for dd in deformations:
        key = json.dumps(serialize.matrix_to_json(dd.frame, dd.phi),
                         sort_keys=True)
        fresh = key not in seen
        seen.add(key)
        ok = ok and fresh
        transcript.append({"orthogonal": True, "reduces": True,
                           "distinct": fresh})
    expected = th.source.ext.j_size ** (d.n - 2)
    return {
        "count": len(deformations),
        "expected": expected,
        "deformations": [serialize.display_to_dict(dd) for dd in deformations],
        "transcript": transcript,
        "passed": ok and len(deformations) == expected,
    }


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def cmd_selftest(args):
    rng = random.Random(args.seed)
    budget = args.budget or 20000
    checks = {}

    F2 = prime_field(2)
    w22 = WittRing(F2, 2)
    elems = list(w22.elements())
    ok = True
    for x in elems:
        for y in elems:
            if x + y != y + x or x * y != y * x:
                ok = False
    for _ in range(100):
        x, y, z = (rng.choice(elems) for _ in range(3))
        if (x + y) + z != x + (y + z) or x * (y + z) != x * y + x * z:
            ok = False
    checks["witt_ring_axioms_W2_F2"] = ok

    F3 = prime_field(3)
    w23 = WittRing(F3, 2)
    acc, order = w23.one(), 1
    while not acc.is_zero():
        acc = acc + w23.one()
        order += 1
    checks["additive_order_W2_F3"] = (order == 9)

    for frame in fixtures.fixture_frames():
        res = frame_axiom_check(frame, budget=budget, seed=args.seed)
        checks[f"frame_axioms[{frame!r}]"] = res["passed"]

    zf = fixtures.fixture_frames()[1]  # zip frame of F_3
    ok = True
    for d in (unit_display(zf, 1, 0), unit_display(zf, 2, 1)):
        ok = ok and from_fzip(to_fzip(d), zf) == d
    checks["fzip_roundtrip_units"] = ok

    zf_f2 = ZipFrame(F2)
    orbits = classify_orbits(zf_f2, (1, 0))
    zips = classify_fzips(zf_f2, (1, 0))
    checks["orbit_count_F2"] = (len(orbits) == 2 == len(zips))

    wf = WittFrame(F3, 2)
    for _ in range(10):
        # raises unless q u recomposes g
        decompose(fixtures.rand_group_element(wf, (1, 0), rng))
    checks["decompose_random"] = True

    return {"checks": checks, "passed": all(checks.values())}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

COMMANDS = [
    ("ring", cmd_ring, None),
    ("witt", cmd_witt, ["add", "mul", "frob", "v", "teich"]),
    ("frame", cmd_frame, ["build", "check"]),
    ("display", cmd_display, ["act", "iso", "classify", "hodge", "tensor",
                              "dual"]),
    ("zip", cmd_zip, ["to", "from", "roundtrip"]),
    ("ortho", cmd_ortho, ["check", "normalize", "classify"]),
    ("k3", cmd_k3, ["pack", "unpack"]),
    ("deform", cmd_deform, ["lift", "hodge", "k3"]),
    ("selftest", cmd_selftest, None),
]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="framecalc",
        description="Exact arithmetic for truncated Witt vectors, frames, "
                    "displays, and their deformations over finite local rings.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", help="JSON input file")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for sampled checks (default 0)")
    common.add_argument("--budget", type=int, default=None,
                        help="enumeration budget cap")
    common.add_argument("--out", help="write the JSON report to this file")
    common.add_argument("--json", action="store_true",
                        help="print the full JSON report to stdout")
    sub = parser.add_subparsers(required=True)
    for name, func, ops in COMMANDS:
        p = sub.add_parser(name, parents=[common])
        if ops:
            p.add_argument("op", choices=ops)
        p.set_defaults(func=func, command=name, op=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _emit(args, args.func(args))
    except EnumerationTooLarge as exc:
        sys.stderr.write(f"error: budget exceeded: {exc}\n")
    except (InputError, SchemaError, RingMismatch) as exc:
        sys.stderr.write(f"error: {exc}\n")
    except VerificationError as exc:
        sys.stderr.write(f"error: verification failed: {exc}\n")
        return EXIT_FAIL
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
