"""Counters, self times and spans around framecalc, installed from outside.

`Tracer.install()` wraps every public function of the framecalc modules and
rebinds the wrapper in every module namespace that bound the function (so
`cli.k3_deform` and `deformation.k3_deform` both count), and wraps the
public methods and arithmetic operators of every framecalc class in the
class itself (so subclass overrides such as `OrthDisplay.act` count too).

Every wrapper keeps an aggregated counter: calls, busy time (time inside the
outermost active call of that function) and, for generators, items yielded.
Only the coarse boundaries in SPAN_KEYS also record a span each; the hot
leaf operations (ring, Witt and matrix arithmetic) never do.  A module's
self time is the time spent in its wrapped calls minus the time of the
wrapped calls they made; whatever runs outside every wrapped call is the
benchmark's own time, reported as `trace.other_s`.
"""

from __future__ import annotations

import functools
import inspect
import time
import uuid

MODULES = ("rings", "wittpoly", "witt", "linalg", "frames", "displays",
           "orthogonal", "deformation", "serialize", "cli", "fixtures")

# Short names for the counters the benchmark reports by name.
ALIASES = {
    "rings.RingElem.__mul__": "rings.mul",
    "rings.RingElem.__add__": "rings.add",
    "rings.RingElem.__sub__": "rings.sub",
    "rings.RingElem.__neg__": "rings.neg",
    "rings.RingElem.__pow__": "rings.pow",
    "witt.WittRing.add": "witt.add",
    "witt.WittRing.mul": "witt.mul",
    "witt.WittRing.neg": "witt.neg",
    "displays.Display.act": "displays.act",
    "deformation._solve_modp": "deformation.solve_modp",
}

# Private helpers worth a counter of their own (the mod-p solve).
EXTRA_PRIVATE = {"deformation._solve_modp"}

# Coefficient-level field arithmetic runs inside every ring operation; its
# time is part of the `rings` self time without a counter of its own.
SKIP_CLASSES = {"rings.FieldElem"}

ARITHMETIC = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__")

# Calls that record a span each: top-level work, isomorphism queries,
# frame checks, classifications and lift-pair builds.
SPAN_KEYS = {
    "wittpoly.verify_ghost_identities",
    "frames.frame_axiom_check",
    "frames.check_zip_projection",
    "displays.classify_orbits",
    "displays.classify_fzips",
    "orthogonal.normalize_gram",
    "deformation.k3_deform",
    "deformation.classify_witt_fiber",
    "deformation.stabilizer_lifts",
    "deformation.witt_zip_lift_pairs",
    "deformation.witt_orth_zip_lift_pairs",
    "deformation.orth_zip_lift_pairs",
    "deformation.is_isomorphic_witt",
    "cli.main",
}

LIFT_PAIR_KEYS = ("deformation.witt_zip_lift_pairs",
                  "deformation.witt_orth_zip_lift_pairs",
                  "deformation.orth_zip_lift_pairs")


class Stat:
    __slots__ = ("calls", "busy", "depth", "yielded")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.depth = 0
        self.yielded = 0


class Tracer:
    """Aggregated counters plus coarse spans for one traced round."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.stats = {}
        self.counts = {}
        self.self_time = {m: 0.0 for m in MODULES}
        self.stack = [[0.0]]          # child time of each active wrapped call
        self.spans = []               # [id, parent, name, start, end]
        self.span_stack = []
        self.origin = time.perf_counter()

    # -- recording -------------------------------------------------------------

    def stat(self, key):
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = Stat()
        return st

    def bump(self, key, dt):
        st = self.stat(key)
        st.calls += 1
        st.busy += dt

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def active(self, key):
        st = self.stats.get(key)
        return st is not None and st.depth > 0

    def open_span(self, name):
        sid = len(self.spans)
        parent = self.span_stack[-1] if self.span_stack else None
        self.spans.append([sid, parent, name,
                           time.perf_counter() - self.origin, None])
        self.span_stack.append(sid)
        return sid

    def close_span(self, sid):
        self.spans[sid][4] = time.perf_counter() - self.origin
        self.span_stack.pop()

    def begin_phase(self):
        """Start a fresh accounting phase; returns a snapshot for `delta`."""
        if len(self.stack) != 1:
            raise RuntimeError("a traced call is still active")
        self.stack[0][0] = 0.0
        for m in self.self_time:
            self.self_time[m] = 0.0
        return ({k: (s.calls, s.busy, s.yielded) for k, s in self.stats.items()},
                dict(self.counts))

    def delta(self, snap):
        """Counters accumulated since `snap`, as plain dicts."""
        base, base_counts = snap
        stats = {}
        for k, s in self.stats.items():
            c0, b0, y0 = base.get(k, (0, 0.0, 0))
            if s.calls - c0 or s.yielded - y0:
                stats[k] = {"calls": s.calls - c0, "busy_s": s.busy - b0,
                            "yielded": s.yielded - y0}
        counts = {k: v - base_counts.get(k, 0) for k, v in self.counts.items()}
        return stats, counts

    # -- wrappers ----------------------------------------------------------------

    def _wrap_call(self, key, fn, post=None):
        st = self.stat(key)
        mod = key.split(".", 1)[0]
        self_time = self.self_time
        stack = self.stack
        clock = time.perf_counter
        span = key in SPAN_KEYS
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            st.depth += 1
            frame = [0.0]
            stack.append(frame)
            sid = tr.open_span(key) if span else None
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                self_time[mod] += dt - frame[0]
                st.depth -= 1
                if not st.depth:
                    st.busy += dt
                if span:
                    tr.close_span(sid)
                if post is not None:
                    post(args, result, dt)
        return wrapper

    def _wrap_gen(self, key, fn):
        st = self.stat(key)
        mod = key.split(".", 1)[0]
        self_time = self.self_time
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            it = fn(*args, **kwargs)
            while True:
                st.depth += 1
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stack[-1][0] += dt
                    self_time[mod] += dt - frame[0]
                    st.depth -= 1
                    if not st.depth:
                        st.busy += dt
                st.yielded += 1
                yield item
        return wrapper

    def _post_hooks(self, key):
        """Extra counters taken from a call's arguments and result."""
        tr = self
        if key == "rings.mul":
            def post(args, result, dt):
                tr.bump("rings.mul.artin" if args[0].ring.vars
                        else "rings.mul.fq", dt)
            return post
        if key in ("linalg.mat_mul", "linalg.mat_inverse"):
            def post(args, result, dt):
                n = len(args[1])
                tr.bump(f"{key}.{n}x{n}", dt)
            return post
        if key == "displays.act":
            def post(args, result, dt):
                kind = args[0].frame.kind
                tr.bump(f"displays.act.{kind}", dt)
                if kind == "zip" and tr.active("deformation.is_isomorphic_witt"):
                    tr.count("deformation.zip_filter.attempts")
            return post
        if key == "deformation.solve_identity_iso":
            def post(args, result, dt):
                if tr.active("deformation.is_isomorphic_witt"):
                    tr.count("deformation.zip_filter.passes")
            return post
        if key == "frames.frame_axiom_check":
            def post(args, result, dt):
                if result is not None:
                    tr.count("frames.frame_axiom_check.checks", result["checks"])
            return post
        if key in LIFT_PAIR_KEYS:
            def post(args, result, dt):
                if result is not None:
                    tr.count("deformation.lift_pairs.count", len(result))
            return post
        return None

    def _wrap_witt_op(self, key, fn):
        """WittRing.add/mul: a hit found the memo entry, a miss grew the memo."""
        tr = self
        inner = self._wrap_call(key, fn)

        @functools.wraps(fn)
        def wrapper(wr, x, y):
            memo = wr._memo
            if memo is None:
                t0 = time.perf_counter()
                out = inner(wr, x, y)
                tr.bump(key + ".nomemo", time.perf_counter() - t0)
                return out
            before = len(memo)
            t0 = time.perf_counter()
            out = inner(wr, x, y)
            tr.bump(key + (".miss" if len(memo) > before else ".hit"),
                    time.perf_counter() - t0)
            return out
        return wrapper

    def _wrap_eval_terms(self, key, fn):
        """eval_terms is lru-cached; count the calls that derived a term list."""
        tr = self
        inner = self._wrap_call(key, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = fn.cache_info().misses
            out = inner(*args, **kwargs)
            tr.count("wittpoly.eval_terms.derivations",
                     fn.cache_info().misses - before)
            return out
        return wrapper

    def _wrapper_for(self, key, fn):
        if key in ("witt.add", "witt.mul"):
            return self._wrap_witt_op(key, fn)
        if key == "wittpoly.eval_terms":
            return self._wrap_eval_terms(key, fn)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_gen(key, fn)
        return self._wrap_call(key, fn, self._post_hooks(key))

    # -- installation --------------------------------------------------------------

    def install(self, package):
        """Wrap framecalc's public functions and methods."""
        mods = {name: getattr(package, name) for name in MODULES}
        replaced = {}
        for mname, mod in mods.items():
            for name, val in list(vars(mod).items()):
                key = f"{mname}.{name}"
                if inspect.isclass(val):
                    if val.__module__ == mod.__name__:
                        self._install_class(mname, val)
                    continue
                if not callable(val) or getattr(val, "__module__", None) != mod.__name__:
                    continue
                if name.startswith("_") and key not in EXTRA_PRIVATE:
                    continue
                key = ALIASES.get(key, key)
                replaced[id(val)] = (val, self._wrapper_for(key, val))
        # rebind in every namespace that bound the original by `from ... import`
        for ns in [package] + list(mods.values()):
            for name, val in list(vars(ns).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(ns, name, hit[1])

    def _install_class(self, mname, cls):
        cname = f"{mname}.{cls.__name__}"
        if cname in SKIP_CLASSES or issubclass(cls, BaseException):
            return
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in ARITHMETIC:
                continue
            key = ALIASES.get(f"{cname}.{name}", f"{cname}.{name}")
            if isinstance(attr, (classmethod, staticmethod)):
                wrapped = type(attr)(self._wrapper_for(key, attr.__func__))
            elif inspect.isfunction(attr):
                wrapped = self._wrapper_for(key, attr)
            else:
                continue
            setattr(cls, name, wrapped)


# Which named counters must be non-zero on which workload (wrapper coverage).
EXERCISED = {
    "frame-axioms": ["rings.mul.calls", "rings.add.calls", "rings.pow.calls",
                     "witt.add.calls", "witt.mul.calls", "witt.neg.calls",
                     "witt.mul.hit_us", "witt.memo.entries",
                     "frames.frame_axiom_check.checks",
                     "frames.frame_axiom_check.busy_s",
                     "frames.check_zip_projection.busy_s"],
    "witt-kernel": ["rings.mul.calls", "rings.add.calls", "witt.add.calls",
                    "witt.mul.calls", "witt.neg.calls", "witt.mul.miss_us",
                    "witt.memo.entries",
                    "wittpoly.verify_ghost_identities.busy_s",
                    "wittpoly.eval_terms.busy_s"],
    "k3-iso": ["linalg.mat_mul.calls", "linalg.mat_inverse.calls",
               "linalg.is_invertible.calls", "displays.act.zip.calls",
               "displays.act.witt.calls", "orthogonal.verify_orth.calls",
               "deformation.lift_pairs.count",
               "deformation.is_isomorphic_witt.calls",
               "deformation.solve_identity_iso.calls",
               "deformation.zip_filter.pass_ratio",
               "deformation.classify_witt_fiber.busy_s",
               "deformation.stabilizer_lifts.busy_s",
               "cli.main.busy_s", "serialize.dumps.busy_s", "cli.report_bytes"],
    "display-census": ["linalg.mat_mul.calls", "linalg.mat_inverse.calls",
                       "displays.group_elements.yielded",
                       "displays.classify_orbits.busy_s",
                       "displays.classify_fzips.busy_s",
                       "orthogonal.decompose.calls",
                       "orthogonal.normalize_gram.calls",
                       "orthogonal.normalize_gram.busy_s"],
}


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced round
# ---------------------------------------------------------------------------

# (name, unit); the traced run reports every one, 0 where a workload does
# not exercise the layer.  `*.us` / `*.ms` are unit costs: busy time / calls.
PER_LAYER = [
    ("rings.mul.calls", "count"), ("rings.mul.busy_s", "s"), ("rings.mul.us", "us"),
    ("rings.mul.fq.us", "us"), ("rings.mul.artin.us", "us"),
    ("rings.add.calls", "count"), ("rings.add.busy_s", "s"),
    ("rings.pow.calls", "count"), ("rings.self_s", "s"),
    ("wittpoly.eval_terms.busy_s", "s"), ("wittpoly.eval_terms.derivation_ms", "ms"),
    ("wittpoly.verify_ghost_identities.busy_s", "s"), ("wittpoly.self_s", "s"),
    ("witt.add.calls", "count"), ("witt.mul.calls", "count"), ("witt.neg.calls", "count"),
    ("witt.add.hit_us", "us"), ("witt.add.miss_us", "us"),
    ("witt.mul.hit_us", "us"), ("witt.mul.miss_us", "us"), ("witt.mul.nomemo_us", "us"),
    ("witt.memo.hit_ratio", "ratio"), ("witt.memo.entries", "count"), ("witt.self_s", "s"),
    ("linalg.mat_mul.calls", "count"), ("linalg.mat_mul.busy_s", "s"),
    ("linalg.mat_mul.4x4.us", "us"),
    ("linalg.mat_inverse.calls", "count"), ("linalg.mat_inverse.busy_s", "s"),
    ("linalg.mat_inverse.4x4.ms", "ms"),
    ("linalg.is_invertible.calls", "count"), ("linalg.self_s", "s"),
    ("frames.frame_axiom_check.busy_s", "s"), ("frames.frame_axiom_check.checks", "count"),
    ("frames.check_zip_projection.busy_s", "s"), ("frames.self_s", "s"),
    ("displays.act.zip.calls", "count"), ("displays.act.witt.calls", "count"),
    ("displays.act.busy_s", "s"), ("displays.act.us", "us"),
    ("displays.group_elements.yielded", "count"),
    ("displays.classify_orbits.busy_s", "s"), ("displays.classify_fzips.busy_s", "s"),
    ("displays.self_s", "s"),
    ("orthogonal.decompose.calls", "count"), ("orthogonal.normalize_gram.calls", "count"),
    ("orthogonal.normalize_gram.busy_s", "s"), ("orthogonal.verify_orth.calls", "count"),
    ("orthogonal.self_s", "s"),
    ("deformation.lift_pairs.count", "count"), ("deformation.lift_pairs.busy_s", "s"),
    ("deformation.is_isomorphic_witt.calls", "count"),
    ("deformation.is_isomorphic_witt.busy_s", "s"),
    ("deformation.solve_identity_iso.calls", "count"), ("deformation.solve_modp.us", "us"),
    ("deformation.zip_filter.pass_ratio", "ratio"),
    ("deformation.classify_witt_fiber.busy_s", "s"),
    ("deformation.stabilizer_lifts.busy_s", "s"), ("deformation.self_s", "s"),
    ("cli.main.busy_s", "s"), ("serialize.dumps.busy_s", "s"), ("cli.report_bytes", "bytes"),
    ("cli.self_s", "s"), ("serialize.self_s", "s"), ("fixtures.self_s", "s"),
    ("trace.job_s", "s"), ("trace.other_s", "s"), ("trace.overhead_frac", "ratio"),
    ("trace.wrapper_us", "us"),
]


def layer_metrics(round_, untraced_job_s, wrapper_us):
    """{name: value} for PER_LAYER from a traced round's worker result."""
    tr = round_["trace"]
    stats, counts, setup = tr["stats"], tr["counts"], tr["setup_stats"]

    def calls(key):
        return stats.get(key, {}).get("calls", 0)

    def busy(key, source=stats):
        return source.get(key, {}).get("busy_s", 0.0)

    def unit(key, scale):
        return busy(key) / calls(key) * scale if calls(key) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    hits = calls("witt.add.hit") + calls("witt.mul.hit")
    misses = calls("witt.add.miss") + calls("witt.mul.miss")
    eval_busy = busy("wittpoly.eval_terms", setup) + busy("wittpoly.eval_terms")
    derivations = (tr["setup_counts"].get("wittpoly.eval_terms.derivations", 0)
                   + counts.get("wittpoly.eval_terms.derivations", 0))
    self_s = tr["self_s"]
    job_s = round_["job_s"]
    out = {
        "rings.mul.calls": calls("rings.mul"), "rings.mul.busy_s": busy("rings.mul"),
        "rings.mul.us": unit("rings.mul", 1e6),
        "rings.mul.fq.us": unit("rings.mul.fq", 1e6),
        "rings.mul.artin.us": unit("rings.mul.artin", 1e6),
        "rings.add.calls": calls("rings.add"), "rings.add.busy_s": busy("rings.add"),
        "rings.pow.calls": calls("rings.pow"),
        "wittpoly.eval_terms.busy_s": eval_busy,
        "wittpoly.eval_terms.derivation_ms": ratio(eval_busy, derivations) * 1e3,
        "wittpoly.verify_ghost_identities.busy_s": busy("wittpoly.verify_ghost_identities"),
        "witt.add.calls": calls("witt.add"), "witt.mul.calls": calls("witt.mul"),
        "witt.neg.calls": calls("witt.neg"),
        "witt.add.hit_us": unit("witt.add.hit", 1e6),
        "witt.add.miss_us": unit("witt.add.miss", 1e6),
        "witt.mul.hit_us": unit("witt.mul.hit", 1e6),
        "witt.mul.miss_us": unit("witt.mul.miss", 1e6),
        "witt.mul.nomemo_us": unit("witt.mul.nomemo", 1e6),
        "witt.memo.hit_ratio": ratio(hits, hits + misses),
        "witt.memo.entries": round_["memo_entries"],
        "linalg.mat_mul.calls": calls("linalg.mat_mul"),
        "linalg.mat_mul.busy_s": busy("linalg.mat_mul"),
        "linalg.mat_mul.4x4.us": unit("linalg.mat_mul.4x4", 1e6),
        "linalg.mat_inverse.calls": calls("linalg.mat_inverse"),
        "linalg.mat_inverse.busy_s": busy("linalg.mat_inverse"),
        "linalg.mat_inverse.4x4.ms": unit("linalg.mat_inverse.4x4", 1e3),
        "linalg.is_invertible.calls": calls("linalg.is_invertible"),
        "frames.frame_axiom_check.busy_s": busy("frames.frame_axiom_check"),
        "frames.frame_axiom_check.checks": counts.get("frames.frame_axiom_check.checks", 0),
        "frames.check_zip_projection.busy_s": busy("frames.check_zip_projection"),
        "displays.act.zip.calls": calls("displays.act.zip"),
        "displays.act.witt.calls": calls("displays.act.witt"),
        "displays.act.busy_s": busy("displays.act"),
        "displays.act.us": unit("displays.act", 1e6),
        "displays.group_elements.yielded":
            stats.get("displays.group_elements", {}).get("yielded", 0),
        "displays.classify_orbits.busy_s": busy("displays.classify_orbits"),
        "displays.classify_fzips.busy_s": busy("displays.classify_fzips"),
        "orthogonal.decompose.calls": calls("orthogonal.decompose"),
        "orthogonal.normalize_gram.calls": calls("orthogonal.normalize_gram"),
        "orthogonal.normalize_gram.busy_s": busy("orthogonal.normalize_gram"),
        "orthogonal.verify_orth.calls": calls("orthogonal.verify_orth"),
        "deformation.lift_pairs.count": counts.get("deformation.lift_pairs.count", 0),
        "deformation.lift_pairs.busy_s": sum(busy(k) for k in LIFT_PAIR_KEYS),
        "deformation.is_isomorphic_witt.calls": calls("deformation.is_isomorphic_witt"),
        "deformation.is_isomorphic_witt.busy_s": busy("deformation.is_isomorphic_witt"),
        "deformation.solve_identity_iso.calls": calls("deformation.solve_identity_iso"),
        "deformation.solve_modp.us": unit("deformation.solve_modp", 1e6),
        "deformation.zip_filter.pass_ratio":
            ratio(counts.get("deformation.zip_filter.passes", 0),
                  counts.get("deformation.zip_filter.attempts", 0)),
        "deformation.classify_witt_fiber.busy_s": busy("deformation.classify_witt_fiber"),
        "deformation.stabilizer_lifts.busy_s": busy("deformation.stabilizer_lifts"),
        "cli.main.busy_s": busy("cli.main"),
        "serialize.dumps.busy_s": busy("serialize.dumps"),
        "cli.report_bytes": round_["notes"].get("cli.report_bytes", 0),
        "trace.job_s": job_s,
        "trace.other_s": job_s - sum(self_s.values()),
        "trace.overhead_frac": (job_s - untraced_job_s) / untraced_job_s,
        "trace.wrapper_us": wrapper_us,
    }
    for mod in MODULES:
        out[f"{mod}.self_s"] = self_s[mod]
    return out


def wrapper_cost_us(calls=20000):
    """Cost of one counted call, from a wrapped no-op on a private tracer."""
    def noop(x):
        return x
    wrapped = Tracer()._wrap_call("rings.noop", noop)
    t0 = time.perf_counter()
    for i in range(calls):
        noop(i)
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for i in range(calls):
        wrapped(i)
    return max(time.perf_counter() - t0 - bare, 0.0) / calls * 1e6
