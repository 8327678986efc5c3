"""Outside-in tracing of braidmono's public functions.

Tracer wraps each listed function as every module of the package sees
it: the defining module, every module that imported it by name, and the
class for methods.  Each call records a span; a function's self time is
its span minus the spans of traced calls made inside it.  A few
functions also add work counts read from their arguments or results.
uninstall() puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import defaultdict


def _samples(args, kwargs, result):
    return {"samples": len(result.times)}


def _letters(args, kwargs, result):
    return {"letters": len(result.letters)}


def _simplify(args, kwargs, result):
    return {"moves": len(result.moves), "truncated": int(result.truncated)}


def _consequence(args, kwargs, result):
    unknown = result.value == "Unknown"
    return {"derivable": int(not unknown), "unknown": int(unknown)}


def _assignments(args, kwargs, result):
    pres, group = args[0], args[1]
    return {"assignments_bound": group.order ** pres.rank}


def _checks(args, kwargs, result):
    return {
        "checks": len(result.checks),
        "checks_failed": sum(1 for c in result.checks if not c.passed),
    }


# (module, qualified name, count extractor, count names); the module is
# the layer.
TRACED = (
    ("curves", "parse_curve", None, ()),
    ("tracker", "track_loop", _samples, ("samples",)),
    ("motion", "motion_to_braid", _letters, ("letters",)),
    ("motion", "compose_motions", None, ()),
    ("motion", "MotionProgram.braid", None, ()),
    ("words", "artin_action", None, ()),
    ("words", "braid_equal", None, ()),
    ("vankampen", "induced_presentation", None, ()),
    ("vankampen", "braid_images", None, ()),
    ("presentations", "simplify", _simplify, ("moves", "truncated")),
    ("presentations", "is_consequence", _consequence, ("derivable", "unknown")),
    ("presentations", "canonical_relator", None, ()),
    ("homcount", "count_homomorphisms", _assignments, ("assignments_bound",)),
    ("homcount", "equivalence_evidence", None, ()),
    ("catalog", "verify_fixture", _checks, ("checks", "checks_failed")),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in TRACED))

# Span of the benchmark's own operation; its self time is work done
# outside every traced function.
ROOT = "op"


class _Stat:
    __slots__ = ("calls", "self_s", "unknown_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.unknown_s = 0.0
        self.counts = defaultdict(int)


PACKAGE = "braidmono"


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _enter(self):
        self._stack.append([time.perf_counter(), 0.0])

    def _exit(self, name, extra=None):
        end = time.perf_counter()
        start, child = self._stack.pop()
        span = end - start
        st = self.stats[name]
        st.calls += 1
        st.self_s += span - child
        if extra:
            if extra.get("unknown"):
                st.unknown_s += span - child
            for k, v in extra.items():
                st.counts[k] += v
        if self._stack:
            self._stack[-1][1] += span

    def op(self, fn, *args):
        """Run one benchmark operation under the root span."""
        self._enter()
        try:
            return fn(*args)
        finally:
            self._exit(ROOT)

    def _wrap(self, name, fn, extract):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(name)
                raise
            extra = extract(args, kwargs, result) if extract else None
            self._exit(name, extra)
            return result

        return traced

    # -- patching ------------------------------------------------------

    def modules(self):
        pkg = importlib.import_module(PACKAGE)
        mods = [pkg]
        for info in pkgutil.iter_modules(pkg.__path__):
            mods.append(importlib.import_module("%s.%s" % (PACKAGE, info.name)))
        return mods

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = self.modules()
        for modname, qualname, extract, _ in TRACED:
            name = "%s.%s" % (modname, qualname)
            owner = importlib.import_module("%s.%s" % (PACKAGE, modname))
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, attr, self._wrap(name, vars(cls)[attr], extract))
                continue
            orig = getattr(owner, qualname)
            wrapped = self._wrap(name, orig, extract)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapped)

    def _set(self, owner, key, value):
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        while self._patched:
            owner, key, orig = self._patched.pop()
            setattr(owner, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
