"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install`` rebinds public weightlab functions and methods to
wrappers in this process only, at every name a caller looks up: each
module attribute that holds the original (``cli.parse_fan`` as well as
``toric.parse_fan``) and the class attribute for methods.  ``uninstall``
restores every binding.  No file of the program changes.

A span's self time is its duration minus the time of the spans it
encloses; ``<layer>.s`` sums the self time of that layer's spans.  Time the
tracer spends counting object sizes is excluded from every span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

COUNT_KEYS = (
    "toric.parse_calls", "orbit.group_calls", "orbit.map_calls", "lattice.snf_calls",
    "build.cells", "build.boundary_nnz", "build.filtration_vectors",
    "complexes.validate_calls", "pages.sequences", "pages.entry_calls",
    "pages.entries_computed", "gf2.rref_calls", "gf2.preimage_calls",
    "gf2.intersect_calls", "gf2.quotient_calls",
)
SPAN_KEYS = (
    "toric.parse_s", "orbit.s", "build.s", "complexes.validate_s",
    "complexes.deligne_s", "pages.s", "reports.s", "cubical.s", "euler.s",
    "cli.self_s",
)
SUITES = ("toric", "fcomplex", "cubical", "euler")


class _Frame:
    __slots__ = ("child",)

    def __init__(self) -> None:
        self.child = 0.0


class Tracer:
    def __init__(self) -> None:
        self._bindings: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.suite_s: dict[str, float] = defaultdict(float)
        self._stack: list[_Frame] = []

    # -- recording -------------------------------------------------------

    def _timed(self, key: str, fn, args, kwargs):
        """Run fn as a span of layer key."""
        frame = _Frame()
        stack = self._stack
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            self.self_s[key] += dur - frame.child
            if stack:
                stack[-1].child += dur

    def _exclude(self, seconds: float) -> None:
        """Hide tracer bookkeeping from the enclosing span."""
        if self._stack:
            self._stack[-1].child += seconds

    def span(self, key: str, fn, count: str | None = None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count:
                self.counts[count] += 1
            return self._timed(key, fn, args, kwargs)
        return wrapper

    def counter(self, count: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[count] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _build(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._timed("build.s", fn, args, kwargs)
            t0 = time.perf_counter()
            try:
                cx = result.complex
                cells = sum(cx.dims.values())
                nnz = sum(bin(row).count("1")
                          for m in cx.boundary.values() for row in m.row_data)
                vectors = sum(sub.dim for by_k in result.filtered.filtration.values()
                              for sub in by_k.values())
            except (AttributeError, TypeError):
                pass  # a representation this tracer does not know: counts read 0
            else:
                self.counts["build.cells"] += cells
                self.counts["build.boundary_nnz"] += nnz
                self.counts["build.filtration_vectors"] += vectors
            self._exclude(time.perf_counter() - t0)
            return result
        return wrapper

    def _entry(self, fn):
        @functools.wraps(fn)
        def wrapper(ss, *key):
            self.counts["pages.entry_calls"] += 1
            if key not in getattr(ss, "_entry_cache", ()):
                self.counts["pages.entries_computed"] += 1
            return self._timed("pages.s", fn, (ss, *key), {})
        return wrapper

    def _suite(self, fn):
        @functools.wraps(fn)
        def wrapper(name):
            t0 = time.perf_counter()
            result = self._timed("checks.self_s", fn, (name,), {})
            self.suite_s[name] += time.perf_counter() - t0
            return result
        return wrapper

    # -- installing ------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every weightlab module attribute holding original at
        replacement."""
        for name, mod in list(sys.modules.items()):
            if not (name == "weightlab" or name.startswith("weightlab.")) or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._bindings.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _method(self, cls, name: str, make) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._bindings.append((cls, name, raw))
        setattr(cls, name, new)

    def _layer(self, module, key: str) -> None:
        """Span every public function of module, and the constructors,
        class methods and public methods of its classes."""
        for attr, value in list(vars(module).items()):
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if isinstance(value, type):
                for name, raw in list(vars(value).items()):
                    fn = getattr(raw, "__func__", raw)
                    if not callable(fn) or isinstance(raw, property):
                        continue
                    if name.startswith("_") and name not in ("__init__", "__post_init__"):
                        continue
                    self._method(value, name, lambda f: self.span(key, f))
            elif callable(value) and not attr.startswith("_"):
                self._rebind(value, self.span(key, value))

    def _wrap(self, module: str, name: str, make) -> None:
        """Wrap weightlab.<module>.<name> (``Class.method`` for methods).
        A name the program no longer has is skipped, and its metrics
        read 0."""
        mod = sys.modules.get(f"weightlab.{module}")
        owner, _, attr = name.rpartition(".")
        if owner:
            cls = getattr(mod, owner, None)
            if cls is not None and attr in vars(cls):
                self._method(cls, attr, make)
        elif (fn := getattr(mod, attr, None)) is not None:
            self._rebind(fn, make(fn))

    def install(self) -> None:
        def span(key, count=None):
            return lambda f: self.span(key, f, count)

        def counter(count):
            return lambda f: self.counter(count, f)

        validate = span("complexes.validate_s", "complexes.validate_calls")
        plan = [
            ("toric", "parse_fan", span("toric.parse_s", "toric.parse_calls")),
            ("toric", "Fan.__post_init__", span("toric.parse_s")),
            ("toric", "orbit_group", span("orbit.s", "orbit.group_calls")),
            ("toric", "orbit_map", span("orbit.s", "orbit.map_calls")),
            ("lattice", "smith_normal_form", counter("lattice.snf_calls")),
            ("toric", "toric_cell_complex", self._build),
            ("complexes", "ChainComplex.__post_init__", validate),
            ("complexes", "FilteredComplex.__post_init__", validate),
            ("complexes", "deligne_shift", span("complexes.deligne_s")),
            ("gf2", "rref", counter("gf2.rref_calls")),
            ("gf2", "preimage", counter("gf2.preimage_calls")),
            ("gf2", "BitSubspace.intersect", counter("gf2.intersect_calls")),
            ("gf2", "Quotient.__init__", counter("gf2.quotient_calls")),
            ("pages", "SpectralSequence.__init__", span("pages.s", "pages.sequences")),
            ("pages", "SpectralSequence.entry", self._entry),
            *(("pages", f"SpectralSequence.{m}", span("pages.s"))
              for m in ("page", "differential", "differentials", "infinity_page")),
            *(("pages", f, span("pages.s")) for f in (
                "reindexed_page", "reindexed_differential", "reindexed_infinity",
                "transported_page")),
            *(("pages", f, span("reports.s")) for f in (
                "purity_collapse_report", "weight_profile", "virtual_poincare")),
            ("checks", "run_suite", self._suite),
            ("cli", "main", span("cli.self_s")),
        ]
        for module, name, make in plan:
            self._wrap(module, name, make)
        # Modules the workload never imported are left alone.
        for module, key in (("cubical", "cubical.s"), ("euler", "euler.s")):
            if f"weightlab.{module}" in sys.modules:
                self._layer(sys.modules[f"weightlab.{module}"], key)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._bindings):
            setattr(owner, name, original)
        self._bindings.clear()

    # -- results ---------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Every per-layer value of the pass recorded since reset()."""
        out: dict[str, float] = {k: float(self.self_s.get(k, 0.0)) for k in SPAN_KEYS}
        out.update({k: self.counts.get(k, 0) for k in COUNT_KEYS})
        for s in SUITES:
            out[f"checks.{s}_s"] = float(self.suite_s.get(s, 0.0))
        calls = self.counts.get("pages.entry_calls", 0)
        out["pages.entry_hit_ratio"] = (
            1.0 - self.counts.get("pages.entries_computed", 0) / calls if calls else 0.0)
        return out
