"""In-memory spans and call counts around expcheb's public functions.

Used by traced runs only.  `Tracer.installed()` replaces each function in
`TRACED` by a wrapper in every expcheb module namespace that holds it, so
calls made from inside the library (``solve`` calling ``find_degree``,
``tail_bounds`` calling ``modified_bessel``) are recorded too; leaving the
block restores the originals.  Spans are kept in memory and written out by
the caller when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function, record a span).  modified_bessel runs thousands of
# times per certificate, so it is only counted.
TRACED = (
    ("approx", "predict_degree", True),
    ("approx", "find_degree", True),
    ("approx", "export_polynomial", True),
    ("coeffs", "tail_bounds", True),
    ("coeffs", "coefficient", True),
    ("coeffs", "modified_bessel", False),
    ("kde", "make_instance", True),
    ("kde", "solve", True),
    ("kde", "expand_kernel_poly", True),
    ("kde", "build_feature_matrices", True),
    ("kde", "kde_matvec", True),
    ("kde", "kde_bruteforce", True),
    ("cli", "main", True),
)

# Return values kept per op; certificates are small, feature matrices are not.
KEEP = frozenset({"approx.find_degree"})


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules     # short name -> expcheb submodule
        self.op = None             # label of the operation being recorded
        self.spans: list[list] = []  # [id, parent id, op, name, start, end]
        self.counts: dict = defaultdict(int)  # (op, name) -> calls
        self.results: dict = {}    # (op, name) -> last return value
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               self.op, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, spanned: bool):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.counts[(self.op, name)] += 1
            if not spanned:
                return fn(*args, **kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            if name in KEEP:
                self.results[(self.op, name)] = out
            return out
        return wrapped

    @contextmanager
    def installed(self):
        patched = []
        try:
            for mod_name, attr, spanned in TRACED:
                orig = getattr(self.modules[mod_name], attr)
                wrapper = self._wrap(f"{mod_name}.{attr}", orig, spanned)
                for mod in self.modules.values():
                    if getattr(mod, attr, None) is orig:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(patched):
                setattr(mod, attr, orig)

    def durations(self) -> dict:
        """(op, span name) -> summed wall time."""
        out: dict = defaultdict(float)
        for _, _, op, name, t0, t1 in self.spans:
            out[(op, name)] += t1 - t0
        return out

    def self_times(self) -> dict:
        """(op, layer) -> summed self time: each span minus its children."""
        child: dict = defaultdict(float)
        for _, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict = defaultdict(float)
        for sid, _, op, name, t0, t1 in self.spans:
            out[(op, name.split(".")[0])] += (t1 - t0) - child[sid]
        return out
