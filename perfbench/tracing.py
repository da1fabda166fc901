"""Spans around the public functions of each layer, installed from outside.

``Tracer.install()`` replaces each wrapped function in its defining module
and in every ``danielewski`` module (the package itself included) that
imported it by name, and ``uninstall()`` puts every original back.  Spans
are kept in memory as ``(name, start, end, parent, op)`` tuples, where
``parent`` is the index of the enclosing span or -1 and ``op`` is the
operation id; self time is a span's duration minus the time covered by its
direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

WRAPPED = {
    "cli": ("main", "build_parser"),
    "surfexpr": ("parse_surface",),
    "fibration": ("build_surface", "degenerate_fibers", "relatively_connected_quotient",
                  "classify_cancellation"),
    "ideals": ("jacobian_smooth", "groebner_basis", "ideal_member_witness", "normal_form",
               "substitute_reduced", "verify_iso_certificate"),
    "cech": ("surface_class", "pic_group", "h1_push", "pole_profile", "orbit_equivalent"),
    "cylinder": ("cylinder_construction", "counterexample_pair", "splitting_solve",
                 "verify_splitting", "reexpress_on_cylinder"),
    "linsolve": ("solve_linear",),
    "ratpoly": ("substitute", "poly_from_str", "MultiPoly.__mul__"),
    "jsonio": ("analysis_report", "cylinder_proof", "counterexample_proof", "verify_proof",
               "dumps"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns)

# Counts and ratios read at the wrappers: (name, unit, better).
COUNTERS = (
    ("ideals.substitute_reduced.out_terms", "count", "lower"),
    ("linsolve.solve_linear.solved_ratio", "ratio", "higher"),
    ("cylinder.splitting_solve.raised", "count", "lower"),
    ("jsonio.dumps.bytes", "B", "lower"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[list] = []  # [span index, child time]
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.out_terms = 0
        self.solved = 0
        self.raised = 0
        self.dumped_bytes = 0
        self._patched: list[tuple] = []

    # -- spans ------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        observe = self._observers().get(name)
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            raised = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                raised = exc
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (name, start, end, parent, self.op)
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if observe is not None:
                    observe(None if raised else result, raised)

        return wrapper

    def _observers(self) -> dict:
        from danielewski.errors import NoSplittingFound

        def out_terms(result, exc):
            if exc is None:
                self.out_terms += len(result.terms)

        def solved(result, exc):
            if exc is None and result is not None:
                self.solved += 1

        def raised(result, exc):
            if isinstance(exc, NoSplittingFound):
                self.raised += 1

        def dumped(result, exc):
            if exc is None:
                self.dumped_bytes += len(result.encode("utf-8"))

        return {
            "ideals.substitute_reduced": out_terms,
            "linsolve.solve_linear": solved,
            "cylinder.splitting_solve": raised,
            "jsonio.dumps": dumped,
        }

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"danielewski.{name}") for name in WRAPPED}
        importers = [m for key, m in list(sys.modules.items())
                     if m is not None and (key == "danielewski" or key.startswith("danielewski."))]
        for mod_name, fns in WRAPPED.items():
            module = modules[mod_name]
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, attr = fn_name.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original))
                    continue
                original = getattr(module, fn_name)
                wrapper = self._wrap(name, original)
                for importer in importers:
                    if importer.__dict__.get(fn_name) is original:
                        self._patched.append((importer, fn_name, original))
                        setattr(importer, fn_name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = {"value": self.calls[name], "unit": "count"}
            out[f"{name}.self_s"] = {"value": self.self_s[name], "unit": "s"}
        solve_calls = self.calls["linsolve.solve_linear"]
        values = {
            "ideals.substitute_reduced.out_terms": self.out_terms,
            "linsolve.solve_linear.solved_ratio": self.solved / solve_calls if solve_calls else 0.0,
            "cylinder.splitting_solve.raised": self.raised,
            "jsonio.dumps.bytes": self.dumped_bytes,
        }
        for name, unit, _ in COUNTERS:
            out[name] = {"value": values[name], "unit": unit}
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
