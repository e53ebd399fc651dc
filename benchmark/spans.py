"""Spans around the public functions of each layer, for the traced run.

``Tracer.install`` replaces every module binding of each traced function in
the loaded ``reeb_orbit`` modules (``extract_reeb`` is bound in
``extraction``, in the package root and in ``cli``, for example) with one
wrapper that records a span; ``uninstall`` puts every original back.  Spans
(name, start, end, parent, job, count) are kept in memory and written out once, when
the run ends.  The untraced run installs nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Optional

# module -> public functions whose every binding gets a span
TRACED = {
    "surface": ("load_mesh", "validate_simple_morse"),
    "levels": ("trace_level", "slab_triangle_components"),
    "extraction": ("extract_reeb", "ensure_context"),
    "graph_core": ("genus", "boundary_cycles", "homology_dims"),
    "realization": ("realize",),
    "circulation": (
        "solve_circulations",
        "synthesize_form",
        "augment",
        "circulation_from_form",
        "lift_dashed_graph",
        "xi_class",
    ),
    "linalg": ("nullspace", "solve_exact"),
    "equivalence": ("match_measured",),
    "serialize": ("load_graph", "dumps"),
}
# per-layer metrics, reported per job; a name ends in "s" (busy seconds),
# "self_s" (busy seconds minus wrapped children), "calls" or a counter
LAYER_METRICS = [
    "surface.load_mesh.s",
    "surface.PLSurface.s",
    "surface.PLSurface.tris",
    "surface.validate_simple_morse.s",
    "levels.trace_level.calls",
    "levels.trace_level.s",
    "levels.slab_triangle_components.calls",
    "levels.slab_triangle_components.s",
    "levels.tri_visits",
    "extraction.extract_reeb.calls",
    "extraction.extract_reeb.s",
    "extraction.extract_reeb.self_s",
    "extraction.ensure_context.calls",
    "extraction.ensure_context.reextractions",
    "graph_core.genus.s",
    "graph_core.boundary_cycles.s",
    "graph_core.homology_dims.s",
    "realization.realize.calls",
    "realization.realize.s",
    "realization.realize.tris",
    "circulation.solve_circulations.s",
    "circulation.synthesize_form.s",
    "circulation.synthesize_form.self_s",
    "circulation.augment.s",
    "circulation.circulation_from_form.calls",
    "circulation.circulation_from_form.s",
    "circulation.lift_dashed_graph.s",
    "circulation.xi_class.s",
    "linalg.nullspace.s",
    "linalg.solve_exact.s",
    "equivalence.match_measured.calls",
    "equivalence.match_measured.s",
    "serialize.load_graph.s",
    "serialize.dumps.s",
]


def _triangles_of_first_arg(args: tuple, result: Any) -> int:
    return len(args[0].triangles)


# counters recorded at a span's end: span name -> (counter, function)
_COUNTED: dict[str, tuple[str, Callable[[tuple, Any], int]]] = {
    "surface.PLSurface": ("surface.PLSurface.tris", _triangles_of_first_arg),
    "levels.trace_level": ("levels.tri_visits", _triangles_of_first_arg),
    "levels.slab_triangle_components": ("levels.tri_visits", _triangles_of_first_arg),
    "realization.realize": (
        "realization.realize.tris",
        lambda args, result: len(result.surface.triangles),
    ),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, job, count]
        self.job: Optional[int] = None
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counted = _COUNTED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self.job, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if counted is not None:
                span[5] = counted[1](args, result)
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for n, m in list(sys.modules.items()) if n == "reeb_orbit" or n.startswith("reeb_orbit.")
        ]
        for mod_name, names in TRACED.items():
            module = importlib.import_module(f"reeb_orbit.{mod_name}")
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        # the constructor is traced on the class itself
        from reeb_orbit.surface import PLSurface

        self._restore.append((PLSurface, "__init__", PLSurface.__dict__["__init__"]))
        PLSurface.__init__ = self._wrap("surface.PLSurface", PLSurface.__init__)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def totals(self, jobs: set[int]) -> Counter:
        """Busy seconds, self seconds, calls and counters over the given jobs."""
        out: Counter = Counter()
        child_time: Counter = Counter()
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        ensure_with_extract: set[int] = set()
        for idx, (name, start, end, parent, job, count) in enumerate(self.spans):
            if job not in jobs:
                continue
            if name in _COUNTED:
                out[_COUNTED[name][0]] += count
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[idx]
            if name == "extraction.extract_reeb" and parent >= 0:
                if self.spans[parent][0] == "extraction.ensure_context":
                    ensure_with_extract.add(parent)
        out["extraction.ensure_context.reextractions"] = len(ensure_with_extract)
        return out

    def write(self, path: Path) -> None:
        doc = {
            "fields": ["name", "start", "end", "parent", "job", "count"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
