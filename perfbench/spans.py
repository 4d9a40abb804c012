"""In-memory span tracing around the public entry points of each vmsflow layer.

Spans are recorded from the benchmark's own code: every traced name is
replaced, for the duration of ``Tracer.installed()``, by a wrapper at the
place where the solver looks it up (``vmsflow.solve.assemble_system``, not
``vmsflow.newton.assemble_system``).  A target that no longer exists raises
``MissingTraceTarget`` instead of silently dropping a layer, so a refactor
of the program has to update ``TARGETS`` as well.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# (owner, attribute, span name).  The owner is a module or class path; the
# attribute is replaced on that owner only, i.e. where the caller looks it up.
TARGETS = (
    ("vmsflow.problems", "unit_square_mesh", "mesh.build"),
    ("vmsflow.problems", "backward_step_mesh", "mesh.build"),
    ("vmsflow.solve", "build_dof_map", "mesh.dof_map"),
    ("vmsflow.problems.ProblemSpec", "with_re", "problems.with_re"),
    ("vmsflow.newton", "ElementBatch", "newton.element_tables"),
    ("vmsflow.fixed_point", "ElementBatch", "newton.element_tables"),
    ("vmsflow.problems", "ElementBatch", "newton.element_tables"),
    ("vmsflow.solve", "assemble_system", "newton.assemble"),
    ("vmsflow.newton.NewtonSystem", "recover_beta", "newton.recover"),
    ("vmsflow.newton", "traction_vector", "newton.traction"),
    ("vmsflow.fixed_point", "traction_vector", "newton.traction"),
    ("vmsflow.solve", "fp_assemble", "fixed_point.assemble"),
    ("vmsflow.solve", "linear_solve", "solve.linear"),
    # linear_solve calls ``spla.splu`` with ``spla`` bound to scipy.sparse.linalg.
    ("vmsflow.solve.spla", "splu", "solve.lu_factor"),
)


class MissingTraceTarget(RuntimeError):
    """A traced entry point is gone from the program."""


def _resolve(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                raise MissingTraceTarget(f"trace owner {path} does not exist")
            obj = getattr(obj, attr)
        return obj
    raise MissingTraceTarget(f"trace owner {path} does not exist")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index into Tracer.spans
    op: int | None       # operation id shared by the spans of one operation


class Tracer:
    """Records spans in memory; ``lu_nnz`` keeps nnz(L) + nnz(U) per factorization."""

    def __init__(self):
        self.spans: list[Span] = []
        self.lu_nnz: list[tuple[int | None, int]] = []
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, perf_counter(), float("nan"), parent, self.op)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def _wrap(self, func, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if name == "solve.lu_factor":
                self.lu_nnz.append((self.op, result.L.nnz + result.U.nnz))
            return result
        # A class keeps its own __dict__; copy only the name and docstring.
        return functools.update_wrapper(traced, func, updated=())

    @contextmanager
    def installed(self):
        """Wrap every target; restore the originals on exit."""
        originals = []
        try:
            for owner_path, attr, name in TARGETS:
                owner = _resolve(owner_path)
                if attr not in vars(owner):
                    raise MissingTraceTarget(
                        f"{owner_path}.{attr} no longer exists; update perfbench/spans.py"
                    )
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def op_spans(self, op: int) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.op == op]

    def self_times(self) -> list[float]:
        """Span duration minus the union of its direct children's intervals."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = []
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for c in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s.end - s.start - covered)
        return out

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        selfs = self.self_times()
        with open(path, "w", encoding="ascii") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "op": s.op, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end, "self": selfs[i],
                }) + "\n")


def layer_totals(tracer: Tracer, op: int) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds of one op."""
    selfs = tracer.self_times()
    totals: dict[str, dict[str, float]] = {}
    for i, s in tracer.op_spans(op):
        t = totals.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["s"] += s.end - s.start
        t["self_s"] += selfs[i]
    return totals
