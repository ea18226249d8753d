"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: for the traced phase every
module attribute of ``planar_l21`` that is bound to one of the functions in
``TRACED`` is rebound to a timing wrapper, and restored afterwards.  Calls
made by the benchmark and calls one layer makes into another are both seen,
without any change to the library.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional

# module -> public functions timed in the traced run
TRACED: Dict[str, List[str]] = {
    "nae3sat": ["solve_nae_bruteforce"],
    "chords": ["arc_crossings"],
    "graphs": ["verify_planar", "to_json", "from_json"],
    "colouring": ["solve_2cpm", "solve_almost_2cpm", "verify_2cpm", "verify_coloured_orientation"],
    "labelling": ["solve_labelling", "verify_labelling", "enumerate_boundary_behaviour"],
    "gadgets": [
        "certify_H",
        "certify_clause_gadget",
        "certify_uncrossing",
        "certify_Hprime",
        "certify_edge_gadget",
    ],
    "pipeline": [
        "run_reduction",
        "nae_to_cubic",
        "planarize",
        "build_auxiliary",
        "build_instance",
        "assignment_to_matching",
        "matching_to_good_orientation",
        "orientation_to_labelling",
        "labelling_to_orientation",
        "canonicalize_orientation",
        "orientation_to_matching",
        "matching_to_assignment",
        "write_trace",
    ],
}

# certifiers that take k get one span name per k
_KEYED_BY_K = {"certify_Hprime", "certify_edge_gadget"}
# its spans also hold the outcome and node count of the result
_SOLVER = "labelling.solve_labelling"


class Recorder:
    """Spans as (name, start, end, parent index, pass, item, attrs)."""

    def __init__(self):
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self.pass_index = 0
        self.item: Optional[str] = None

    def wrap(self, name: str, fn: Callable, keyed: bool) -> Callable:
        solver = name == _SOLVER
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = f"{name}.k{args[0]}" if keyed else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (span_name, start, end, parent, self.pass_index, self.item, None)
            if solver:
                attrs = {"outcome": result.outcome, "nodes": result.nodes}
                spans[index] = spans[index][:6] + (attrs,)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced function in every loaded planar_l21 module."""
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("planar_l21")]
        restore = []
        try:
            for module_name, attrs in TRACED.items():
                home = sys.modules[f"planar_l21.{module_name}"]
                for attr in attrs:
                    original = getattr(home, attr)
                    wrapped = self.wrap(f"{module_name}.{attr}", original, attr in _KEYED_BY_K)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, key, wrapped)
                                restore.append((module, key, original))
            yield self
        finally:
            for module, key, original in reversed(restore):
                setattr(module, key, original)

    def pass_summary(self, pass_index: int) -> Dict[str, float]:
        """Per-pass sums: ``<span>.s`` inclusive seconds, ``<span>.calls``,
        verify_planar time by calling stage builder, solver nodes and
        outcomes."""
        out: Dict[str, float] = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for span in self.spans:
            if span[4] != pass_index:
                continue
            name, start, end, parent, _, _, attrs = span
            add(f"{name}.s", end - start)
            add(f"{name}.calls", 1)
            add("trace.spans", 1)
            if name == "graphs.verify_planar" and parent >= 0:
                caller = self.spans[parent][0]
                if caller.startswith("pipeline."):
                    add(f"graphs.verify_planar.{caller[len('pipeline.'):]}.s", end - start)
            if attrs is not None:
                add(f"{name}.nodes", attrs["nodes"])
                add(f"labelling.outcome.{attrs['outcome']}", 1)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, pass_index, item, attrs in self.spans:
                doc = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "pass": pass_index,
                    "item": item,
                }
                if attrs:
                    doc.update(attrs)
                fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
