"""Spans around the calls into macroq's layers, recorded from outside the package.

A `Tracer` wraps the public functions of each layer by rebinding every
reference to them in the macroq modules; `uninstall` puts the originals back.
Spans (id, parent id, name, start, end, attributes) stay in memory and are
written out as JSON lines when the run ends. Times come from
`time.perf_counter_ns`, which on Linux reads the system-wide monotonic clock,
so spans recorded in CLI child processes nest under the parent's spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field

# Span names per layer, keyed by "module:attribute". Methods are "module:Class.method".
LAYER_SPANS = {
    "states": {
        "macroq.states:DensityMatrix.__post_init__": "states.validate",
        "macroq.states:PureState.__post_init__": "states.validate",
        "macroq.states:fock_state": "states.build",
        "macroq.states:coherent_state": "states.build",
        "macroq.states:cat_state": "states.build",
        "macroq.states:cat_mixture": "states.build",
        "macroq.states:fock_mixture": "states.build",
        "macroq.states:thermal_state": "states.build",
        "macroq.states:mix": "states.build",
        "macroq.states:product_state": "states.build",
        "macroq.states:displaced": "states.build",
        "macroq.states:random_pure_state": "states.build",
        "macroq.states:random_mixed_state": "states.build",
        "macroq.states:save_state": "states.save",
        "macroq.states:load_state": "states.load",
    },
    "fock": {
        "macroq.fock:annihilation_op": "fock.embed",
        "macroq.fock:creation_op": "fock.embed",
        "macroq.fock:quadrature_q": "fock.embed",
        "macroq.fock:quadrature_p": "fock.embed",
    },
    "measures": {
        "macroq.measures:measure_I": "measures.I",
        "macroq.measures:measure_I_forms": "measures.I",
        "macroq.measures:measure_C": "measures.C",
        "macroq.states:purity": "measures.purity",
        "macroq.measures:measure_report": "measures.report",
        "macroq.measures:pure_state_measures": "measures.pure_report",
    },
    "wigner": {
        "macroq.wigner:wigner_from_density": "wigner.transform",
        "macroq.wigner:measure_C_wigner": "wigner.C_grid",
        "macroq.wigner:measure_P_wigner": "wigner.P_grid",
        "macroq.wigner:wigner_measure_report": "wigner.report",
        "macroq.wigner:PhaseSpaceGrid.to_csv": "wigner.export",
        "macroq.wigner:PhaseSpaceGrid.to_json_dict": "wigner.export",
    },
    "verify": {
        "macroq.verify:run_verification": "verify.run",
        **{
            f"macroq.verify:check_{name}": f"verify.check.{name}"
            for name in (
                "gaussian_family", "gaussian_family_wigner", "fock_mixture_degeneracy",
                "cat_mixture_values", "identity", "pure_state_relation", "dual_pipeline",
                "three_two_term", "displacement_invariance", "tensor_composition",
                "chi2_positivity",
            )
        },
    },
}

MACROQ_MODULES = (
    "macroq", "macroq.states", "macroq.fock", "macroq.measures",
    "macroq.wigner", "macroq.cli", "macroq.verify",
)


@dataclass
class Span:
    id: str
    parent: str | None
    name: str
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "Span":
        return cls(**json.loads(line))


class Tracer:
    """In-memory span recorder with install/uninstall of the layer wrappers."""

    def __init__(self, default_parent: str | None = None) -> None:
        self.spans: list[Span] = []
        self.default_parent = default_parent
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._embedded: set = set()

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> str | None:
        stack = self._stack()
        return stack[-1] if stack else self.default_parent

    def begin(self, name: str, **attrs) -> Span:
        span = Span(f"{os.getpid()}:{next(self._ids)}", self.current(), name,
                    time.perf_counter_ns(), attrs=attrs)
        self._stack().append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def add(self, spans: list[Span]) -> None:
        with self._lock:
            self.spans.extend(spans)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(span.to_json() + "\n")

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, func):
        if name == "fock.embed":
            return self._wrap_embed(func)
        if name == "states.save":
            return self._wrap_file(name, func, after=True)
        if name == "states.load":
            return self._wrap_file(name, func, after=False)
        if name == "wigner.transform":
            return self._wrap_transform(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.end(span)
        return traced

    def _wrap_embed(self, func):
        # Only the first call per (M, N, mode, operator) builds the dense matrix;
        # later calls are cache lookups and are left unspanned.
        @functools.wraps(func)
        def traced(spec, mode=1):
            key = (func.__name__, spec.num_modes, spec.truncation, mode)
            if key in self._embedded:
                return func(spec, mode)
            span = self.begin("fock.embed")
            try:
                op = func(spec, mode)
            finally:
                self.end(span)
            self._embedded.add(key)
            span.attrs["bytes"] = int(op.matrix.nbytes)
            return op
        return traced

    def _wrap_file(self, name, func, after: bool):
        @functools.wraps(func)
        def traced(state_or_path, *args, **kwargs):
            path = args[0] if after else state_or_path
            span = self.begin(name)
            try:
                if not after and os.path.exists(path):
                    span.attrs["bytes"] = os.path.getsize(path)
                return func(state_or_path, *args, **kwargs)
            finally:
                self.end(span)
                if after and os.path.exists(path):
                    span.attrs["bytes"] = os.path.getsize(path)
        return traced

    def _wrap_transform(self, func):
        @functools.wraps(func)
        def traced(rho, *args, **kwargs):
            span = self.begin("wigner.transform")
            try:
                grid = func(rho, *args, **kwargs)
            finally:
                self.end(span)
            span.attrs["cell_dyads"] = grid.nq * grid.np * rho.spec.truncation ** 2
            return grid
        return traced

    def install(self) -> None:
        """Rebind every macroq reference to a traced function to its wrapper."""
        import importlib

        if self._patches:
            return
        modules = [importlib.import_module(name) for name in MACROQ_MODULES]
        for table in LAYER_SPANS.values():
            for target, name in table.items():
                mod_name, attr = target.split(":")
                owner = importlib.import_module(mod_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(name, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, int]:
    """Span duration minus the part of it that its child spans cover, per span id."""
    children: dict[str, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start_ns, span.end_ns))
    return {
        span.id: span.end_ns - span.start_ns
        - _covered(children.get(span.id, []), span.start_ns, span.end_ns)
        for span in spans
    }


def roots(spans: list[Span]) -> dict[str, str]:
    """Map each span id to the id of its outermost ancestor."""
    parent = {span.id: span.parent for span in spans}
    out: dict[str, str] = {}
    for span_id in parent:
        chain = [span_id]
        while parent.get(chain[-1]) in parent and chain[-1] not in out:
            chain.append(parent[chain[-1]])
        top = out.get(chain[-1], chain[-1])
        for item in chain:
            out[item] = top
    return out
