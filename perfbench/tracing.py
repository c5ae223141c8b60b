"""Span recorder for the traced run.

``Recorder.install`` wraps every public function of each hphex layer
module, and every public method of the classes those modules define.
Each wrapped call becomes a span (id, parent, name, start, end, thread)
kept in per-thread columns in memory and written once, after the run,
by ``save_spans``.  A wrapper replaces the original in every hphex
namespace that binds it, because some modules import functions by name
(``adapt`` binds ``refine_element`` and ``close_mesh``, ``mesh`` binds
``element_geometry``).

Each thread keeps its own span stack.  Work handed to a thread pool in
an hphex module takes the submitting span as its parent, so element
work done by ``-workers 2`` nests under the assembly call that waits
for it and self time is not counted twice.

Counters for the per-layer metrics are taken in probes on the functions
listed in ``PROBED``.  If one of those functions is renamed or removed,
``install`` raises instead of reporting the layer as zero.
"""

from __future__ import annotations

import array
import functools
import importlib
import itertools
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAYERS = ("masterel", "geometry", "physics", "mesh", "conformity", "dpg",
          "assembly", "poisson", "adapt", "vtu", "cli")

# Inclusive phases: time covered by the union of these spans.
PHASES = {
    "solve": ("poisson.solve_problem",),
    "estimate": ("adapt.estimate", "poisson.residual_summary"),
    "exact_error": ("poisson.compute_exact_error",),
    "refine": ("adapt.global_href", "adapt.mark_elements",
               "mesh.refine_element", "mesh.close_mesh",
               "conformity.update_gdof", "mesh.check_one_irregularity"),
    "export": ("vtu.export_vtu", "vtu.PvdSeries.add"),
}

ELEMENT_BUILDERS = ("poisson.elem_galerkin", "poisson.elem_primal_dpg",
                    "poisson.elem_uw_dpg", "poisson.elem_residual")


class TraceError(RuntimeError):
    """The program no longer has a function the recorder relies on."""


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class _Thread:
    """One thread's span stack, finished spans and counters."""

    def __init__(self, index):
        self.index = index
        self.stack = []
        self.names_open = []
        self.root_parent = 0
        self.sid = array.array("q")
        self.parent = array.array("q")
        self.name = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.overhead = 0.0
        self.count = {}
        self.peak = {}
        self.keys = {"shape": set(), "quad": set()}

    def add(self, key, value=1):
        self.count[key] = self.count.get(key, 0) + value

    def top(self, key, value):
        self.peak[key] = max(self.peak.get(key, value), value)


# ---------------------------------------------------------------------------
# probes: (thread, args, kwargs, result) after a call returns

def _shape_key(st, args, kwargs, result):
    xi = np.ascontiguousarray(_arg(args, kwargs, 1, "xi"), dtype=float)
    norder = _arg(args, kwargs, 2, "norder")
    st.keys["shape"].add((_arg(args, kwargs, 0, "space"), xi.shape,
                          hash(xi.tobytes()), tuple(np.ravel(norder))))
    st.add("shape_calls")


def _quad_key(fname):
    def probe(st, args, kwargs, result):
        counts = args[0] if args else next(iter(kwargs.values()))
        st.keys["quad"].add((fname, tuple(np.ravel(counts))))
        st.add("quad_calls")
    return probe


def _points(st, args, kwargs, result):
    st.add("points", len(result.x))


def _cholesky(st, args, kwargs, result):
    n = _arg(args, kwargs, 0, "g").n
    st.add("gram_factorizations")
    st.top("gram_n_max", n)
    st.add("flop", n ** 3 / 3.0)


def _tri_solve(st, args, kwargs, result):
    n = _arg(args, kwargs, 0, "u").n
    rhs = np.asarray(_arg(args, kwargs, 1, "rhs"))
    m = 1 if rhs.ndim == 1 else rhs.shape[1]
    st.add("flop", float(n) * n * m)


def _build(st, args, kwargs, result):
    st.add("element_builds")


def _solve(st, args, kwargs, result):
    st.add("element_steps", len(_arg(args, kwargs, 0, "mesh").ELEM_ORDER))


def _system(st, args, kwargs, result):
    system = result[0]
    st.top("ndof", system.ndof)
    st.top("nnz", system.matrix.nnz)


def _cg(st, args, kwargs, result):
    st.add("cg_iters", result[1])


def _mark(st, args, kwargs, result):
    st.add("marked", len(result))
    st.add("mark_candidates", len(_arg(args, kwargs, 0, "errors").mdles))


def _vtu_bytes(st, args, kwargs, result):
    st.add("vtu_bytes", os.path.getsize(result))


PROBED = {
    "masterel.shape_functions_elem": _shape_key,
    "masterel.gauss_1d": _quad_key("gauss_1d"),
    "masterel.gauss_quadrature_2d": _quad_key("gauss_quadrature_2d"),
    "masterel.gauss_quadrature_3d": _quad_key("gauss_quadrature_3d"),
    "geometry.element_geometry": _points,
    "dpg.packed_cholesky": _cholesky,
    "dpg.packed_tri_solve": _tri_solve,
    **{name: _build for name in ELEMENT_BUILDERS},
    "poisson.solve_problem": _solve,
    "assembly.assemble_system": _system,
    "assembly.cg_solve": _cg,
    "adapt.mark_elements": _mark,
    "vtu.export_vtu": _vtu_bytes,
}

# every name the probes and phases read (``Recorder._refinement`` probes
# mesh.refine_element and looks for mesh.close_mesh on the span stack)
REQUIRED = set(PROBED) | {n for names in PHASES.values() for n in names} | {
    "mesh.refine_element", "mesh.close_mesh"}


# ---------------------------------------------------------------------------

def hphex_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "hphex" or name.startswith("hphex.")]


def rebind(original, replacement):
    """Point every hphex name bound to ``original`` at ``replacement``."""
    for mod in hphex_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = []
        self.layer_of = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._closure = None
        self._probes = dict(PROBED, **{
            "mesh.refine_element": self._refinement})

    # -- recording ---------------------------------------------------------

    def _state(self) -> _Thread:
        try:
            return self._local.st
        except AttributeError:
            with self._lock:
                st = _Thread(len(self._threads))
                self._threads.append(st)
            self._local.st = st
            return st

    def _wrap(self, fn, qualname):
        index = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(LAYERS.index(qualname.split(".", 1)[0]))
        probe = self._probes.get(qualname)
        state, ids, perf = self._state, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf()
            st = state()
            stack = st.stack
            parent = stack[-1] if stack else st.root_parent
            sid = next(ids)
            stack.append(sid)
            st.names_open.append(index)
            t1 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = perf()
                stack.pop()
                st.names_open.pop()
                st.sid.append(sid)
                st.parent.append(parent)
                st.name.append(index)
                st.start.append(t1)
                st.end.append(t2)
            if probe is not None:
                probe(st, args, kwargs, result)
            st.overhead += (t1 - t0) + (perf() - t2)
            return result

        return traced

    def _adopting_pool(self):
        recorder = self

        class AdoptingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                st = recorder._state()
                parent = st.stack[-1] if st.stack else st.root_parent
                return super().submit(recorder._adopt, parent, fn,
                                      *args, **kwargs)

        return AdoptingPool

    def _adopt(self, parent, fn, *args, **kwargs):
        st = self._state()
        saved, st.root_parent = st.root_parent, parent
        try:
            return fn(*args, **kwargs)
        finally:
            st.root_parent = saved

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every public function and method of the layer modules."""
        targets = []            # (qualified name, original, rebinding)
        for layer in LAYERS:
            mod = importlib.import_module(f"hphex.{layer}")
            for attr, value in vars(mod).items():
                if attr.startswith("_") or getattr(
                        value, "__module__", None) != mod.__name__:
                    continue
                if isinstance(value, type):
                    targets += [(f"{layer}.{value.__name__}.{m}", raw,
                                 functools.partial(setattr, value, m))
                                for m, raw in vars(value).items()
                                if not m.startswith("_")
                                and _is_method(raw)]
                elif callable(value):
                    targets.append((f"{layer}.{attr}", value,
                                    functools.partial(rebind, value)))
        missing = sorted(REQUIRED - {name for name, _, _ in targets})
        if missing:
            raise TraceError(
                "hphex no longer defines " + ", ".join(missing) +
                "; update PROBED and PHASES in perfbench/tracing.py")
        for name, raw, bind in targets:
            if isinstance(raw, (staticmethod, classmethod)):
                bind(type(raw)(self._wrap(raw.__func__, name)))
            else:
                bind(self._wrap(raw, name))
        self._closure = self.names.index("mesh.close_mesh")
        rebind(ThreadPoolExecutor, self._adopting_pool())

    def _refinement(self, st, args, kwargs, result):
        st.add("refinements")
        if self._closure in st.names_open:
            st.add("closure_refinements")


def _is_method(raw):
    if isinstance(raw, (staticmethod, classmethod)):
        return True
    return callable(raw) and not isinstance(raw, type)


# ---------------------------------------------------------------------------
# analysis, after the run

def union_length(starts, ends) -> float:
    """Length of the union of the intervals [starts[i], ends[i]]."""
    if len(starts) == 0:
        return 0.0
    order = np.argsort(starts, kind="stable")
    total, lo, hi = 0.0, starts[order[0]], ends[order[0]]
    for i in order[1:]:
        if starts[i] > hi:
            total += hi - lo
            lo, hi = starts[i], ends[i]
        elif ends[i] > hi:
            hi = ends[i]
    return total + hi - lo


class Spans:
    """All spans of a run as columns indexed by span id - 1."""

    def __init__(self, recorder: Recorder):
        threads = recorder._threads
        n = sum(len(t.sid) for t in threads)
        self.parent = np.zeros(n, dtype=np.int64)
        self.name = np.zeros(n, dtype=np.int64)
        self.start = np.zeros(n)
        self.end = np.zeros(n)
        self.thread = np.zeros(n, dtype=np.int64)
        for t in threads:
            row = np.frombuffer(t.sid, dtype=np.int64) - 1
            self.parent[row] = np.frombuffer(t.parent, dtype=np.int64)
            self.name[row] = np.frombuffer(t.name, dtype=np.uint16)
            self.start[row] = np.frombuffer(t.start)
            self.end[row] = np.frombuffer(t.end)
            self.thread[row] = t.index
        self.names = list(recorder.names)
        self.layer = np.asarray(recorder.layer_of, dtype=np.int64)[self.name]

    def self_times(self) -> np.ndarray:
        """Span duration minus the part of it its child spans cover."""
        dur = self.end - self.start
        child = np.flatnonzero(self.parent > 0)
        parent = self.parent[child] - 1
        cover = np.bincount(parent, weights=dur[child],
                            minlength=len(dur))
        # children on other threads overlap each other: take the union
        crossing = child[self.thread[child] != self.thread[parent]]
        for p in np.unique(self.parent[crossing] - 1):
            kids = child[parent == p]
            lo = np.maximum(self.start[kids], self.start[p])
            hi = np.minimum(self.end[kids], self.end[p])
            keep = hi > lo
            cover[p] = union_length(lo[keep], hi[keep])
        return dur - cover

    def covered(self) -> float:
        """Time covered by the spans that have no parent."""
        roots = self.parent == 0
        return union_length(self.start[roots], self.end[roots])

    def phase_seconds(self, names) -> float:
        idx = [self.names.index(n) for n in names if n in self.names]
        pick = np.isin(self.name, idx)
        return union_length(self.start[pick], self.end[pick])


def layer_metrics(recorder: Recorder, true_residuals) -> dict:
    """Per-layer metric values of one traced run."""
    spans = Spans(recorder)
    own = spans.self_times()
    self_s = np.bincount(spans.layer, weights=own, minlength=len(LAYERS))
    calls = np.bincount(spans.layer, minlength=len(LAYERS))
    count, keys = {}, {"shape": set(), "quad": set()}
    for t in recorder._threads:
        for k, v in t.count.items():
            count[k] = count.get(k, 0) + v
        for k, v in t.peak.items():
            count[k] = max(count.get(k, v), v)
        for k in keys:
            keys[k] |= t.keys[k]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for i, layer in enumerate(LAYERS):
        m[f"{layer}.self_s"] = float(self_s[i])
        m[f"{layer}.calls"] = int(calls[i])
    m["masterel.shape_distinct_ratio"] = ratio(len(keys["shape"]),
                                               count.get("shape_calls", 0))
    m["masterel.quad_distinct_ratio"] = ratio(len(keys["quad"]),
                                              count.get("quad_calls", 0))
    m["geometry.points"] = int(count.get("points", 0))
    m["mesh.refinements"] = int(count.get("refinements", 0))
    m["mesh.closure_share"] = ratio(count.get("closure_refinements", 0),
                                    count.get("refinements", 0))
    gflop = count.get("flop", 0.0) / 1e9
    m["dpg.gram_factorizations"] = int(count.get("gram_factorizations", 0))
    m["dpg.gram_n_max"] = int(count.get("gram_n_max", 0))
    m["dpg.gflop"] = gflop
    m["dpg.gflops"] = ratio(gflop, m["dpg.self_s"])
    m["poisson.builds_per_elem_step"] = ratio(
        count.get("element_builds", 0), count.get("element_steps", 0))
    m["assembly.ndof"] = int(count.get("ndof", 0))
    m["assembly.nnz"] = int(count.get("nnz", 0))
    m["assembly.cg_iters"] = int(count.get("cg_iters", 0))
    m["assembly.true_residual_max"] = max(true_residuals, default=0.0)
    m["adapt.marked_share"] = ratio(count.get("marked", 0),
                                    count.get("mark_candidates", 0))
    m["vtu.bytes"] = int(count.get("vtu_bytes", 0))
    m["vtu.mb_per_s"] = ratio(m["vtu.bytes"] / 1e6, m["vtu.self_s"])
    for phase, names in PHASES.items():
        m[f"phase.{phase}_s"] = spans.phase_seconds(names)
    m["trace.overhead_s"] = sum(t.overhead for t in recorder._threads)
    return m, spans


def save_spans(recorder: Recorder, spans: Spans, path: str):
    """Write all spans of the run once, as compressed columns."""
    np.savez_compressed(path, run_id=recorder.run_id,
                        names=np.array(spans.names), parent=spans.parent,
                        name=spans.name, start=spans.start, end=spans.end,
                        thread=spans.thread)
