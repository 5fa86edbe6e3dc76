"""Span tracing around dispgeo's public functions, from outside the package.

``install`` wraps each function in ``TRACED`` and rebinds the wrapper at
every module-level name that refers to the original, so cross-module
calls (``dispgeo.hyperbolic.multiply``,
``dispgeo.experiments.stable_norm_length_bound``) and calls inside the
defining module are both seen.  Lazy ``from .lattice import char_poly``
inside a function reads the module attribute at call time, so it is seen
too.  The ``ball`` generator gets one span per ``next()``.

Unwrapped on purpose, because a span per call would cost more than the
call itself: ``words.word_length`` and ``words.distance`` (one-line
accessors) and ``lattice.mat_mul`` (the BFS inner product).  Their time
counts in the caller's self time.

Each span keeps its name, start, end, parent span and op id in flat
arrays in memory; ``Recorder.save`` writes them out once the op ends.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

# layer -> public functions wrapped in that layer's module
TRACED = {
    "cli": ("main", "build_parser"),
    "experiments": ("run_prop422", "run_prop507", "run_ams_gap",
                    "run_depth_roots", "render_report"),
    "serialize": ("render_rational", "render_real", "parse_matrix_text",
                  "parse_int_matrix_text", "load_matrix_file",
                  "certificate_document", "write_atomic"),
    "words": ("ball", "multiply", "gromov_product", "cyclic_reduce",
              "translation_length", "stable_norm", "parse_word"),
    "hyperbolic": ("is_almost_cyclically_reduced", "certify_ping_pong",
                   "select_acr", "pair_offset", "stable_norm_length_bound",
                   "stable_length_lower_bound", "find_ping_pong_pair"),
    "lattice": ("mat_pow", "det_exact", "inverse_unimodular", "char_poly",
                "elementary_generators", "enumerate_ball", "word_length_bfs",
                "translation_length_upper", "translation_length_lower",
                "is_torsion", "has_trivial_hyperbolic_part",
                "depth_root_bound", "find_roots_in_box"),
    "matgeo": ("cartan_projection", "jordan_projection",
               "symmetric_space_displacement", "symmetric_space_norm",
               "certify_proximal", "cartan_jordan_gap", "is_unipotent",
               "renormalized_cartan_average"),
}
LAYERS = tuple(TRACED)

# span name -> work count taken from the return value
WORK = {
    "words.ball": lambda _word: 1,
    "lattice.enumerate_ball": lambda table: len(table.index),
    "lattice.word_length_bfs": lambda length: int(length is not None),
    "lattice.find_roots_in_box": len,
    "experiments.run_ams_gap": lambda report: int(not report.passed),
}

PROXIMAL_REJECTIONS = ("NoDominantEigenvalue", "SeparationFailed",
                       "ContractionFailed")


class Recorder:
    """Flat in-memory span store; index 0.. in start order."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.exc_names: list[str] = []
        self.exc_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.exc = array("i")
        self.stack = [-1]

    def _intern(self, table: dict, names: list, key: str) -> int:
        if key not in table:
            table[key] = len(names)
            names.append(key)
        return table[key]

    def wrap(self, fn, span: str):
        """A wrapper of ``fn`` that records one span per call."""
        sid = self._intern(self.name_ids, self.names, span)
        work = WORK.get(span)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        works, excs, stack = self.work, self.exc, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(sid)
            parent.append(stack[-1])
            end.append(0.0)
            works.append(0)
            excs.append(-1)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                stack.pop()
                excs[idx] = self._intern(self.exc_ids, self.exc_names,
                                         type(exc).__name__)
                raise
            end[idx] = clock()
            stack.pop()
            if work is not None:
                works[idx] = work(result)
            return result

        return traced

    def wrap_generator(self, fn, span: str):
        """Like ``wrap`` for a generator function: one span per next()."""
        step = self.wrap(next, span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        return traced

    def save(self, path: str) -> None:
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 work=np.frombuffer(self.work, dtype=np.int64),
                 exc=np.frombuffer(self.exc, dtype=np.int32),
                 names=np.array(self.names, dtype=str),
                 exc_names=np.array(self.exc_names or [""], dtype=str),
                 op_id=np.int64(self.op_id))


def install(modules: dict, op_id: int) -> Recorder:
    """Wrap every function of ``TRACED``; ``modules`` maps layer names to
    the imported ``dispgeo`` modules.  Returns the recorder."""
    rec = Recorder(op_id)
    for layer, names in TRACED.items():
        mod = modules[layer]
        for fname in names:
            orig = getattr(mod, fname)
            span = f"{layer}.{fname}"
            wrapper = (rec.wrap_generator(orig, span) if span == "words.ball"
                       else rec.wrap(orig, span))
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is orig:
                        setattr(other, key, wrapper)
    return rec


def self_times(parent: np.ndarray, start: np.ndarray,
               end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another, so their durations never
    overlap and the subtraction leaves exactly the time not covered by a
    child span.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered


class Totals:
    """Per-span-name sums over the spans of any number of ops."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.work: dict[str, int] = {}
        self.raised: dict[tuple[str, str], int] = {}
        self.acr_in_select = 0
        self.root_s = 0.0

    def add(self, spans) -> None:
        """Fold one op's saved spans (a loaded ``Recorder.save`` file)."""
        name = spans["name"]
        parent = spans["parent"]
        names = [str(x) for x in spans["names"]]
        own = self_times(parent, spans["start"], spans["end"])
        roots = parent < 0
        self.root_s += float(np.sum((spans["end"] - spans["start"])[roots]))
        calls = np.bincount(name, minlength=len(names))
        selfs = np.bincount(name, weights=own, minlength=len(names))
        works = np.bincount(name, weights=spans["work"], minlength=len(names))
        for i, n in enumerate(names):
            self.calls[n] = self.calls.get(n, 0) + int(calls[i])
            self.self_s[n] = self.self_s.get(n, 0.0) + float(selfs[i])
            self.work[n] = self.work.get(n, 0) + int(round(works[i]))
        exc_names = [str(x) for x in spans["exc_names"]]
        for i in np.flatnonzero(spans["exc"] >= 0):
            key = (names[name[i]], exc_names[spans["exc"][i]])
            self.raised[key] = self.raised.get(key, 0) + 1
        if "hyperbolic.select_acr" in names and (
                "hyperbolic.is_almost_cyclically_reduced" in names):
            acr = names.index("hyperbolic.is_almost_cyclically_reduced")
            sel = names.index("hyperbolic.select_acr")
            under = parent[name == acr]
            under = under[under >= 0]
            self.acr_in_select += int(np.sum(name[under] == sel))

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics this benchmark reports, by name."""
        c, s, w = self.calls, self.self_s, self.work

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "words.ball.words": w.get("words.ball", 0),
            "words.ball.self_s": s.get("words.ball", 0.0),
        }
        for fn in ("multiply", "stable_norm"):
            out[f"words.{fn}.calls"] = c.get(f"words.{fn}", 0)
            out[f"words.{fn}.self_s"] = s.get(f"words.{fn}", 0.0)
        out["words.gromov_product.calls"] = c.get("words.gromov_product", 0)
        for fn in ("stable_norm_length_bound", "select_acr"):
            out[f"hyperbolic.{fn}.calls"] = c.get(f"hyperbolic.{fn}", 0)
            out[f"hyperbolic.{fn}.self_s"] = s.get(f"hyperbolic.{fn}", 0.0)
        out["hyperbolic.is_almost_cyclically_reduced.calls"] = c.get(
            "hyperbolic.is_almost_cyclically_reduced", 0)
        out["hyperbolic.select_acr.acr_tests_per_selection"] = ratio(
            self.acr_in_select, c.get("hyperbolic.select_acr", 0))
        out["experiments.ams_gap.bound_exceeded"] = w.get(
            "experiments.run_ams_gap", 0)
        bfs = "lattice.word_length_bfs"
        out[f"{bfs}.calls"] = c.get(bfs, 0)
        out[f"{bfs}.self_s"] = s.get(bfs, 0.0)
        out[f"{bfs}.found_ratio"] = ratio(w.get(bfs, 0), c.get(bfs, 0))
        out["lattice.enumerate_ball.states"] = w.get(
            "lattice.enumerate_ball", 0)
        for fn in ("enumerate_ball", "translation_length_upper", "mat_pow",
                   "depth_root_bound"):
            out[f"lattice.{fn}.self_s"] = s.get(f"lattice.{fn}", 0.0)
        for fn in ("char_poly", "inverse_unimodular", "find_roots_in_box"):
            out[f"lattice.{fn}.calls"] = c.get(f"lattice.{fn}", 0)
            out[f"lattice.{fn}.self_s"] = s.get(f"lattice.{fn}", 0.0)
        out["lattice.find_roots_in_box.hits"] = w.get(
            "lattice.find_roots_in_box", 0)
        ssd = "matgeo.symmetric_space_displacement"
        out[f"{ssd}.calls"] = c.get(ssd, 0)
        out[f"{ssd}.self_s"] = s.get(ssd, 0.0)
        cp = "matgeo.certify_proximal"
        out[f"{cp}.calls"] = c.get(cp, 0)
        out[f"{cp}.self_s"] = s.get(cp, 0.0)
        raised = sum(v for (span, _), v in self.raised.items() if span == cp)
        out[f"{cp}.certified_ratio"] = ratio(c.get(cp, 0) - raised,
                                             c.get(cp, 0))
        for e in PROXIMAL_REJECTIONS:
            out[f"{cp}.rejected.{e}"] = self.raised.get((cp, e), 0)
        for fn in ("cartan_jordan_gap", "renormalized_cartan_average"):
            out[f"matgeo.{fn}.self_s"] = s.get(f"matgeo.{fn}", 0.0)
        for layer in LAYERS:
            prefix = layer + "."
            out[f"{layer}.calls"] = sum(
                v for k, v in c.items() if k.startswith(prefix))
            out[f"{layer}.self_s"] = sum(
                v for k, v in s.items() if k.startswith(prefix))
        out["trace.op_s"] = self.root_s
        return out
