"""Per-layer spans recorded from outside the package.

`Tracer.install` replaces each layer's public functions at the module
attribute where the next layer up looks them up (for example
`eigencollide.matfield.sample_sheet`, which `assemble_*` reach through the
matfield module globals).  The package code is not modified; restoring the
originals undoes everything.

Spans are kept per thread on a stack, so a span's self time is its duration
minus the durations of the spans it called.  Only the thread that installed
the tracer records spans: the traced pass runs at `threads=1`, and worker
threads of a threaded pass would otherwise report overlapping time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import threading
import time

# (module, attribute, layer name).  Several attributes can feed one layer
# name when two callers import the same function.
BOUNDARIES = (
    ("eigencollide.gfield", "substream", "rng.substream"),
    ("eigencollide.sde", "substream", "rng.substream"),
    ("eigencollide.matfield", "sample_sheet", "gfield.sample_sheet"),
    ("eigencollide.matfield", "sample_fbm_1d", "gfield.sample_fbm_1d"),
    ("eigencollide.matfield", "assemble_selfadjoint", "matfield.assemble"),
    ("eigencollide.matfield", "assemble_rect", "matfield.assemble"),
    ("eigencollide.matfield", "affine", "matfield.affine"),
    ("eigencollide.estimate", "sample_ensemble", "matfield.sample_ensemble"),
    ("eigencollide.harness", "sample_ensemble", "matfield.sample_ensemble"),
    ("eigencollide.spectra", "eigvals_selfadjoint", "spectra.eigensolver"),
    ("eigencollide.spectra", "singvals", "spectra.eigensolver"),
    ("eigencollide.estimate", "spectral_path", "spectra.spectral_path"),
    ("eigencollide.harness", "spectral_path", "spectra.spectral_path"),
    ("eigencollide.estimate", "pattern_gap_values", "spectra.pattern_gap_values"),
    ("eigencollide.harness", "pattern_gap_values", "spectra.pattern_gap_values"),
    ("eigencollide.estimate", "collision_prob", "estimate.collision_prob"),
    ("eigencollide.estimate", "box_dim", "estimate.box_dim"),
    ("eigencollide.estimate", "box_count_dimension", "estimate.box_count_dimension"),
    ("eigencollide.harness", "verdict_experiment", "estimate.verdict_experiment"),
    ("eigencollide.harness", "run", "harness.run"),
    ("eigencollide.sde", "dyson_paths", "sde.dyson_paths"),
    ("eigencollide.sde", "wishart_paths", "sde.wishart_paths"),
)


def _sheet_flop(args, result, counters):
    # one dense axis factor applied along each axis: 2 n_j flops per point
    shape = args["grid"].shape
    points = math.prod(shape)
    counters["gfield.sample_sheet.flop"] += sum(2 * n * points for n in shape)


def _assembled_bytes(args, result, counters):
    counters["matfield.bytes_assembled"] += result.values.nbytes


def _matrices(args, result, counters):
    counters["spectra.matrices"] += math.prod(result.shape[:-1])


def _paths(args, result, counters):
    counters["estimate.paths"] += result.n_paths
    counters["estimate.failed_paths"] += result.n_failed


def _particle_steps(args, result, counters):
    _, broken = result
    counters["sde.particle_steps"] += args["n_paths"] * args["n_steps"] * len(args["x0"])
    counters["sde.broken_paths"] += int(broken.sum())


OBSERVERS = {
    "gfield.sample_sheet": _sheet_flop,
    "matfield.assemble": _assembled_bytes,
    "spectra.eigensolver": _matrices,
    "estimate.collision_prob": _paths,
    "sde.dyson_paths": _particle_steps,
    "sde.wishart_paths": _particle_steps,
}

COUNTERS = (
    "gfield.sample_sheet.flop",
    "matfield.bytes_assembled",
    "spectra.matrices",
    "estimate.paths",
    "estimate.failed_paths",
    "sde.particle_steps",
    "sde.broken_paths",
)


class Tracer:
    """Calls, inclusive and self seconds per layer name, plus counters."""

    def __init__(self):
        self.layers = sorted({name for _, _, name in BOUNDARIES})
        self.calls = dict.fromkeys(self.layers, 0)
        self.total_s = dict.fromkeys(self.layers, 0.0)
        self.self_s = dict.fromkeys(self.layers, 0.0)
        self.root_s = 0.0  # time covered by outermost spans
        # self seconds spent inside `collision_prob`, for the per-path breakdown
        self.in_mc_s = dict.fromkeys(self.layers, 0.0)
        self._mc_depth = 0
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[list[float]] = []
        self._owner = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for mod_name, attr, name in BOUNDARIES:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, original, name):
        observe = OBSERVERS.get(name)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._owner:
                return original(*args, **kwargs)
            frame = [0.0]  # seconds spent in child spans
            self._stack.append(frame)
            is_mc = name == "estimate.collision_prob"
            self._mc_depth += is_mc
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                else:
                    self.root_s += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[0]
                if self._mc_depth:
                    self.in_mc_s[name] += elapsed - frame[0]
                self._mc_depth -= is_mc
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(bound.arguments, result, self.counters)
            return result

        return traced

    def table(self) -> dict:
        """Every layer's calls, inclusive and self seconds, and its self
        milliseconds per Monte Carlo path inside `collision_prob`."""
        paths = self.counters["estimate.paths"]
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total_s[name],
                "self_s": self.self_s[name],
                "mc_ms_per_path": _ratio(self.in_mc_s[name], paths, 1e3),
            }
            for name in self.layers
        }


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den > 0 else 0.0


def layer_metrics(tr: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, as plain numbers, for
    one traced pass and the untraced pass paired with it.

    A layer the workload never reaches reports 0 calls and 0 seconds.
    `estimate.thread_speedup` needs untraced passes at both thread counts;
    it is 0 here and set by the caller where the workload has both.
    """
    c, s, n = tr.calls, tr.self_s, tr.counters
    return {
        "rng.substream.calls": c["rng.substream"],
        "rng.substream.self_s": s["rng.substream"],
        "gfield.sample_sheet.calls": c["gfield.sample_sheet"],
        "gfield.sample_sheet.self_s": s["gfield.sample_sheet"],
        "gfield.sample_sheet.gflop_per_s": _ratio(
            n["gfield.sample_sheet.flop"], s["gfield.sample_sheet"], 1e-9),
        "gfield.sample_fbm_1d.calls": c["gfield.sample_fbm_1d"],
        "gfield.sample_fbm_1d.self_s": s["gfield.sample_fbm_1d"],
        "matfield.assemble.calls": c["matfield.assemble"],
        "matfield.assemble.self_s": s["matfield.assemble"],
        "matfield.mb_assembled": n["matfield.bytes_assembled"] / 1e6,
        "matfield.affine.self_s": s["matfield.affine"],
        "matfield.sample_ensemble.self_s": s["matfield.sample_ensemble"],
        "spectra.spectral_path.self_s": s["spectra.spectral_path"],
        "spectra.eigensolver.self_s": s["spectra.eigensolver"],
        "spectra.matrices": n["spectra.matrices"],
        "spectra.ns_per_matrix": _ratio(
            s["spectra.eigensolver"], n["spectra.matrices"], 1e9),
        "spectra.pattern_gap_values.self_s": s["spectra.pattern_gap_values"],
        "estimate.collision_prob.self_s": s["estimate.collision_prob"],
        "estimate.paths": n["estimate.paths"],
        "estimate.failed_paths": n["estimate.failed_paths"],
        "estimate.ms_per_path": _ratio(
            tr.total_s["estimate.collision_prob"], n["estimate.paths"], 1e3),
        "estimate.thread_speedup": 0.0,
        "estimate.box_dim.self_s": s["estimate.box_dim"],
        "estimate.box_count_dimension.self_s": s["estimate.box_count_dimension"],
        "estimate.verdict_experiment.self_s": s["estimate.verdict_experiment"],
        "sde.dyson_paths.self_s": s["sde.dyson_paths"],
        "sde.wishart_paths.self_s": s["sde.wishart_paths"],
        "sde.particle_steps": n["sde.particle_steps"],
        "sde.ns_per_particle_step": _ratio(
            s["sde.dyson_paths"] + s["sde.wishart_paths"], n["sde.particle_steps"], 1e9),
        "sde.broken_paths": n["sde.broken_paths"],
        "harness.run.calls": c["harness.run"],
        "harness.run.self_s": s["harness.run"],
        "trace.coverage": _ratio(tr.root_s, traced_wall),
        "trace.overhead_frac": _ratio(traced_wall, untraced_wall) - 1.0,
    }
