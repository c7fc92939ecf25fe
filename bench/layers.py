"""Spans around the public functions of cli, meanfield, exactdiag and cpb.

The traced run wraps each layer-boundary function from outside the
package: the wrapper is installed on the defining module and on every name
that dickelab.cli imported, and removed again after the traced pass.  A
span records its name, start, end, parent span and the id of the CLI run
that caused it, plus counters read from arguments and return values.
Spans stay in memory; the benchmark writes them out when it ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import time
import tracemalloc

# (module, function): counters to read from (bound arguments, result)
TARGETS = {
    ("cli", "main"): None,
    ("cli", "parse_config"): None,
    ("cli", "run"): lambda a, r: {"artifact_bytes": sum(p.stat().st_size for p in r.values())},
    ("meanfield", "minimize"): None,
    ("meanfield", "scan_order_parameter"): lambda a, r: {"points": len(r)},
    ("meanfield", "critical_coupling"): None,
    ("meanfield", "no_go_check"): lambda a, r: {"points": a.arguments["n_points"]},
    ("meanfield", "write_scan_csv"): None,
    ("exactdiag", "converge_cutoff"): None,
    ("exactdiag", "ed_ground"): None,
    ("exactdiag", "build_basis"): lambda a, r: {"dim": r.dim},
    ("exactdiag", "build_hamiltonian"): lambda a, r: {"nnz": int(r.nnz)},
    ("exactdiag", "ground_state"): lambda a, r: {
        "dim": int(a.arguments["H"].shape[0]), "method": r.method, "iterations": r.iterations},
    ("exactdiag", "observables"): None,
    ("exactdiag", "dump_state"): None,
    ("cpb", "write_cpb_csv"): None,
}
PEAK_MEMORY = {("exactdiag", "ground_state")}

# per-layer metric: (unit, better, end-to-end metric and workload it should move)
METRICS = {
    "exactdiag.ground_state.s": ("s", "lower", "wall_s, run_s.max on ed_superradiant; none on meanfield_phase_diagram"),
    "exactdiag.lanczos_iterations": ("count", "lower", "wall_s, run_s.max on ed_superradiant"),
    "exactdiag.krylov_bytes": ("B_computed", "lower", "wall_s, run_s.max on ed_superradiant (sum of dim x iterations x 8)"),
    "exactdiag.ground_state.peak_mb": ("MB", "lower", "peak_rss_mb on ed_superradiant"),
    "exactdiag.ground_state.dense_calls": ("count", "lower", "wall_s on ed_small_dense"),
    "exactdiag.ground_state.lanczos_calls": ("count", "lower", "wall_s on ed_superradiant"),
    "exactdiag.build_basis.s": ("s", "lower", "wall_s, run_s.p50 on ed_small_dense"),
    "exactdiag.build_hamiltonian.s": ("s", "lower", "wall_s, run_s.p50 on ed_small_dense"),
    "exactdiag.sector_split.s": ("s", "lower", "wall_s, run_s.p50 on ed_small_dense (self time of ed_ground)"),
    "exactdiag.observables.s": ("s", "lower", "wall_s, run_s.p50 on ed_small_dense"),
    "exactdiag.dim": ("count", "lower", "wall_s, run_s.p50 on ed_small_dense (sum over bases built)"),
    "exactdiag.nnz": ("count", "lower", "wall_s, run_s.p50 on ed_small_dense (sum over Hamiltonians built)"),
    "exactdiag.cutoff_steps": ("count", "lower", "wall_s on both ED workloads"),
    "exactdiag.useful_solve_ratio": ("ratio", "higher", "wall_s on both ED workloads (kept sector solves / ground_state calls)"),
    "exactdiag.dump_state.s": ("s", "lower", "run_s.max on ed_superradiant"),
    "exactdiag.parity_odd_count": ("count", "lower", "none; parity sign is seed-dependent, recorded not failed"),
    "meanfield.critical_coupling.s": ("s", "lower", "run_s.p50, wall_s on meanfield_phase_diagram"),
    "meanfield.critical_coupling.calls": ("count", "lower", "run_s.p50, wall_s on meanfield_phase_diagram"),
    "meanfield.scan_order_parameter.s": ("s", "lower", "wall_s on meanfield_phase_diagram"),
    "meanfield.no_go_check.s": ("s", "lower", "wall_s on meanfield_phase_diagram"),
    "meanfield.points_per_s": ("1/s", "higher", "wall_s on meanfield_phase_diagram (scan and no-go points)"),
    "meanfield.minimize.s": ("s", "lower", "nothing: seeds the ED cutoff, under 1% of the ED workloads"),
    "cli.parse_config.s": ("s", "lower", "run_s.p50 on meanfield_phase_diagram"),
    "cli.run.self_s": ("s", "lower", "run_s.p50 on meanfield_phase_diagram (artifacts, checksums, manifest)"),
    "cli.artifact_bytes": ("B", "lower", "run_s.p50 on meanfield_phase_diagram"),
    "cpb.write_cpb_csv.s": ("s", "lower", "wall_s on meanfield_phase_diagram"),
    "cli.self_s": ("s", "lower", "self time of the cli layer"),
    "meanfield.self_s": ("s", "lower", "self time of the meanfield layer"),
    "exactdiag.self_s": ("s", "lower", "self time of the exactdiag layer"),
    "cpb.self_s": ("s", "lower", "self time of the cpb layer"),
    "trace.wall_s": ("s", "lower", "wall_s of a traced pass"),
    "trace.overhead_s": ("s", "lower", "traced pass wall minus untraced pass wall"),
    "trace.uncovered_s": ("s", "lower", "time in a traced pass that no span covers"),
}


class Tracer:
    """Records spans in memory; one instance per traced pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._runs = 0

    def wrap(self, layer: str, name: str, fn, counters=None, peak_memory=False):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                self._runs += 1
            span = {"id": len(self.spans), "parent": parent["id"] if parent else None,
                    "run": parent["run"] if parent else self._runs,
                    "name": f"{layer}.{name}", "start": time.perf_counter(), "end": None}
            self.spans.append(span)
            self._stack.append(span)
            if peak_memory:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                if peak_memory:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(counters(bound, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap every target on its defining module and on dickelab.cli."""
        cli = package.cli
        saved = []
        try:
            for (layer, name), counters in TARGETS.items():
                module = getattr(package, layer)
                orig = getattr(module, name)
                wrapped = self.wrap(layer, name, orig, counters, (layer, name) in PEAK_MEMORY)
                for holder in (module, cli):
                    if getattr(holder, name, None) is orig:
                        saved.append((holder, name, orig))
                        setattr(holder, name, wrapped)
            yield self
        finally:
            for holder, name, orig in reversed(saved):
                setattr(holder, name, orig)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def pass_metrics(spans: list[dict], wall: float, parity_odd: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (without trace.overhead_s)."""
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)

    def total(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def parent_name(s):
        return by_id[s["parent"]]["name"] if s["parent"] is not None else None

    solves = named("exactdiag.ground_state")
    lanczos = [s for s in solves if s.get("method") == "lanczos"]
    kept = (sum(1 for s in named("exactdiag.converge_cutoff") if "error" not in s)
            + sum(1 for s in named("exactdiag.ed_ground")
                  if "error" not in s and parent_name(s) != "exactdiag.converge_cutoff"))
    points = sum(s.get("points", 0) for s in spans
                 if s["name"] in ("meanfield.scan_order_parameter", "meanfield.no_go_check"))
    point_time = total("meanfield.scan_order_parameter") + total("meanfield.no_go_check")
    m = {
        "exactdiag.ground_state.s": total("exactdiag.ground_state"),
        "exactdiag.lanczos_iterations": sum(s["iterations"] for s in lanczos),
        "exactdiag.krylov_bytes": sum(s["dim"] * s["iterations"] * 8 for s in lanczos),
        "exactdiag.ground_state.peak_mb": max((s["peak_bytes"] for s in solves), default=0) / 2**20,
        "exactdiag.ground_state.dense_calls": sum(1 for s in solves if s.get("method") == "dense"),
        "exactdiag.ground_state.lanczos_calls": len(lanczos),
        "exactdiag.build_basis.s": total("exactdiag.build_basis"),
        "exactdiag.build_hamiltonian.s": total("exactdiag.build_hamiltonian"),
        "exactdiag.sector_split.s": sum(own[s["id"]] for s in named("exactdiag.ed_ground")),
        "exactdiag.observables.s": total("exactdiag.observables"),
        "exactdiag.dim": sum(s.get("dim", 0) for s in named("exactdiag.build_basis")),
        "exactdiag.nnz": sum(s.get("nnz", 0) for s in named("exactdiag.build_hamiltonian")),
        "exactdiag.cutoff_steps": sum(1 for s in named("exactdiag.ed_ground")
                                      if "error" not in s
                                      and parent_name(s) == "exactdiag.converge_cutoff"),
        "exactdiag.useful_solve_ratio": kept / len(solves) if solves else 0.0,
        "exactdiag.dump_state.s": total("exactdiag.dump_state"),
        "exactdiag.parity_odd_count": parity_odd,
        "meanfield.critical_coupling.s": total("meanfield.critical_coupling"),
        "meanfield.critical_coupling.calls": len(named("meanfield.critical_coupling")),
        "meanfield.scan_order_parameter.s": total("meanfield.scan_order_parameter"),
        "meanfield.no_go_check.s": total("meanfield.no_go_check"),
        "meanfield.points_per_s": points / point_time if point_time > 0 else 0.0,
        "meanfield.minimize.s": total("meanfield.minimize"),
        "cli.parse_config.s": total("cli.parse_config"),
        "cli.run.self_s": sum(own[s["id"]] for s in named("cli.run")),
        "cli.artifact_bytes": sum(s.get("artifact_bytes", 0) for s in named("cli.run")),
        "cpb.write_cpb_csv.s": total("cpb.write_cpb_csv"),
        "trace.wall_s": wall,
        "trace.uncovered_s": wall - sum(s["end"] - s["start"] for s in spans if s["parent"] is None),
    }
    for layer in ("cli", "meanfield", "exactdiag", "cpb"):
        m[f"{layer}.self_s"] = sum(own[s["id"]] for s in spans if s["name"].startswith(layer + "."))
    return m


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes; counts repeat exactly, so their median is the count."""
    out = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        out[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out
