"""Per-layer spans and counters for a traced benchmark run.

The spans are recorded from outside the program: :func:`install` replaces the
public functions of the ``pdsc`` layers by wrappers, in the module or class
attribute that the callers look up, and :func:`restore` puts the originals
back. Nothing under ``src/`` is changed.

Spans live in memory as ``[name, start, end, parent, request]`` lists and are
written out when the run ends. The request is the index of the workload
iteration, so all spans of one iteration share it.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict
from statistics import median, median_low

_MB = 1e6


class Tracer:
    """Span stack plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.request = 0
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount) -> None:
        self.counts[self.request][name] += amount


# --- counters taken at the layer boundaries --------------------------------

def _file_mb(prefix):
    # summed in whole bytes, so the total does not depend on the call order
    def hook(tr, args, out):
        tr.count(f"{prefix}.write_csv_mb", os.path.getsize(args[0]))
    return hook


def _bonds(tr, args, out):
    tr.count("geometry.bonds", out.m)


def _rays(tr, args, out):
    tr.count("geometry.rays", len(args[0]))


def _k_nnz(tr, args, out):
    tr.count("pd_core.k_nnz", out.nnz)


def _solve_static(tr, args, out):
    diag = out[1]
    tr.count("pd_core.solve_static_calls", 1)
    if diag.method == "pcg":
        tr.count("pd_core.pcg_iters", diag.iterations)
    elif diag.method == "direct":
        tr.count("pd_core.direct_calls", 1)
        tr.count("pd_core.refine_rounds", diag.iterations)


def _lu_fill(tr, args, out):
    lu = args[0].lu
    tr.count("pd_core.lu_fill_nnz", lu.L.nnz + lu.U.nnz)


def _contacts(tr, args, out):
    tr.count("pd_core.contact_dofs", len(args[1]))


def _ramp_solve(tr, args, out):
    tr.count("pd_core.ramp_steps", 1)
    tr.count("pd_core.ramp_refine_rounds", out[1].iterations)


def _scan(tr, args, out):
    tr.count("pd_core.inversion_bonds_scanned", args[0].m)


def _layer_table(geometry, material, pd_core, fem_ref, analytic, bench_cli):
    """(owner, attribute, span name, counter hook) for every wrapped call."""
    ramp = pd_core.RampSolver
    return [
        (geometry, "build_grid", "geometry.build_grid", None),
        (geometry, "add_virtual_layers", "geometry.build_grid", None),
        (geometry, "build_bonds", "geometry.build_bonds", _bonds),
        # correct_bonds reaches the ray queries through the name material imports
        (material, "truncated_lengths", "geometry.ray_queries", _rays),
        (geometry, "write_nodes_csv", "geometry.write_csv", _file_mb("geometry")),
        (geometry, "write_bonds_csv", "geometry.write_csv", _file_mb("geometry")),
        (material.MaterialModel, "calibrated", "material.calibrate", None),
        (material, "discrete_hooke", "material.calibrate", None),
        (material, "effective_constants", "material.calibrate", None),
        (material, "correct_bonds", "material.correct_bonds", None),
        (pd_core, "assemble", "pd_core.assemble", _k_nnz),
        (pd_core, "solve_static", "pd_core.solve_static", _solve_static),
        (pd_core, "strain_energy_density", "pd_core.energy_density", None),
        (pd_core, "reaction_force", "pd_core.reaction", None),
        (pd_core, "check_bond_inversion", "pd_core.inversion_scan", _scan),
        (pd_core, "run_indentation", "pd_core.run_indentation", None),
        (ramp, "__init__", "pd_core.ramp_init", _lu_fill),
        (ramp, "add_constraints", "pd_core.ramp_contacts", _contacts),
        (ramp, "solve", "pd_core.ramp_solve", _ramp_solve),
        (fem_ref.FEMesh, "from_grid", "fem_ref.mesh", None),
        (fem_ref, "fem_assemble", "fem_ref.assemble", None),
        (fem_ref, "fem_energy_density", "fem_ref.energy_density", None),
        (analytic, "uniaxial_solution", "analytic.reference", None),
        (analytic, "relative_error_field", "analytic.error_field", None),
        (bench_cli, "write_fields_csv", "bench_cli.write_csv", _file_mb("bench_cli")),
        (bench_cli, "write_errors_csv", "bench_cli.write_csv", _file_mb("bench_cli")),
        (bench_cli, "write_curve_csv", "bench_cli.write_csv", _file_mb("bench_cli")),
        (bench_cli, "write_stress_csv", "bench_cli.write_csv", _file_mb("bench_cli")),
    ]


def _wrap(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = tracer.call(name, fn, args, kwargs)
        if hook is not None:
            hook(tracer, args, out)
        return out
    return wrapper


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every layer call; returns the replaced attributes for :func:`restore`."""
    from pdsc import analytic, bench_cli, fem_ref, geometry, material, pd_core

    saved = []
    for owner, attr, name, hook in _layer_table(
            geometry, material, pd_core, fem_ref, analytic, bench_cli):
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(_wrap(tracer, name, raw.__func__, hook))
        else:
            new = _wrap(tracer, name, raw, hook)
        saved.append((owner, attr, raw))
        setattr(owner, attr, new)
    return saved


def restore(saved: list[tuple[object, str, object]]) -> None:
    for owner, attr, raw in reversed(saved):
        setattr(owner, attr, raw)


# --- per-iteration layer metrics -------------------------------------------

RUNNER = "bench_cli.runner"

# span name -> metric of its busy seconds (outermost calls only)
BUSY = {
    "geometry.build_grid": "geometry.build_grid_s",
    "geometry.build_bonds": "geometry.build_bonds_s",
    "geometry.ray_queries": "geometry.ray_queries_s",
    "geometry.write_csv": "geometry.write_csv_s",
    "material.correct_bonds": "material.correct_bonds_s",
    "material.calibrate": "material.calibrate_s",
    "pd_core.assemble": "pd_core.assemble_s",
    "pd_core.energy_density": "pd_core.energy_density_s",
    "pd_core.solve_static": "pd_core.solve_static_s",
    "pd_core.ramp_init": "pd_core.ramp_init_s",
    "pd_core.ramp_contacts": "pd_core.ramp_contacts_s",
    "pd_core.ramp_solve": "pd_core.ramp_solve_s",
    "pd_core.inversion_scan": "pd_core.inversion_scan_s",
    "pd_core.reaction": "pd_core.reaction_s",
    "fem_ref.mesh": "fem_ref.mesh_s",
    "fem_ref.assemble": "fem_ref.assemble_s",
    "fem_ref.energy_density": "fem_ref.energy_density_s",
    "analytic.error_field": "analytic.error_field_s",
    "bench_cli.write_csv": "bench_cli.write_csv_s",
}

# span name -> metric of its self time (span minus its child spans)
SELF = {
    "pd_core.run_indentation": "pd_core.run_indentation_self_s",
    RUNNER: "bench_cli.runner_self_s",
}

COUNTS = (
    "geometry.bonds", "geometry.rays", "geometry.write_csv_mb",
    "pd_core.k_nnz", "pd_core.solve_static_calls", "pd_core.pcg_iters",
    "pd_core.direct_calls", "pd_core.refine_rounds", "pd_core.lu_fill_nnz",
    "pd_core.contact_dofs", "pd_core.ramp_steps", "pd_core.ramp_refine_rounds",
    "pd_core.inversion_bonds_scanned", "bench_cli.write_csv_mb",
)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def iteration_metrics(tracer: Tracer, request: int) -> dict[str, float]:
    """Layer metrics of one traced iteration, keyed by metric name."""
    mine = {k: s for k, s in enumerate(tracer.spans) if s[4] == request}
    child_time: dict[int, float] = defaultdict(float)
    for s in mine.values():
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]

    def outermost(k: int) -> bool:
        name, parent = tracer.spans[k][0], tracer.spans[k][3]
        while parent >= 0:
            if tracer.spans[parent][0] == name:
                return False
            parent = tracer.spans[parent][3]
        return True

    out = {m: 0.0 for m in (*BUSY.values(), *SELF.values())}
    runner_s = 0.0
    ramp_ms = []
    for k, s in mine.items():
        dur = s[2] - s[1]
        if s[0] in BUSY and outermost(k):
            out[BUSY[s[0]]] += dur
        if s[0] in SELF:
            out[SELF[s[0]]] += dur - child_time[k]
        if s[0] == RUNNER:
            runner_s += dur
        if s[0] == "pd_core.ramp_solve":
            ramp_ms.append(1e3 * dur)
    counts = tracer.counts[request]
    out.update({c: counts[c] / _MB if c.endswith("_mb") else counts[c]
                for c in COUNTS})
    out["pd_core.ramp_solve_p50_ms"] = _percentile(ramp_ms, 50)
    out["pd_core.ramp_solve_p95_ms"] = _percentile(ramp_ms, 95)
    out["pd_core.ramp_solve_samples"] = len(ramp_ms)
    out["wall_s"] = runner_s
    out["trace.coverage"] = (
        1.0 - out["bench_cli.runner_self_s"] / runner_s if runner_s else 0.0)
    return out


def combine(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced iterations; counts stay whole."""
    return {k: (median_low if isinstance(v, int) else median)(
                [it[k] for it in per_iteration])
            for k, v in per_iteration[0].items()}
