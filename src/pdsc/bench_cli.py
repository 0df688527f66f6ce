"""Benchmark harness: configure, run and report the reference experiments.

Four experiments are available, each runnable end-to-end from one config
file (plus CLI overrides) with plot-ready CSV artifacts per variant:

* ``tension``   rectangular sheet, uniform end traction, errors vs the
                closed-form uniaxial field,
* ``clamped``   square sheet stretched between fully clamped edges, mean
                tensile stress vs the finite-element reference,
* ``indent``    rigid circular punch pressed into a block under stick
                contact, force-depth curves vs the finite-element reference,
* ``calibrate`` bulk-amplitude calibration report for both radial profiles
                and both calibration modes.

Each ``run_<name>(cfg) -> Run`` is a body decorated with ``@experiment(variants,
grid)``, which declares the experiment's variants and shipped grid, registers
the runner in ``RUNNERS`` and supplies what every run shares: the output
directory, the wall-time clock and ``summary.txt``. The body fills the metrics
of a :class:`Run` and takes each artifact's path from :meth:`Run.artifact`;
:meth:`Run.model` builds every variant's operator: the FEM reference, or a
bond model on a lattice shared by the variants of its grid kind. The runner
returns the filled ``Run``, which also renders ``summary.txt``. Every CSV goes
through :func:`pdsc.geometry.write_csv`.

Exit codes: 0 success, 2 configuration or geometry error, 3 solver failure or out of
memory, 4 every requested bond-model variant of ``indent`` aborted on inversion.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import analytic, fem_ref, geometry, material, pd_core
from .geometry import BondTable, Domain, GridSpec, GeometryError, NodeSet
from .material import ElasticParams, MaterialModel
from .pd_core import BCSet, SolverFailure


class ConfigError(ValueError):
    """Malformed configuration file, key or value."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    variants: tuple[str, ...]
    size_x: float
    size_y: float
    spacing: float
    horizon: float
    profile: str = "constant"
    youngs_modulus: float = 1000.0       # MPa
    thickness: float = 1.0               # mm
    traction: float = 1.0                # MPa, tension experiment
    strain: float = 0.01                 # clamped experiment
    indenter_radius: float = 15.0        # mm
    depth_max: float = 2.0               # mm
    depth_steps: int = 100
    calibration: str = "discrete"
    tol: float = 1e-10
    out: str = "runs"
    dump_bonds: bool = False

    @property
    def m_ratio(self) -> float:
        return self.spacing / self.horizon

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        known = EXPERIMENTS[self.experiment][0]
        bad = [v for v in self.variants if v not in known]
        if bad:
            raise ConfigError(f"variant(s) {bad} invalid for {self.experiment}")
        if known and not self.variants:
            raise ConfigError(f"{self.experiment} needs at least one variant")
        repeated = sorted({v for v in self.variants if self.variants.count(v) > 1})
        if repeated:
            raise ConfigError(f"variant(s) {repeated} given more than once")
        bad = [f.name for f in dataclasses.fields(self)
               if f.type == "float" and not np.isfinite(getattr(self, f.name))]
        if bad:
            raise ConfigError(f"{', '.join(bad)} must be finite")
        if self.spacing <= 0 or self.horizon <= 0:
            raise ConfigError("spacing and horizon must be positive")
        if self.spacing >= self.horizon:
            raise ConfigError("the horizon must exceed the spacing: nearest-neighbour "
                              "bonds alone carry no shear")
        if not 0.0 < self.tol < 1.0:
            raise ConfigError("tol must lie strictly between 0 and 1")
        if self.youngs_modulus <= 0 or self.thickness <= 0:
            raise ConfigError("youngs_modulus and thickness must be positive")
        if self.experiment == "clamped" and self.size_y != self.size_x:
            raise ConfigError("clamped needs a square sheet: size_y must equal size_x")
        if self.experiment == "clamped" and self.strain == 0:
            raise ConfigError("clamped needs a nonzero strain")
        if self.profile not in material.PROFILE_KINDS:
            raise ConfigError(f"unknown profile {self.profile!r}")
        if self.calibration not in ("discrete", "continuum"):
            raise ConfigError(f"unknown calibration {self.calibration!r}")
        if self.depth_steps < 1:
            raise ConfigError("depth_steps must be at least 1")
        if self.experiment == "indent":
            radius, depth = self.indenter_radius, self.depth_max
            if radius <= 0 or depth <= 0 or depth >= radius:
                raise ConfigError("indent needs 0 < depth_max < indenter_radius")
            chord = 2.0 * np.sqrt(2.0 * radius * depth - depth * depth)
            if chord > self.size_x:
                raise ConfigError(f"the indenter's contact chord {chord:.6g} mm at "
                                  f"depth_max is wider than the block ({self.size_x:.6g} mm)")


def default_config(experiment: str) -> ExperimentConfig:
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    variants, grid = EXPERIMENTS[experiment]
    return ExperimentConfig(experiment, variants, *grid, out=f"runs/{experiment}")


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def _coerce(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    raw = raw.strip()
    kind = _FIELD_TYPES[key]
    if key == "variants":
        return tuple(v.strip() for v in raw.split(",") if v.strip())
    if kind == "bool":
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"expected a boolean for {key}, got {raw!r}")
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def read_config_file(path) -> dict:
    """Parse a ``key = value`` text file; '#' starts a comment."""
    overrides = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        try:
            overrides[key] = _coerce(key, raw)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return overrides


def load_config(experiment: str | None = None, config_path=None,
                overrides: dict | None = None) -> ExperimentConfig:
    file_overrides = read_config_file(config_path) if config_path else {}
    named = file_overrides.get("experiment")
    if experiment and named and named != experiment:
        raise ConfigError(f"{config_path} configures {named!r}, not {experiment!r}")
    name = experiment or named
    if name is None:
        raise ConfigError("no experiment given on the command line or in the config")
    cfg = default_config(name)
    merged = {k: v for k, v in file_overrides.items() if k != "experiment"}
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    try:
        cfg = replace(cfg, **merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    cfg.validate()
    return cfg


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _config_echo(cfg: ExperimentConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["variants"] = ",".join(cfg.variants)
    d["m_ratio"] = cfg.m_ratio
    return d


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------

def write_fields_csv(path, positions, u, w, source: str) -> None:
    geometry.write_csv(path, ("id", "x", "y", "ux", "uy", "W", "source"),
                       (np.arange(len(positions)), positions[:, 0], positions[:, 1],
                        u[:, 0], u[:, 1], w, np.full(len(positions), source)))


def write_errors_csv(path, positions, err, included) -> None:
    geometry.write_csv(
        path, ("id", "x", "y", "err_ux", "err_uy", "included_ux", "included_uy"),
        (np.arange(len(positions)), positions[:, 0], positions[:, 1],
         err[:, 0], err[:, 1], included[:, 0].astype(int), included[:, 1].astype(int)))


def write_curve_csv(path, depths, forces, source: str) -> None:
    # every curve starts at the unloaded origin
    geometry.write_csv(path, ("depth_mm", "force_N", "source"),
                       (np.concatenate([[0.0], depths]), np.concatenate([[0.0], forces]),
                        np.full(len(depths) + 1, source)))


def write_stress_csv(path, rows) -> None:
    geometry.write_csv(path, ("variant", "stress_mpa"),
                       (np.array([name for name, _ in rows]),
                        np.array([s for _, s in rows], dtype=float)))


def _edge_weights(coords: np.ndarray) -> np.ndarray:
    """Tributary lengths of sorted nodes along an edge (trapezoidal rule).

    Each end is padded with its own coordinate, so a lone node, which cannot
    carry a line load consistently, gets weight 0.
    """
    ext = np.concatenate([coords[:1], coords, coords[-1:]])
    return 0.5 * (ext[2:] - ext[:-2])


def edge_traction_loads(bcs: BCSet, node_ids: np.ndarray, positions: np.ndarray,
                        traction: float, thickness: float) -> None:
    """Distribute a uniform y traction over the nodes of a horizontal edge.

    End nodes carry half weight so the resultant equals traction times the
    discrete edge length; interior nodes carry a full spacing.
    """
    ids = np.asarray(node_ids)[np.argsort(positions[node_ids, 0])]
    w = _edge_weights(positions[ids, 0])
    bcs.add_load(ids, fy=traction * thickness * w)


# ---------------------------------------------------------------------------
# Experiment scaffold
# ---------------------------------------------------------------------------

# filled by @experiment: name -> (variants, shipped grid), name -> runner
EXPERIMENTS = {}
RUNNERS = {}

# surfaces each bond variant corrects; the others are uncorrected
_SURFACES = {"corrected": "all", "virtual_nodes_corrected_sides": ("-x", "+x")}


@dataclass
class Model:
    """One variant's stiffness operator and what the runners read off it."""

    positions: np.ndarray
    k: sp.csr_matrix
    energy_density: Callable[[np.ndarray], np.ndarray]   # u -> W per node
    nodes: NodeSet | None = None       # bond models only
    bonds: BondTable | None = None


class Run:
    """One experiment run: metrics, artifacts, wall time and each variant's model.

    :meth:`model` builds the FEM reference (``fem``) or a bond model. Bond
    models share their lattice: vertex-centred for ``uncorrected`` and
    ``corrected``, cell-centred with virtual buffers beyond the +-y edges for
    ``virtual_nodes*``. Each kind is built once and released before the other
    kind is built, so one lattice is alive at a time. The first bond model
    adds the calibration metrics; with ``dump_bonds`` each bond model writes
    ``<variant>/bonds.csv``.

    A runner's ``del model`` frees the operator before the next variant's
    correction and assembly.
    """

    def __init__(self, experiment: str, cfg: ExperimentConfig):
        self.experiment = experiment
        self.cfg = cfg
        self.out = Path(cfg.out)
        self.metrics = {}
        self.artifacts = []      # written only by artifact()
        self.wall_seconds = 0.0
        self.elastic = ElasticParams(cfg.youngs_modulus, cfg.thickness)
        self._virtual = self._lattice = self._material = None

    def artifact(self, rel: str) -> Path:
        """List ``rel`` in the report and return its path under the output directory."""
        self.artifacts.append(rel)
        return self.out / rel

    def release(self) -> None:
        """Drop the lattice; the report stays."""
        self._virtual = self._lattice = None

    def to_text(self) -> str:
        """The ``summary.txt`` report: config echo, metrics, artifacts, wall time."""
        lines = [f"experiment = {self.experiment}", ""]
        lines.append("[config]")
        lines += [f"{k} = {v}" for k, v in _config_echo(self.cfg).items()]
        lines.append("")
        lines.append("[metrics]")
        lines += [f"{k} = {_fmt(v)}" for k, v in self.metrics.items()]
        lines.append("")
        lines.append("[artifacts]")
        lines += list(self.artifacts)
        lines.append("")
        lines.append(f"wall_seconds = {self.wall_seconds:.3f}")
        return "\n".join(lines) + "\n"

    @functools.cached_property
    def domain(self) -> Domain:  # built on first use: calibrate never needs the sheet
        return Domain.rectangle(self.cfg.size_x, self.cfg.size_y, thickness=self.cfg.thickness)

    def material(self) -> MaterialModel:
        if self._material is None:
            cfg = self.cfg
            self._material = MaterialModel.calibrated(
                self.elastic, cfg.horizon, cfg.profile, cfg.calibration, cfg.spacing)
            lattice = material.discrete_hooke(self._material, cfg.spacing)
            if not lattice.xyxy > 0.0:
                raise ConfigError("the lattice has no shear stiffness: the horizon "
                                  "must reach a diagonal neighbour with nonzero modulus")
            target = material.hooke_plane_stress(self.elastic)
            self.metrics["c0"] = self._material.bulk_amplitude
            self.metrics["calibration_residual"] = abs(lattice.xxxx / target.xxxx - 1.0)
        return self._material

    def lattice(self, virtual: bool) -> tuple[NodeSet, BondTable]:
        if self._virtual is not virtual:
            self.release()
            spacing, domain = self.cfg.spacing, self.domain
            if virtual:
                nodes = geometry.build_grid(domain, GridSpec.cell_centered(domain, spacing))
                layers = int(round(self.cfg.horizon / spacing))
                for side in ("+y", "-y"):
                    nodes = geometry.add_virtual_layers(nodes, domain, side, layers)
            else:
                nodes = geometry.build_grid(domain, GridSpec.covering(domain, spacing))
            self._virtual = virtual
            self._lattice = nodes, geometry.build_bonds(nodes, self.cfg.horizon)
        return self._lattice

    def model(self, variant: str) -> Model:
        cfg = self.cfg
        if variant == "fem":
            mesh = fem_ref.FEMesh.from_grid(
                self.domain, GridSpec.covering(self.domain, cfg.spacing))
            return Model(mesh.nodes, fem_ref.fem_assemble(mesh, self.elastic),
                         lambda u: fem_ref.fem_energy_density(mesh, self.elastic, u))
        nodes, bonds = self.lattice(variant.startswith("virtual_nodes"))
        corr = material.correct_bonds(bonds, nodes, self.domain, self.material(),
                                      _SURFACES.get(variant))
        if cfg.dump_bonds:
            geometry.write_bonds_csv(self.artifact(f"{variant}/bonds.csv"), bonds, corr)
        return Model(nodes.positions, pd_core.assemble(nodes, bonds, corr),
                     lambda u: pd_core.strain_energy_density(nodes, bonds, corr, u),
                     nodes, bonds)


def experiment(variants: tuple[str, ...], grid: tuple[float, float, float, float]):
    """Declare the variants and the shipped grid of ``run_<name>(run)``, and its runner.

    ``EXPERIMENTS[name]`` gets ``(variants, grid)``, ``grid`` being the shipped
    ``(size_x, size_y, spacing, horizon)`` in mm, and ``RUNNERS[name]`` the
    runner ``run_<name>(cfg) -> Run``. The runner creates the output directory
    with one subdirectory per variant, lets the body fill a fresh :class:`Run`,
    times the whole run into ``summary.txt`` and returns the run with its
    lattice released.
    """
    def register(body):
        name = body.__name__.removeprefix("run_")

        def runner(cfg: ExperimentConfig) -> Run:
            t0 = time.perf_counter()
            run = Run(name, cfg)
            try:
                for d in (run.out, *(run.out / v for v in cfg.variants)):
                    d.mkdir(parents=True, exist_ok=True)
                if not os.access(run.out, os.W_OK):
                    raise PermissionError("not writable")
            except OSError as exc:
                raise ConfigError(f"cannot write the output directory {run.out}: "
                                  f"{exc.strerror or exc}") from exc
            body(run)
            run.wall_seconds = time.perf_counter() - t0
            (run.out / "summary.txt").write_text(run.to_text())
            run.release()
            return run

        runner.__name__ = runner.__qualname__ = body.__name__
        runner.__doc__ = body.__doc__
        EXPERIMENTS[name] = (variants, grid)
        RUNNERS[name] = runner
        return runner
    return register


def _nonempty(ids: np.ndarray, what: str) -> np.ndarray:
    if len(ids) == 0:
        raise ConfigError(f"no lattice node on the {what}; the sheet sizes do not "
                          "fit the spacing")
    return ids


def _edge_rows(positions: np.ndarray, half_y: float, spacing: float):
    """Node ids on the y = +half_y and the y = -half_y edge."""
    tol = 1e-7 * spacing
    return (_nonempty(np.where(np.abs(positions[:, 1] - half_y) < tol)[0], "+y edge"),
            _nonempty(np.where(np.abs(positions[:, 1] + half_y) < tol)[0], "-y edge"))


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

@experiment(("uncorrected", "corrected"), (50.0, 100.0, 1.0, 5.0))
def run_tension(run: Run) -> None:
    """Uniaxial traction on a rectangular sheet vs the closed-form field."""
    cfg = run.cfg
    nodes, bonds = run.lattice(virtual=False)
    lattice_hooke = material.discrete_hooke(run.material(), cfg.spacing)
    e_eff, nu_eff = material.effective_constants(lattice_hooke)
    reference = analytic.uniaxial_solution(e_eff, nu_eff, cfg.traction)
    u_ref = reference(nodes.positions)

    bcs = BCSet(nodes.n)
    top, bottom = _edge_rows(nodes.positions, 0.5 * cfg.size_y, cfg.spacing)
    edge_traction_loads(bcs, top, nodes.positions, cfg.traction, cfg.thickness)
    edge_traction_loads(bcs, bottom, nodes.positions, -cfg.traction, cfg.thickness)
    # pin rigid modes on the symmetry axis where the reference is zero anyway
    center = int(np.argmin(np.linalg.norm(nodes.positions, axis=1)))
    axis_nodes = _nonempty(
        np.where(np.abs(nodes.positions[:, 0]) < 1e-9 * cfg.spacing)[0], "x = 0 axis")
    partner = int(axis_nodes[np.argmax(nodes.positions[axis_nodes, 1])])
    bcs.loads[center] = 0.0
    bcs.loads[partner, 0] = 0.0
    bcs.prescribe([center], ux=0.0, uy=0.0)
    bcs.prescribe([partner], ux=0.0)

    metrics = run.metrics
    metrics.update({"effective_modulus": e_eff, "effective_poisson": nu_eff,
                    "nodes": nodes.n, "bonds": bonds.m})
    geometry.write_nodes_csv(run.artifact("nodes.csv"), nodes)
    for variant in cfg.variants:
        model = run.model(variant)
        u, diag = pd_core.solve_static(model.k, bcs, tol=cfg.tol)
        err, included, max_err = analytic.relative_error_field(u, u_ref)
        write_fields_csv(run.artifact(f"{variant}/fields.csv"), nodes.positions, u,
                         model.energy_density(u), f"pd_{variant}")
        write_errors_csv(run.artifact(f"{variant}/errors.csv"), nodes.positions, err, included)
        metrics[f"{variant}.max_err_ux"] = float(max_err[0])
        metrics[f"{variant}.max_err_uy"] = float(max_err[1])
        metrics[f"{variant}.excluded_ux"] = int((~included[:, 0]).sum())
        metrics[f"{variant}.excluded_uy"] = int((~included[:, 1]).sum())
        metrics[f"{variant}.solver_iterations"] = diag.iterations
        metrics[f"{variant}.solver_residual"] = diag.residual
        del model  # free the operator before the next variant is corrected and assembled


@experiment(("fem", "uncorrected", "corrected", "virtual_nodes",
             "virtual_nodes_corrected_sides"),
            (4.0, 4.0, 1.0 / 6, 1.0))      # four horizons, m = 1/6
def run_clamped(run: Run) -> None:
    """Clamped-edge stretching of a square sheet vs the FEM reference."""
    cfg = run.cfg
    metrics = run.metrics
    half = 0.5 * cfg.size_x
    edge_disp = cfg.strain * half
    metrics["edge_displacement"] = edge_disp
    stresses = []

    for variant in cfg.variants:
        virtual = variant.startswith("virtual_nodes")
        if variant != "fem":
            geometry.write_nodes_csv(run.artifact(f"{variant}/nodes.csv"),
                                     run.lattice(virtual)[0])
        model = run.model(variant)
        positions = model.positions
        if virtual:
            # buffers move rigidly with the clamped surface displacement
            vids = np.where(model.nodes.virtual_mask)[0]
            pulled = _nonempty(vids[positions[vids, 1] > 0], "+y buffer")
            held = _nonempty(vids[positions[vids, 1] < 0], "-y buffer")
            metrics[f"{variant}.buffer_displacement"] = edge_disp
        else:
            pulled, held = _edge_rows(positions, half, cfg.spacing)
        bcs = BCSet(len(positions))
        bcs.prescribe(pulled, ux=0.0, uy=edge_disp)
        bcs.prescribe(held, ux=0.0, uy=-edge_disp)
        u, diag = pd_core.solve_static(model.k, bcs, tol=cfg.tol)
        w = model.energy_density(u)
        # |F| over the undeformed cross-section (MPa)
        stress = float(abs(pd_core.reaction_force(model.k, u, bcs, pulled)[1])
                       / (cfg.size_x * cfg.thickness))
        real = np.ones(len(positions), dtype=bool)
        if model.nodes is not None:
            real = model.nodes.real_mask
            energy = w * model.nodes.volumes
            metrics[f"{variant}.energy_real"] = float(energy[real].sum())
            metrics[f"{variant}.energy_virtual"] = float(energy[~real].sum())
        peak = positions[np.flatnonzero(real)[np.argmax(w[real])]]
        write_fields_csv(run.artifact(f"{variant}/fields.csv"), positions, u, w, variant)
        stresses.append((variant, stress))
        metrics[f"{variant}.tensile_stress"] = stress
        metrics[f"{variant}.corner_energy_peak"] = bool(
            np.min(np.linalg.norm(run.domain.vertices - peak, axis=1)) < 1.5 * cfg.spacing)
        metrics[f"{variant}.solver_iterations"] = diag.iterations
        metrics[f"{variant}.solver_residual"] = diag.residual
        del model  # free the operator before the next variant is corrected and assembled
    write_stress_csv(run.artifact("stresses.csv"), stresses)
    if "fem" in cfg.variants:
        for variant, stress in stresses:
            if variant != "fem":
                metrics[f"{variant}.stress_vs_fem"] = stress / metrics["fem.tensile_stress"]


@experiment(("fem", "corrected", "uncorrected"), (40.0, 40.0, 0.25, 1.5))
def run_indent(run: Run) -> None:
    """Circular-punch indentation: FEM reference vs bond models."""
    cfg = run.cfg
    metrics = run.metrics
    depths = np.linspace(cfg.depth_max / cfg.depth_steps, cfg.depth_max,
                         cfg.depth_steps)
    metrics.update({"indenter_radius": cfg.indenter_radius,
                    "depth_max": cfg.depth_max, "depth_steps": cfg.depth_steps})
    curves = {}

    for variant in cfg.variants:
        tv = time.perf_counter()
        model = run.model(variant)
        positions = model.positions
        top_ids, bottom_ids = _edge_rows(positions, 0.5 * cfg.size_y, cfg.spacing)
        base = BCSet(len(positions))
        base.prescribe(bottom_ids, ux=0.0, uy=0.0)  # block rests on a rigid support
        # K handed over, not kept: the ramp frees it once it has read it
        result = curves[variant] = pd_core.run_indentation(
            positions, vars(model).pop("k"), base, top_ids, cfg.indenter_radius, depths,
            bonds=model.bonds, tol=cfg.tol)
        write_curve_csv(run.artifact(f"{variant}/curve.csv"), result.depths, result.forces,
                        variant)
        w = model.energy_density(result.u_final)
        write_fields_csv(run.artifact(f"{variant}/fields.csv"), positions, result.u_final, w,
                         variant)
        converged = len(result.depths) > 0
        metrics[f"{variant}.steps_converged"] = len(result.depths)
        metrics[f"{variant}.final_depth"] = float(result.depths[-1]) if converged else 0.0
        metrics[f"{variant}.final_force"] = float(result.forces[-1]) if converged else 0.0
        metrics[f"{variant}.stuck_nodes"] = int(result.stuck_counts[-1]) if converged else 0
        metrics[f"{variant}.aborted_on_inversion"] = bool(result.failed)
        if result.failed:
            metrics[f"{variant}.failure_depth"] = float(result.failure_depth)
            metrics[f"{variant}.inverted_bonds"] = int(len(result.inverted_bonds))
        if converged:
            peak = positions[int(np.argmax(w))]
            under = (abs(peak[0]) <= 3 * cfg.spacing
                     and peak[1] >= 0.5 * cfg.size_y - 2 * cfg.horizon)
            metrics[f"{variant}.energy_peak_under_indenter"] = bool(under)
        metrics[f"{variant}.wall_seconds"] = time.perf_counter() - tv
        del model  # free the operator before the next variant is corrected and assembled

    pd_variants = [v for v in cfg.variants if v != "fem"]
    if "fem" in curves:
        fem = curves["fem"]
        for variant in pd_variants:
            shared = min(len(curves[variant].depths), len(fem.depths))
            if shared and fem.forces[shared - 1] > 0:  # else the punch touched nothing
                ratio = curves[variant].forces[shared - 1] / fem.forces[shared - 1]
                metrics[f"{variant}.force_vs_fem_at_last_depth"] = float(ratio)
    metrics["all_bond_variants_aborted"] = bool(
        pd_variants and all(curves[v].failed for v in pd_variants))


@experiment((), (50.0, 100.0, 1.0, 5.0))
def run_calibrate(run: Run) -> None:
    """Report bulk amplitudes and affine energy-match residuals."""
    cfg = run.cfg
    metrics = run.metrics
    target = material.hooke_plane_stress(run.elastic)
    for kind in material.PROFILE_KINDS:
        for mode in ("continuum", "discrete"):
            mat = MaterialModel.calibrated(run.elastic, cfg.horizon, kind, mode, cfg.spacing)
            metrics[f"c0.{kind}.{mode}"] = mat.bulk_amplitude
            lattice = material.discrete_hooke(mat, cfg.spacing)
            metrics[f"residual_uniaxial.{kind}.{mode}"] = abs(
                lattice.xxxx / target.xxxx - 1.0)
            metrics[f"residual_shear.{kind}.{mode}"] = abs(
                lattice.xyxy / target.xyxy - 1.0)
        metrics[f"discrete_vs_continuum.{kind}"] = (
            metrics[f"c0.{kind}.discrete"] / metrics[f"c0.{kind}.continuum"] - 1.0)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pdsc",
        description="Bond-model benchmark experiments with built-in references.")
    p.add_argument("experiment", choices=sorted(RUNNERS),
                   help="which experiment to run")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--variant", action="append", dest="variants",
                   help="restrict to the given variant(s); repeatable")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--dump-bonds", action="store_true",
                   help="also write bonds.csv per variant")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"out": args.out,
                 "variants": tuple(args.variants) if args.variants else None,
                 "dump_bonds": True if args.dump_bonds else None}
    try:
        cfg = load_config(args.experiment, args.config, overrides)
        run = RUNNERS[cfg.experiment](cfg)
    except (ConfigError, GeometryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""  # numpy's names the allocation's size
        print(f"solver failure: out of memory{detail}", file=sys.stderr)
        return 3
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    print(run.to_text(), end="")
    if cfg.experiment == "indent" and run.metrics.get("all_bond_variants_aborted"):
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
