"""Config handling, artifacts, determinism and exit codes of the harness."""

import contextlib
import dataclasses
import importlib.util
import io
import re
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdsc import analytic, bench_cli, fem_ref, geometry, material, pd_core
from pdsc.bench_cli import (ConfigError, default_config, load_config, main,
                            read_config_file, run_calibrate, run_tension)


ROOT = Path(__file__).resolve().parents[1]


def small_tension(out, **kw):
    cfg = default_config("tension")
    return dataclasses.replace(cfg, size_x=10.0, size_y=20.0, spacing=1.0,
                               horizon=3.0, out=str(out), **kw)


class TestConfig:
    def test_defaults_are_valid(self):
        for name in ("tension", "clamped", "indent", "calibrate"):
            default_config(name).validate()

    def test_file_parsing_and_comments(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nexperiment = tension\nspacing = 2.0  # inline\n"
                     "variants = corrected\ndump_bonds = true\n")
        cfg = load_config(config_path=p)
        assert cfg.experiment == "tension"
        assert cfg.spacing == 2.0
        assert cfg.variants == ("corrected",)
        assert cfg.dump_bonds is True

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("experiment = tension\nwibble = 3\n")
        with pytest.raises(ConfigError):
            load_config(config_path=p)

    def test_bad_variant_rejected(self):
        with pytest.raises(ConfigError):
            load_config("tension", overrides={"variants": ("fem",)})

    @pytest.mark.parametrize("call, message", [
        (lambda: load_config("nope"), "unknown experiment 'nope'"),
        (lambda: bench_cli.ExperimentConfig("nope", (), 1.0, 1.0, 0.5, 1.0).validate(),
         "unknown experiment 'nope'"),
        (lambda: load_config("tension", overrides={"bogus": 1.0}), "bogus"),
    ], ids=["unknown-experiment", "validate-unknown-experiment", "unknown-override"])
    def test_refusals(self, call, message):
        with pytest.raises(ConfigError, match=message):
            call()

    def test_no_experiment_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("spacing = 2.0\n")
        with pytest.raises(ConfigError, match="no experiment given"):
            load_config(None, p)

    def test_cli_overrides_config(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("experiment = tension\nout = from_file\n")
        cfg = load_config("tension", p, {"out": "from_cli"})
        assert cfg.out == "from_cli"

    def test_m_ratio_derived(self):
        cfg = default_config("clamped")
        assert cfg.m_ratio == pytest.approx(1 / 6)

    def test_repository_configs_parse(self):
        for f in sorted((ROOT / "configs").glob("*.cfg")):
            cfg = load_config(config_path=f)
            assert cfg.experiment in bench_cli.EXPERIMENTS

    @pytest.mark.parametrize("name", sorted(bench_cli.EXPERIMENTS))
    def test_defaults_equal_repository_configs(self, name):
        # the acceptance tests run the defaults, the benchmark the config files
        assert default_config(name) == load_config(
            config_path=ROOT / "configs" / f"{name}.cfg")


def perfbench_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_benchmark_layer_table_names_exist():
    # the benchmark wraps these attributes by name; a missing one breaks
    # every traced run
    layers = perfbench_layers()
    table = layers._layer_table(geometry, material, pd_core, fem_ref, analytic,
                                bench_cli)
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in table if attr not in vars(owner)]
    assert not missing


def test_benchmark_tracer_counts_and_restores(tmp_path):
    # a traced benchmark run reads its counters off SolveDiagnostics and
    # RampSolver; a change to either that breaks only traced runs shows here
    layers = perfbench_layers()
    tracer = layers.Tracer()
    saved = layers.install(tracer)
    try:
        bench_cli.RUNNERS["tension"](small_tension(tmp_path / "t", variants=("corrected",)))
        bench_cli.RUNNERS["indent"](dataclasses.replace(
            default_config("indent"), size_x=16.0, size_y=16.0, spacing=0.5,
            horizon=1.5, indenter_radius=6.0, depth_max=1.0, depth_steps=8,
            variants=("corrected",), out=str(tmp_path / "i")))
        # every clamped variant: the FEM reference and the virtual-node buffers too
        bench_cli.RUNNERS["clamped"](dataclasses.replace(
            default_config("clamped"), size_x=2.0, size_y=2.0, spacing=0.25,
            horizon=0.75, out=str(tmp_path / "c")))
    finally:
        layers.restore(saved)
    counts = tracer.counts[tracer.request]
    for name in ("pd_core.solve_static_calls", "pd_core.pcg_iters",
                 "pd_core.ramp_steps", "pd_core.lu_fill_nnz", "geometry.bonds",
                 "geometry.rays", "pd_core.k_nnz", "geometry.write_csv_mb",
                 "bench_cli.write_csv_mb"):
        assert counts[name] > 0, name
    assert saved and all(vars(owner)[attr] is raw for owner, attr, raw in saved)


class TestTensionHarness:
    def test_zero_traction_zero_errors(self, tmp_path):
        cfg = small_tension(tmp_path, traction=0.0, variants=("corrected",))
        summary = run_tension(cfg)
        assert summary.metrics["corrected.max_err_ux"] == 0.0
        assert summary.metrics["corrected.max_err_uy"] == 0.0

    def test_artifacts_written_and_round_trip(self, tmp_path):
        cfg = small_tension(tmp_path, variants=("corrected",), dump_bonds=True)
        summary = run_tension(cfg)
        out = tmp_path
        assert (out / "summary.txt").exists()
        assert (out / "nodes.csv").exists()
        assert (out / "corrected" / "bonds.csv").exists()
        # recompute the headline metric from the errors artifact
        rows = (out / "corrected" / "errors.csv").read_text().splitlines()[1:]
        err_uy = [float(r.split(",")[4]) for r in rows
                  if r.split(",")[6] == "1"]
        assert max(err_uy) == pytest.approx(summary.metrics["corrected.max_err_uy"],
                                            rel=1e-12)

    def test_deterministic_artifacts(self, tmp_path):
        cfg_a = small_tension(tmp_path / "a", variants=("corrected",))
        cfg_b = small_tension(tmp_path / "b", variants=("corrected",))
        run_tension(cfg_a)
        run_tension(cfg_b)
        for rel in ("corrected/fields.csv", "corrected/errors.csv", "nodes.csv"):
            a = (tmp_path / "a" / rel).read_bytes()
            b = (tmp_path / "b" / rel).read_bytes()
            assert a == b

    def test_run_keeps_no_operator_past_its_variant(self, tmp_path):
        run = bench_cli.Run("tension", small_tension(tmp_path))
        model = run.model("uncorrected")
        k = weakref.ref(model.k)
        del model
        assert k() is None


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython 3.10 keeps a call's arguments until it returns")
def test_indent_frees_each_bond_operator_before_its_factor(tmp_path, monkeypatch):
    # the runner hands K over and the ramp keeps only K's surface and half
    # rows, so neither a bond variant's whole K nor its entries are alive
    # when its ramp factor starts
    built, alive = [], []
    assemble, factor = pd_core.assemble, pd_core.MultifrontalCholesky.__init__

    def recorded(*args):
        k = assemble(*args)
        built.append((weakref.ref(k), weakref.ref(k.data)))
        return k

    def checked(self, *args):
        alive.append([ref() is not None for refs in built for ref in refs])
        factor(self, *args)

    monkeypatch.setattr(pd_core, "assemble", recorded)
    monkeypatch.setattr(pd_core.MultifrontalCholesky, "__init__", checked)
    bench_cli.RUNNERS["indent"](dataclasses.replace(
        default_config("indent"), size_x=16.0, size_y=16.0, spacing=0.5, horizon=1.5,
        indenter_radius=6.0, depth_max=1.0, depth_steps=8,
        variants=("corrected", "uncorrected"), out=str(tmp_path)))
    assert alive == [[False] * 2, [False] * 4]


class TestCalibrateHarness:
    def test_reports_amplitudes_and_residuals(self, tmp_path):
        cfg = dataclasses.replace(default_config("calibrate"), out=str(tmp_path))
        s = run_calibrate(cfg)
        c_cont = s.metrics["c0.constant.continuum"]
        assert c_cont == pytest.approx(9 * 1000 / (np.pi * 125), rel=1e-12)
        assert s.metrics["c0.conical.continuum"] == pytest.approx(4 * c_cont, rel=1e-12)
        assert abs(s.metrics["discrete_vs_continuum.constant"]) < 0.05
        assert s.metrics["residual_uniaxial.constant.discrete"] < 1e-12


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        code = main(["calibrate", "--out", str(tmp_path)])
        assert code == 0
        assert "c0.constant.continuum" in capsys.readouterr().out

    def test_config_error_is_2(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("experiment = tension\nspacing = -1\n")
        assert main(["tension", "--config", str(p)]) == 2

    def test_missing_config_file_is_2(self, tmp_path):
        assert main(["tension", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_config_file_not_utf8_is_2(self, tmp_path, capsys):
        p = tmp_path / "binary.cfg"
        p.write_bytes(b"\xff\xfe")
        assert main(["tension", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: {p}: not UTF-8 text (invalid start byte at byte 0)\n"

    def test_variant_named_twice_on_the_command_line_is_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["clamped", "--variant", "corrected", "--variant", "corrected"]
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("configuration error: variant(s) "
                                           "['corrected'] given more than once\n")
        assert not out.exists()

    def test_config_for_another_experiment_is_2(self, tmp_path, capsys):
        config = ROOT / "configs" / "calibrate.cfg"
        assert main(["tension", "--config", str(config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"configuration error: {config} configures 'calibrate', "
                       "not 'tension'\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("experiment, text", [
        # the loaded +y edge row falls outside the sheet
        ("tension", "size_x = 10\nsize_y = 20\nspacing = 0.7\nhorizon = 3.0\n"),
        # no node on the symmetry axis x = 0 to pin
        ("tension", "size_x = 9\nsize_y = 20\nspacing = 1.0\nhorizon = 3.0\n"),
        ("tension", "youngs_modulus = 0\n"),
        ("calibrate", "youngs_modulus = -1\n"),
        # every body is a sheet of unit thickness
        ("tension", "thickness = 1.0\n"),
        ("tension", "spacing = 1.0\nhorizon = 0.5\n"),
        # a conical micromodulus vanishes at the horizon, so the discrete
        # calibration of a nearest-neighbour lattice divides by zero
        ("calibrate", "spacing = 1.0\nhorizon = 1.0\n"),
        ("clamped", "size_x = 2\nsize_y = 3\nspacing = 0.25\nhorizon = 0.75\n"),
        # clamped rows fall outside the sheet: FEM mesh, then the bond lattice
        ("clamped", "size_x = 2\nsize_y = 2\nspacing = 0.3\nhorizon = 0.9\n"),
        ("clamped", "size_x = 2\nsize_y = 2\nspacing = 0.3\nhorizon = 0.9\n"
                    "variants = corrected\n"),
        ("indent", "size_x = 16\nsize_y = 16\nspacing = 0.7\nhorizon = 2.1\n"
                   "depth_steps = 2\nvariants = corrected\n"),
        # the indenter must fit the block
        ("indent", "indenter_radius = 0\n"),
        ("indent", "depth_max = 0\n"),
        ("indent", "indenter_radius = 1\ndepth_max = 1.5\n"),
        # the top surface node would sit at the punch centre, with no
        # direction to attach along
        ("indent", "size_x = 16\nsize_y = 16\nspacing = 0.5\nhorizon = 1.5\n"
                   "indenter_radius = 1\ndepth_max = 1\ndepth_steps = 1\n"),
        # contact chord 2 sqrt(2 R d - d^2) = 14.97 mm at R = 15, d = 2
        ("indent", "size_x = 14\nsize_y = 14\nspacing = 0.5\nhorizon = 1.5\n"),
        # 20.2 spacings: the nodes span -5.05..4.95, off-centre under the punch
        ("indent", "size_x = 10.1\nsize_y = 10\nspacing = 0.5\nhorizon = 1.5\n"
                   "indenter_radius = 6\ndepth_max = 1\ndepth_steps = 2\n"),
        # every range check is false for NaN
        ("calibrate", "spacing = nan\n"),
        ("tension", "horizon = inf\n"),
        ("indent", "depth_max = nan\n"),
        ("clamped", "variants = fem,fem\n"),
        # nothing to solve
        ("tension", "variants =\n"),
        ("clamped", "variants =\n"),
        ("indent", "variants =\n"),
        # no stress to compare against the FEM one
        ("clamped", "size_x = 2\nsize_y = 2\nspacing = 0.25\nhorizon = 0.75\nstrain = 0\n"),
        # a relative residual of 0 is out of reach, and one of 1 or more is
        # met before any solve
        ("tension", "size_x = 10\nsize_y = 20\nspacing = 1.0\nhorizon = 3.0\ntol = 0\n"),
        ("tension", "tol = -1\n"),
        ("indent", "size_x = 16\nsize_y = 16\nspacing = 0.5\nhorizon = 1.5\n"
                   "indenter_radius = 6\ndepth_max = 1.0\ndepth_steps = 8\ntol = 1\n"),
        ("tension", "profile = cone\n"),
        ("tension", "calibration = exact\n"),
        ("indent", "depth_steps = 0\n"),
        ("tension", "dump_bonds = maybe\n"),
        ("tension", "spacing 1.0\n"),
    ], ids=["tension-empty-edge", "tension-no-axis", "zero-modulus",
            "negative-modulus", "thickness-is-not-a-key", "spacing-over-horizon",
            "spacing-at-horizon", "clamped-not-square", "clamped-fem-off-grid",
            "clamped-empty-edge", "indent-empty-edge", "indent-zero-radius",
            "indent-zero-depth", "indent-depth-over-radius", "indent-depth-at-radius",
            "indent-chord-over-block", "indent-off-centre", "nan-spacing", "inf-horizon", "nan-depth",
            "repeated-variant", "tension-no-variant", "clamped-no-variant",
            "indent-no-variant", "clamped-zero-strain", "zero-tol", "negative-tol", "unit-tol",
            "unknown-profile", "unknown-calibration", "zero-depth-steps",
            "non-boolean-dump-bonds", "line-without-equals"])
    def test_bad_geometry_or_material_is_2(self, tmp_path, capsys, experiment, text):
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        assert main([experiment, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        if text.startswith("thickness"):
            assert err.endswith(": unknown config key 'thickness'\n")

    @pytest.mark.parametrize("experiment, text", [
        ("tension", "size_x = 10\nsize_y = 20\nspacing = 1.0\nhorizon = 3.0\n"),
        ("indent", "size_x = 16\nsize_y = 16\nspacing = 0.5\nhorizon = 1.5\n"
                   "indenter_radius = 6\ndepth_max = 1.0\ndepth_steps = 8\n"
                   "variants = corrected\n"),
    ], ids=["tension", "indent"])
    def test_solver_stall_is_3(self, tmp_path, capsys, experiment, text):
        # no residual reaches 1e-300: PCG runs out of iterations, the ramp
        # out of refinement rounds at its first depth
        p = tmp_path / "stall.cfg"
        p.write_text(text + "tol = 1e-300\n")
        assert main([experiment, "--config", str(p), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure: ") and err.count("\n") == 1
        if experiment == "indent":
            assert "at depth 0.125 mm" in err

    def test_factor_over_available_memory_is_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pd_core, "_available_memory", lambda: 10**6)
        p = tmp_path / "indent.cfg"
        p.write_text("size_x = 16\nsize_y = 16\nspacing = 0.5\nhorizon = 1.5\n"
                     "indenter_radius = 6\ndepth_max = 1.0\ndepth_steps = 8\n")
        assert main(["indent", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert re.fullmatch(r"solver failure: the factor of \d+ unknowns needs about "
                            r"\S+ GB, more than the 0.001 GB available\n", err)

    @pytest.mark.parametrize("owner, attr, text", [
        (geometry, "build_bonds", "Unable to allocate 1.00 GiB for an array"),
        (material, "correct_bonds", "Unable to allocate 1.00 GiB for an array"),
        (pd_core, "assemble", "Unable to allocate 1.00 GiB for an array"),
        (pd_core, "cholesky", ""),  # a MemoryError without text ends the line there
    ], ids=["build_bonds", "correct_bonds", "assemble", "cholesky"])
    def test_out_of_memory_in_any_phase_is_3(self, tmp_path, capsys, monkeypatch,
                                             owner, attr, text):
        def exhausted(*args, **kwargs):
            raise MemoryError(text)
        monkeypatch.setattr(owner, attr, exhausted)
        p = tmp_path / "indent.cfg"
        p.write_text("size_x = 16\nsize_y = 16\nspacing = 0.5\nhorizon = 1.5\n"
                     "indenter_radius = 6\ndepth_max = 1.0\ndepth_steps = 8\n")
        assert main(["indent", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == f"solver failure: out of memory{': ' + text if text else ''}\n"

    def test_surface_under_a_buffer_is_2(self, tmp_path, capsys, monkeypatch):
        # no shipped variant corrects the +-y edges its virtual buffers cover
        monkeypatch.setitem(bench_cli._SURFACES, "virtual_nodes", "all")
        p = tmp_path / "clamped.cfg"
        p.write_text("size_x = 2\nsize_y = 2\nspacing = 0.25\nhorizon = 0.75\n"
                     "variants = virtual_nodes\n")
        assert main(["clamped", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == ("configuration error: truncated horizon shorter "
                                           "than a bond; domain and bonds disagree\n")

    def test_asymmetric_indent_is_2(self, tmp_path, capsys, monkeypatch):
        # no valid config builds one, so one corner leaves the punched surface
        real = pd_core.run_indentation
        monkeypatch.setattr(pd_core, "run_indentation", lambda positions, k, base, top,
                            *args, **kw: real(positions, k, base, top[1:], *args, **kw))
        p = tmp_path / "indent.cfg"
        p.write_text("size_x = 16\nsize_y = 16\nspacing = 0.5\nhorizon = 1.5\n"
                     "indenter_radius = 6\ndepth_max = 1.0\ndepth_steps = 8\n")
        assert main(["indent", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == ("configuration error: the indentation "
                                           "surface is not mirror-symmetric about x = 0\n")

    @pytest.mark.parametrize("where", ["existing-file", "under-a-file"])
    def test_unusable_out_is_2(self, tmp_path, capsys, where):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker if where == "existing-file" else blocker / "run"
        assert main(["calibrate", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1

    def test_uncorrected_indent_abort_is_4(self, tmp_path):
        p = tmp_path / "indent.cfg"
        p.write_text(
            "experiment = indent\nspacing = 0.5\nhorizon = 3.0\n"
            "depth_steps = 40\nvariants = uncorrected\ndump_bonds = off\n"
            f"out = {tmp_path / 'run'}\n")
        code = main(["indent", "--config", str(p)])
        assert code == 4
        summary = (tmp_path / "run" / "summary.txt").read_text()
        assert "uncorrected.aborted_on_inversion = True" in summary
        assert "dump_bonds = False" in summary
        assert not (tmp_path / "run" / "uncorrected" / "bonds.csv").exists()

    def test_indent_with_surviving_variant_is_0(self, tmp_path):
        # the expected uncorrected abort is not a harness failure when a
        # bond-model variant completes the ramp
        p = tmp_path / "indent.cfg"
        p.write_text(
            "experiment = indent\nspacing = 0.5\nhorizon = 3.0\n"
            "depth_steps = 12\ndepth_max = 1.8\nvariants = corrected,uncorrected\n"
            f"out = {tmp_path / 'run'}\n")
        code = main(["indent", "--config", str(p)])
        summary = (tmp_path / "run" / "summary.txt").read_text()
        assert "uncorrected.aborted_on_inversion = True" in summary
        assert "corrected.aborted_on_inversion = False" in summary
        assert code == 0


# lengths on the grid or off it (at most 17 x 17 nodes, plus 12 rows of
# virtual buffers in clamped), and values no range check should let through;
# the examples are derandomized so that the suite's verdict is repeatable
_ODD = st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -1.0])


def _length(lo, hi, *on_grid):
    return st.one_of(st.sampled_from(on_grid), st.floats(lo, hi))


_LENGTHS = {"size_x": (1.0, 8.0, 2.0, 4.0, 6.0), "size_y": (1.0, 8.0, 2.0, 4.0, 6.0),
            "spacing": (0.5, 2.0, 0.5, 1.0), "horizon": (0.4, 3.0, 1.5, 2.0, 3.0),
            "indenter_radius": (0.5, 8.0, 3.0, 6.0), "depth_max": (0.05, 2.0, 0.25, 1.0)}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(experiment=st.sampled_from(sorted(bench_cli.EXPERIMENTS)),
       lengths=st.fixed_dictionaries({k: _length(*v) for k, v in _LENGTHS.items()}),
       steps=st.integers(1, 3), profile=st.sampled_from(material.PROFILE_KINDS),
       square=st.booleans(),
       odd=st.none() | st.tuples(st.sampled_from(sorted(_LENGTHS)), _ODD))
def test_main_returns_an_exit_code_on_any_small_config(
        tmp_path_factory, experiment, lengths, steps, profile, square, odd):
    values = {**lengths, "depth_steps": steps, "profile": profile}
    if square:
        values["size_y"] = values["size_x"]
    if odd:
        values[odd[0]] = odd[1]
    out = tmp_path_factory.mktemp("any")
    cfg = out / "any.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    err = io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("error", RuntimeWarning)  # no silent NaN or inf
        code = main([experiment, "--config", str(cfg), "--out", str(out / "run")])
    assert code in (0, 2, 3, 4)
    if code in (2, 3):
        assert err.getvalue().count("\n") == 1
