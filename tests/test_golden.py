"""Golden artifacts: every CSV and the summary metrics of small runs, pinned.

Each case runs one experiment through ``main()`` on a small grid, with and
without ``--dump-bonds``, and compares sha256 digests of every CSV it writes
and of the ``[metrics]`` and ``[artifacts]`` sections of ``summary.txt``.
Wall-time lines are left out of the metrics digest. A refactor of the harness
that should not change results must leave every digest as it is.

A numerical change to the indentation ramp (a new factorization order, say)
moves the last bits of the curves and so the indent digests. It is held
instead by ``INDENT_CURVES``: the force curves of the three indent variants
within a relative 1e-10 and the step counts, stuck-node counts and
inversion-abort metrics exactly, on the golden config and on a deeper ramp
whose uncorrected variant aborts.

The ramp factor's last bits also depend on the BLAS thread count: threaded
OpenBLAS kernels round differently from single-threaded ones. So the indent
cases run in a child interpreter with one BLAS thread, as ``perfbench``
runs, and their digests hold on any number of cores.

The golden tension and clamped grids are small. ``STATIC_METRICS`` holds a
tension and a clamped run with more than 3,000 free dofs each to a relative
1e-8 on their headline metrics (excluded counts exactly), so a change of the
static solver is checked on the sizes the shipped configs solve.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pdsc
from pdsc.bench_cli import main

CONFIGS = {
    "tension": "size_x = 10\nsize_y = 20\nspacing = 1.0\nhorizon = 3.0\n",
    "clamped": "size_x = 2\nsize_y = 2\nspacing = 0.25\nhorizon = 0.75\n",
    "indent": ("size_x = 16\nsize_y = 16\nspacing = 0.5\nhorizon = 1.5\n"
               "indenter_radius = 6\ndepth_max = 1.0\ndepth_steps = 8\n"),
    "calibrate": "",
}

GOLDEN = {
    "calibrate-plain": {
        "exit": 0,
        "csv": {},
        "metrics": "7adb8ef122c58dbc686ebc2626a510829329bd666423efaeea867aeda048970d",
        "artifacts": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "calibrate-dump": {
        "exit": 0,
        "csv": {},
        "metrics": "7adb8ef122c58dbc686ebc2626a510829329bd666423efaeea867aeda048970d",
        "artifacts": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "clamped-plain": {
        "exit": 0,
        "csv": {
            "corrected/fields.csv": "b21ad6a49b7c293928eca2e61722e2d8740003a239b42cced52752ec5652bc0c",
            "corrected/nodes.csv": "ea2c098e136804039f789230a1214b94014af1a85a5bf9ece74d5f4d401d3c1a",
            "fem/fields.csv": "71ea39a65e6a5dc4c41e9c7c6dc5d2bc0564d512223ee6bdd228f1795df1d264",
            "stresses.csv": "46641499b39c1d637f84238532c45ecdafc55fff77e3c2ab78eec9279a630c6e",
            "uncorrected/fields.csv": "41d75579af4e491fa6b59ed6ed65bd2e453f68aa4acb2e797d75a7fec791cc34",
            "uncorrected/nodes.csv": "ea2c098e136804039f789230a1214b94014af1a85a5bf9ece74d5f4d401d3c1a",
            "virtual_nodes/fields.csv": "583eebc67d1320f4b07b423879fd3d491858078f1d024137ff812b0f42a50f81",
            "virtual_nodes/nodes.csv": "9f3741d16888303f016989afbe3c7c47fd7294e2621aab38313493ce6e5030e7",
            "virtual_nodes_corrected_sides/fields.csv": "867b9515abc6e389d1671aa7d11adb324edbabd0eaebdf52fac7c6fc48dac80d",
            "virtual_nodes_corrected_sides/nodes.csv": "9f3741d16888303f016989afbe3c7c47fd7294e2621aab38313493ce6e5030e7",
        },
        "metrics": "d464c687c6835472d050e9e42ddadec1205d2e210e2b021d5e12a792075f8889",
        "artifacts": "585c6d5177f1b842b4db3f00c927cf80cdf03283071e177fd9eefc60279548d7",
    },
    "clamped-dump": {
        "exit": 0,
        "csv": {
            "corrected/bonds.csv": "47e1a4126373176f771a915167f2a3c1a5f87cda705797d7b048cbde57d5642e",
            "corrected/fields.csv": "b21ad6a49b7c293928eca2e61722e2d8740003a239b42cced52752ec5652bc0c",
            "corrected/nodes.csv": "ea2c098e136804039f789230a1214b94014af1a85a5bf9ece74d5f4d401d3c1a",
            "fem/fields.csv": "71ea39a65e6a5dc4c41e9c7c6dc5d2bc0564d512223ee6bdd228f1795df1d264",
            "stresses.csv": "46641499b39c1d637f84238532c45ecdafc55fff77e3c2ab78eec9279a630c6e",
            "uncorrected/bonds.csv": "7b4354b38ae84312c29d3ba23d614482ed4e51a3f5a66a21578c8a3a532a9cb7",
            "uncorrected/fields.csv": "41d75579af4e491fa6b59ed6ed65bd2e453f68aa4acb2e797d75a7fec791cc34",
            "uncorrected/nodes.csv": "ea2c098e136804039f789230a1214b94014af1a85a5bf9ece74d5f4d401d3c1a",
            "virtual_nodes/bonds.csv": "eac9ea18d007a8760dc73f465c4836afe37edbd5e00dfbe502e58bcae718ccd0",
            "virtual_nodes/fields.csv": "583eebc67d1320f4b07b423879fd3d491858078f1d024137ff812b0f42a50f81",
            "virtual_nodes/nodes.csv": "9f3741d16888303f016989afbe3c7c47fd7294e2621aab38313493ce6e5030e7",
            "virtual_nodes_corrected_sides/bonds.csv": "bf40d9bb4cefd0794cc27371439b1c505bbd90d313d52bbccc463a0aa0fdcff1",
            "virtual_nodes_corrected_sides/fields.csv": "867b9515abc6e389d1671aa7d11adb324edbabd0eaebdf52fac7c6fc48dac80d",
            "virtual_nodes_corrected_sides/nodes.csv": "9f3741d16888303f016989afbe3c7c47fd7294e2621aab38313493ce6e5030e7",
        },
        "metrics": "d464c687c6835472d050e9e42ddadec1205d2e210e2b021d5e12a792075f8889",
        "artifacts": "0a839a1daa1ffce92f38ddc17dd44b5cc321217ee19f080dcbbac74d9a142cc9",
    },
    "indent-plain": {
        "exit": 0,
        "csv": {
            "corrected/curve.csv": "758459300e304e617a0b0d9950ed1a507c2553175bcc3ab48ee800ee91818101",
            "corrected/fields.csv": "bb1f58e82286675a101d072a87d0f4bebd0bb7c535105008de4f6a3ce9ac12f9",
            "fem/curve.csv": "e9bfe9450235316bc00212fd874fd4c18a1e54044a7e33d94a5d7a83d664cce4",
            "fem/fields.csv": "571276ffdc7fd2ea5276442836d0f8efb07d7e3b2b58666c062d62f798264563",
            "uncorrected/curve.csv": "6b652ac2109442d86b6d61bcadd9cc3b21eb601cd664045fd4268eda689b376e",
            "uncorrected/fields.csv": "89c8aa8d5584e79cf168f2bcb1626e92127ec383485eb63229c539f798ff0c34",
        },
        "metrics": "69db944767cf954c7a992396fec6ba25c48eadd0c99b91714e8f68e4b155d455",
        "artifacts": "97278f3a2fd0a14e07cbe35b0f4c452707a1f18af865014837b5e9670b8e34fa",
    },
    "indent-dump": {
        "exit": 0,
        "csv": {
            "corrected/bonds.csv": "5db5a96c0da48b30ebd08edd824198abc7b8eb170253605c92148f7692fb7d57",
            "corrected/curve.csv": "758459300e304e617a0b0d9950ed1a507c2553175bcc3ab48ee800ee91818101",
            "corrected/fields.csv": "bb1f58e82286675a101d072a87d0f4bebd0bb7c535105008de4f6a3ce9ac12f9",
            "fem/curve.csv": "e9bfe9450235316bc00212fd874fd4c18a1e54044a7e33d94a5d7a83d664cce4",
            "fem/fields.csv": "571276ffdc7fd2ea5276442836d0f8efb07d7e3b2b58666c062d62f798264563",
            "uncorrected/bonds.csv": "bc8808cc239ad253bc6aff0d6106e73d282b4ed9efa1d44ac96a7f009542399e",
            "uncorrected/curve.csv": "6b652ac2109442d86b6d61bcadd9cc3b21eb601cd664045fd4268eda689b376e",
            "uncorrected/fields.csv": "89c8aa8d5584e79cf168f2bcb1626e92127ec383485eb63229c539f798ff0c34",
        },
        "metrics": "69db944767cf954c7a992396fec6ba25c48eadd0c99b91714e8f68e4b155d455",
        "artifacts": "a810fcb22d196a76683fbc1c73f99fa00d5a650d7ebcbfb6dd9528e034e168ac",
    },
    "tension-plain": {
        "exit": 0,
        "csv": {
            "corrected/errors.csv": "d87f049f7d39a92117800b2f0bc680c6f053f6e6562b4c2f8a3770a467cc562c",
            "corrected/fields.csv": "dd647a49370f43d490954e680aeca2f3fe6fc27918d504e123224c1134252424",
            "nodes.csv": "b3575e115bec00c5bea8ff57f63fe38e8823d05db69e21c32cc750889fbbf25e",
            "uncorrected/errors.csv": "511164dba60b37fe1a6cdf464a9b4a65cb36381939e4314ecf82eaf2cff1ce2f",
            "uncorrected/fields.csv": "d0cc9c6cd526fbb69d5085c0dbe21ecd1bce87367a6b78391fe592d230d2b6ce",
        },
        "metrics": "670094b48b36635d32b14401bc430c0a1b70c71361441fa4120ff4335c556efa",
        "artifacts": "d94b6f59e98c738ae5381464891c61d72856cff0f329af94d8f7c3ea95b40220",
    },
    "tension-dump": {
        "exit": 0,
        "csv": {
            "corrected/bonds.csv": "a6bfa4ecfd61ce86de9cb8d36c84008b8d974841ce972edc63f4d554e52b1d9a",
            "corrected/errors.csv": "d87f049f7d39a92117800b2f0bc680c6f053f6e6562b4c2f8a3770a467cc562c",
            "corrected/fields.csv": "dd647a49370f43d490954e680aeca2f3fe6fc27918d504e123224c1134252424",
            "nodes.csv": "b3575e115bec00c5bea8ff57f63fe38e8823d05db69e21c32cc750889fbbf25e",
            "uncorrected/bonds.csv": "f54a7c1d886dc335eb17427f29fb9a16e500cd0884864956b8b35629929b373b",
            "uncorrected/errors.csv": "511164dba60b37fe1a6cdf464a9b4a65cb36381939e4314ecf82eaf2cff1ce2f",
            "uncorrected/fields.csv": "d0cc9c6cd526fbb69d5085c0dbe21ecd1bce87367a6b78391fe592d230d2b6ce",
        },
        "metrics": "670094b48b36635d32b14401bc430c0a1b70c71361441fa4120ff4335c556efa",
        "artifacts": "7154ece74402974924ea7c6bc82b44527ce7ac18b8b892332cdb8b974f1b05ff",
    },
}


INDENT_DEEP = ("size_x = 16\nsize_y = 16\nspacing = 0.5\nhorizon = 1.5\n"
               "indenter_radius = 6\ndepth_max = 2.5\ndepth_steps = 10\n")

# force per converged depth (N) and the exact ramp metrics of each variant
INDENT_CURVES = {
    "golden": (CONFIGS["indent"], {
        "fem": [38.945101346029048, 83.714963815680846, 156.09210654291962,
                228.46924927015831, 281.54625316238253, 361.25475212336107,
                440.96325108433996, 520.6717500453193],
        "corrected": [38.131976818604336, 83.005549831337362, 154.16496526273548,
                      225.32438069413394, 280.11499296545355, 358.76019612538738,
                      437.40539928532053, 516.05060244525339],
        "uncorrected": [27.927837045717652, 64.715161965665402, 115.92038500555303,
                        158.82872067789089, 216.78857204400305, 274.74842341011544,
                        324.42917512342723, 388.39969485669292],
    }, {
        "fem.steps_converged": "8", "fem.stuck_nodes": "9",
        "fem.aborted_on_inversion": "False",
        "corrected.steps_converged": "8", "corrected.stuck_nodes": "9",
        "corrected.aborted_on_inversion": "False",
        "uncorrected.steps_converged": "8", "uncorrected.stuck_nodes": "11",
        "uncorrected.aborted_on_inversion": "False",
    }),
    "deep": (INDENT_DEEP, {
        "fem": [83.706891639447832, 201.66890378262096, 320.35657704314019,
                493.1282089481856, 665.89984085322908, 805.82350527034839,
                990.93515784188446, 1176.0468104134188, 1328.525631191244,
                1525.1017692730356],
        "corrected": [82.951107831298629, 200.11122347224449, 320.21480064885054,
                      491.15721671245666, 662.09963277606278, 805.66239986298194,
                      989.22684869227999, 1136.6272272674337, 1331.9148071955021,
                      1527.2023871235713],
        "uncorrected": [64.355802821690915, 157.57284628635588, 257.98417649602703,
                        385.92521596255801, 499.31015574563173, 638.18222111007094,
                        777.05428647451072, 906.16746776965999],
    }, {
        "fem.steps_converged": "10", "fem.stuck_nodes": "15",
        "fem.aborted_on_inversion": "False",
        "corrected.steps_converged": "10", "corrected.stuck_nodes": "15",
        "corrected.aborted_on_inversion": "False",
        "uncorrected.steps_converged": "8", "uncorrected.stuck_nodes": "15",
        "uncorrected.aborted_on_inversion": "True",
        "uncorrected.failure_depth": "2.25", "uncorrected.inverted_bonds": "3",
    }),
}

# headline metrics of runs with more than 3,000 free dofs: floats to rtol
# 1e-8, ints exactly
STATIC_METRICS = {
    # 31 x 61 nodes at horizon / spacing = 5, 3,779 free dofs
    "tension": ("size_x = 30\nsize_y = 60\nspacing = 1.0\nhorizon = 5.0\n", {
        "nodes": 1891,
        "uncorrected.max_err_ux": 4.789973876522847,
        "uncorrected.max_err_uy": 1.3536358428042325,
        "uncorrected.excluded_ux": 61, "uncorrected.excluded_uy": 31,
        "corrected.max_err_ux": 0.052601457998834054,
        "corrected.max_err_uy": 0.048382552063007594,
        "corrected.excluded_ux": 61, "corrected.excluded_uy": 31,
    }),
    # 41 x 41 nodes at m = 1/6, 3,198 free dofs (3,200 with virtual buffers)
    "clamped": ("size_x = 6\nsize_y = 6\nspacing = 0.15\nhorizon = 0.9\n", {
        "fem.tensile_stress": 10.319820057234017,
        "uncorrected.tensile_stress": 5.5293220110638046,
        "corrected.tensile_stress": 10.270548833454301,
        "virtual_nodes.tensile_stress": 9.1371226694176766,
        "virtual_nodes_corrected_sides.tensile_stress": 9.2722409376645611,
        "uncorrected.stress_vs_fem": 0.53579635888978949,
        "corrected.stress_vs_fem": 0.99522557336208806,
        "virtual_nodes.stress_vs_fem": 0.88539554166089462,
        "virtual_nodes_corrected_sides.stress_vs_fem": 0.89848862540630048,
    }),
}

_RAMP_KEYS = ("steps_converged", "stuck_nodes", "aborted_on_inversion",
              "failure_depth", "inverted_bonds")


def _section(text: str, name: str) -> list[str]:
    lines = text.splitlines()
    start = lines.index(f"[{name}]") + 1
    end = lines.index("", start)
    return lines[start:end]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(out) -> dict:
    """sha256 of every CSV under ``out`` and of the summary sections."""
    summary = (out / "summary.txt").read_text()
    metrics = [line for line in _section(summary, "metrics")
               if not line.split(" = ")[0].endswith("wall_seconds")]
    return {
        "csv": {p.relative_to(out).as_posix(): _sha(p.read_bytes())
                for p in sorted(out.rglob("*.csv"))},
        "metrics": _sha("\n".join(metrics).encode()),
        "artifacts": _sha("\n".join(_section(summary, "artifacts")).encode()),
    }


def main_one_thread(argv) -> int:
    """Exit code of ``main(argv)`` run in a child interpreter at one BLAS thread."""
    path = [str(Path(pdsc.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-m", "pdsc.bench_cli", *argv], env=env,
                          capture_output=True).returncode


def run_case(tmp_path, experiment: str, dump: bool):
    cfg = tmp_path / f"{experiment}.cfg"
    cfg.write_text(CONFIGS[experiment])
    out = tmp_path / "run"
    argv = [experiment, "--config", str(cfg), "--out", str(out)]
    code = (main_one_thread if experiment == "indent" else main)(
        argv + (["--dump-bonds"] if dump else []))
    return code, digest(out)


@pytest.mark.parametrize("dump", [False, True], ids=["plain", "dump"])
@pytest.mark.parametrize("experiment", sorted(CONFIGS))
def test_artifacts_match_golden(tmp_path, capsys, experiment, dump):
    code, got = run_case(tmp_path, experiment, dump)
    capsys.readouterr()
    want = GOLDEN[f"{experiment}-{'dump' if dump else 'plain'}"]
    assert code == want["exit"]
    assert got["csv"] == want["csv"]
    assert got["metrics"] == want["metrics"]
    assert got["artifacts"] == want["artifacts"]


@pytest.mark.parametrize("size", ["0", "-3"],
                         ids=["calibrate-zero-size", "calibrate-negative-size"])
def test_calibrate_needs_no_sheet(tmp_path, capsys, size):
    # the calibration never builds the sheet, so its sizes cannot fail it
    cfg = tmp_path / "calibrate.cfg"
    cfg.write_text(f"size_x = {size}\nsize_y = {size}\n")
    out = tmp_path / "run"
    assert main(["calibrate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert digest(out)["metrics"] == GOLDEN["calibrate-plain"]["metrics"]


@pytest.mark.parametrize("case", sorted(INDENT_CURVES))
def test_indent_curves_within_tolerance(tmp_path, capsys, case):
    text, curves, ramp = INDENT_CURVES[case]
    cfg = tmp_path / "indent.cfg"
    cfg.write_text(text)
    out = tmp_path / "run"
    assert main(["indent", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    for variant, forces in curves.items():
        rows = (out / variant / "curve.csv").read_text().splitlines()[2:]
        got = [float(row.split(",")[1]) for row in rows]
        assert len(got) == len(forces), variant
        np.testing.assert_allclose(got, forces, rtol=1e-10, atol=0, err_msg=variant)
    metrics = dict(line.split(" = ", 1) for line in
                   _section((out / "summary.txt").read_text(), "metrics"))
    assert {k: v for k, v in metrics.items()
            if k.rsplit(".", 1)[-1] in _RAMP_KEYS} == ramp


@pytest.mark.parametrize("experiment", sorted(STATIC_METRICS))
def test_static_metrics_within_tolerance(tmp_path, capsys, experiment):
    text, want = STATIC_METRICS[experiment]
    cfg = tmp_path / f"{experiment}.cfg"
    cfg.write_text(text)
    out = tmp_path / "run"
    assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    metrics = dict(line.split(" = ", 1) for line in
                   _section((out / "summary.txt").read_text(), "metrics"))
    for key, value in want.items():
        if isinstance(value, int):
            assert int(metrics[key]) == value, key
        else:
            np.testing.assert_allclose(float(metrics[key]), value, rtol=1e-8,
                                       atol=0, err_msg=key)
