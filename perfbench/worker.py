"""One benchmark run of a pdsc workload, in a fresh interpreter.

``perfbench/run.py`` starts this file from the root of a checkout with
``src`` on ``PYTHONPATH``. It times the set-up (``import pdsc`` and loading
the workload's configs), then calls the ``pdsc.bench_cli`` runners until
``--seconds`` are used up, checks every result against
``perfbench/expected.json`` and prints one JSON object. With ``--trace 1``
untraced and traced iterations alternate, so that the tracing overhead can be
taken as their difference. ``--setup-only`` stops after the set-up.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench_runs")
INDENT_CFG = "configs/indent.cfg"
TENSION_CFG = "configs/tension.cfg"
CLAMPED_CFG = "configs/clamped.cfg"
# m-convergence study: spacing = horizon / k
CLAMPED_K = (3, 4, 6, 8, 10, 12)
SETUP_PROBES = 12         # fresh interpreters timed for setup_s, besides this one


# --- workloads: (label, config) members, run in order ----------------------

def _indent_half(load, seed, out):
    # every length of the shipped indent config halved; spacing and horizon kept
    return [("indent-half", load("indent", INDENT_CFG, {
        "size_x": 20.0, "size_y": 20.0, "indenter_radius": 7.5,
        "depth_max": 1.0, "out": str(out)}))]


def _tension_dump(load, seed, out):
    return [("tension", load("tension", TENSION_CFG,
                             {"dump_bonds": True, "out": str(out)}))]


def _clamped_sweep(load, seed, out):
    horizon = load("clamped", CLAMPED_CFG).horizon
    ks = list(CLAMPED_K)
    # the seed only permutes the members, which must not change any result
    random.Random(seed).shuffle(ks)
    return [(f"k{k}", load("clamped", CLAMPED_CFG, {
        "spacing": horizon / k, "out": str(out / f"k{k}")})) for k in ks]


def _indent_ref(by_member):
    return abs(by_member["indent-half"]["corrected.force_vs_fem_at_last_depth"] - 1.0)


def _tension_ref(by_member):
    m = by_member["tension"]
    return max(m["corrected.max_err_ux"], m["corrected.max_err_uy"])


def _clamped_ref(by_member):
    return max(abs(m["corrected.stress_vs_fem"] - 1.0) for m in by_member.values())


# name -> (members, headline deviation from the reference)
WORKLOADS = {
    "indent-half": (_indent_half, _indent_ref),
    "tension-dump": (_tension_dump, _tension_ref),
    "clamped-sweep": (_clamped_sweep, _clamped_ref),
}


def set_up(name: str, seed: int):
    """What every ``pdsc`` invocation pays before a runner can be called."""
    t0 = time.perf_counter()
    from pdsc import bench_cli
    members = WORKLOADS[name][0](bench_cli.load_config, seed, OUT / name)
    return bench_cli, members, time.perf_counter() - t0


# --- output checks ---------------------------------------------------------

def _matches(got, want, rtol: float) -> bool:
    if isinstance(want, bool):
        return isinstance(got, bool) and got == want
    if isinstance(want, int):
        return type(got) is int and got == want
    return (isinstance(got, (int, float)) and not isinstance(got, bool)
            and math.isclose(got, want, rel_tol=rtol, abs_tol=0.0))


def _line_count(path: Path) -> int:
    try:
        with open(path, "rb") as f:
            return sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 20), b""))
    except OSError:
        return -1


def check_member(want: dict, code: int, metrics: dict | None, out_dir: Path,
                 rtol: float) -> tuple[int, list[str]]:
    """Failed operations (variant solves) of one runner call, with reasons.

    Every member must exit 0; the uncorrected indent variant's abort on bond
    inversion is an expected result, checked through its metrics.
    """
    variants = want["variants"]
    bad: dict[str, list[str]] = defaultdict(list)
    if code != 0:
        bad["*"].append(f"exit code {code}, expected 0")
    else:
        for variant, values in variants.items():
            for key, value in values.items():
                got = metrics.get(f"{variant}.{key}")
                if not _matches(got, value, rtol):
                    bad[variant].append(f"{variant}.{key} = {got!r}, expected {value!r}")
        for rel, lines in want["artifact_lines"].items():
            got = _line_count(out_dir / rel)
            if got != lines:
                owner = rel.split("/")[0] if rel.split("/")[0] in variants else "*"
                bad[owner].append(f"{rel} has {got} lines, expected {lines}")
    failed = len(variants) if "*" in bad else len(bad)
    return failed, [msg for msgs in bad.values() for msg in msgs]


# --- running ---------------------------------------------------------------

def call_runner(bench_cli, cfg, tracer):
    """Run one experiment; the exit code follows ``pdsc.bench_cli.main``."""
    runner = bench_cli.RUNNERS[cfg.experiment]
    try:
        if tracer is None:
            summary = runner(cfg)
        else:
            summary = tracer.call(layers.RUNNER, runner, (cfg,), {})
    except (bench_cli.ConfigError, bench_cli.GeometryError):
        traceback.print_exc()
        return 2, None
    except bench_cli.SolverFailure:
        traceback.print_exc()
        return 3, None
    except Exception:  # any other crash is a failed operation, not a lost run
        traceback.print_exc()
        return 1, None
    aborted = summary.metrics.get("all_bond_variants_aborted")
    return (4 if cfg.experiment == "indent" and aborted else 0), summary.metrics


def run_iteration(name, bench_cli, members, expected, tracer):
    shutil.rmtree(OUT / name, ignore_errors=True)
    wall = 0.0
    attempted = failed = 0
    problems = []
    by_member = {}
    for label, cfg in members:
        t0 = time.perf_counter()
        code, metrics = call_runner(bench_cli, cfg, tracer)
        wall += time.perf_counter() - t0
        want = expected["workloads"][name][label]
        n_bad, why = check_member(want, code, metrics, Path(cfg.out),
                                  expected["float_rtol"])
        attempted += len(want["variants"])
        failed += n_bad
        problems += [f"{label}: {w}" for w in why]
        if metrics is not None:
            by_member[label] = metrics
    try:
        ref = WORKLOADS[name][1](by_member)
    except KeyError:
        ref = None
    return wall, attempted, failed, problems, ref


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of one more fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--setup-only"], capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)["setup_s"]


def measure(name, seed, seconds, trace, bench_cli, members, expected):
    tracer = layers.Tracer() if trace else None
    plain, traced = [], []
    attempted = failed = 0
    problems, refs, setup = [], [], []
    need = 2 if trace else 1
    busy = 0.0
    it = 0
    while True:
        t0 = time.perf_counter()
        use_trace = trace and it % 2 == 1
        saved = []
        if use_trace:
            tracer.request = it
            saved = layers.install(tracer)
        try:
            wall, a, f, why, ref = run_iteration(
                name, bench_cli, members, expected, tracer if use_trace else None)
        finally:
            layers.restore(saved)
        (traced if use_trace else plain).append((it, wall))
        attempted += a
        failed += f
        problems += why
        if ref is not None:
            refs.append(ref)
        if it == 0:
            # the peak of one invocation; later iterations reuse freed memory unevenly
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        it += 1
        busy += time.perf_counter() - t0
        # spread the set-up probes over the run, so that a slow spell of the
        # machine does not fall on all of them
        while len(setup) < SETUP_PROBES * (min(1.0, busy / seconds) if seconds > 0 else 1):
            setup.append(probe_setup(name, seed))
        # start another iteration only if it should end within the budget
        if it >= need and busy * (it + 1) / it > seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(name, seed))
    result = {
        "wall_s": [w for _, w in plain],
        "setup_s": setup,
        "attempted": attempted, "failed": failed, "problems": problems,
        "ref_err": refs,
        "peak_rss_mb": peak_mb,
    }
    if trace:
        per_it = [layers.iteration_metrics(tracer, k) for k, _ in traced]
        result["layers"] = layers.combine(per_it)
        result["layers_per_iteration"] = per_it
        result["traced_wall_s"] = [w for _, w in traced]
        spans_path = OUT / f"{name}-seed{seed}.spans.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "request"],
             "spans": tracer.spans}))
        result["spans_file"] = str(spans_path)
    return result


def _git_revision(root: Path) -> str:
    """HEAD of the checkout, or "unknown" when the checkout is no git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, timeout=10, capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return "unknown"
    return lines[1]


def _source_digest(src: Path) -> str:
    """sha256 over the package sources, a revision id that needs no git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(seed, members, bench_cli) -> dict:
    import numpy
    import scipy

    root = Path.cwd().resolve()
    return {
        "seed": seed,
        "git_revision": _git_revision(root),
        "src_sha256": _source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pdsc_file": bench_cli.__file__,
        "configs": [{"member": label, **dataclasses.asdict(cfg)}
                    for label, cfg in members],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    bench_cli, members, setup_s = set_up(args.workload, args.seed)
    src = (Path.cwd() / "src").resolve()
    if Path(bench_cli.__file__).resolve().parents[1] != src:
        print(f"worker: imported pdsc from {bench_cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    expected = json.loads((HERE / "expected.json").read_text())
    result = measure(args.workload, args.seed, args.seconds, args.trace,
                     bench_cli, members, expected)
    result["setup_s"].append(setup_s)
    result["meta"] = metadata(args.seed, members, bench_cli)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
