"""Benchmark of the pdsc experiments, end to end and layer by layer.

Run from the root of a pdsc checkout:

    python3 perfbench/run.py --workload indent-half --seed 1 --seconds 35 --trace 0

Workloads (all closed-loop: one caller, each runner call waits for the last):

* ``indent-half``   the shipped indent config with every length halved;
* ``tension-dump``  the shipped tension config with ``--dump-bonds``;
* ``clamped-sweep`` the shipped clamped config swept over
                    ``spacing = horizon / k``, k in 3, 4, 6, 8, 10, 12, in an
                    order drawn from the seed.

The workload runs in one fresh interpreter (``perfbench/worker.py``), which
repeats it for ``--seconds``, checks every result against
``perfbench/expected.json`` and times the set-up of further fresh
interpreters between iterations. ``--trace 0`` reports the ``end_to_end``
metrics of ``BENCHMARK.json``, ``--trace 1`` its ``per_layer`` metrics from a
traced run. The last line of standard output is the JSON result; the full
record, with the run metadata and the workload configs, is written to
``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 175.0         # a run must end within 180 s
# the solvers are single-threaded; one BLAS thread keeps runs steadier
BLAS_THREADS = "1"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="pdsc benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "pdsc" / "bench_cli.py").is_file():
        print(f"perfbench: {src / 'pdsc'} not found; run from the root of a "
              "pdsc checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": BLAS_THREADS,
           "OMP_NUM_THREADS": BLAS_THREADS, "MKL_NUM_THREADS": BLAS_THREADS}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker ran longer than {TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["ref_err"]:
        print("perfbench: no iteration produced its reference deviation",
              file=sys.stderr)
        return 1

    if args.trace:
        values = dict(res["layers"])
        values["trace.overhead_s"] = values["wall_s"] - median(res["wall_s"])
    else:
        values = {
            "wall_s": median(res["wall_s"]),
            "setup_s": median(res["setup_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "ref_err": median(res["ref_err"]),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted, failed = res["attempted"], res["failed"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  wall_s       {median(res['wall_s']):.4f} s  "
          f"(median of {len(res['wall_s'])} untraced iterations)")
    print(f"  setup_s      {median(res['setup_s']):.4f} s  "
          f"(median of {len(res['setup_s'])} cold starts)")
    print(f"  peak_rss_mb  {res['peak_rss_mb']:.1f} MB")
    print(f"  ref_err      {median(res['ref_err']):.6g} ratio")
    print(f"  failed_frac  {failed / attempted:.4g} ratio  "
          f"({failed} of {attempted} variant solves failed)")
    for problem in res["problems"]:
        print(f"  FAILED {problem}")
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, **res}
    path = root / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, indent=1))
    print(f"  record       {path.relative_to(root)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
