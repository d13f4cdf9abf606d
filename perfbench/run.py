"""levyhjm benchmark: run one workload, gate its outputs, print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics, the tracing overhead (median traced minus median
untraced wall time, leaving out the first, cold operation), and whether the
traced outputs are byte-identical to the untraced ones.  ``--workload all``
runs every workload in its own process, one after the other, and prints a
table.

Operations repeat, one at a time in this one process, until ``--seconds``
have passed and at least two (traced: three) have run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, input sizes, per-operation samples, quartiles, output
digests, gate messages and, when traced, every span) is written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# The gates compare repeats, so at least two operations run.  A traced run
# adds one: its first operation warms up and is left out of the overhead.
MIN_OPS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "node_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Names ending in ".s" are self times: a layer's spans minus the time their
# child spans cover.  A layer that a workload never calls reads 0.
PER_LAYER = {
    "checks.verify_convolution_inequality.s": "s",
    "checks.verify_bichteler_jacod.s": "s",
    "checks.verify_isometry.s": "s",
    "checks.step_integrands.s": "s",
    "curvespace.norm_star.s": "s",
    "solver.picard_solve.s": "s",
    "solver.picard.sweeps": "count",
    "solver.picard.useful_sweep_ratio": "ratio",
    "model.drift_functional.s": "s",
    "model.drift_functional.calls": "count",
    "model.running_volatility_integral.s": "s",
    "levy.grad_components.s": "s",
    "model.sigma_at.s": "s",
    "solver.euler_transitions.s": "s",
    "solver.steps": "count",
    "solver.alive_frac": "ratio",
    "curvespace.partial_integral.s": "s",
    "curvespace.partial_integral.calls": "count",
    "checks.verify_martingale_bonds.s": "s",
    "curvespace.norm_H.s": "s",
    "curvespace.norm_H.curves": "count",
    "curvespace.grid_derivative.s": "s",
    "curvespace.shift_values.s": "s",
    "cli.write_curves_csv.s": "s",
    "cli.curves_csv.bytes": "bytes",
    "cli.write_summary_csv.s": "s",
    "cli.write_checks_csv.s": "s",
    "cli.load_scenario.s": "s",
    "cli.build_bundle.s": "s",
    "levy.increment_table.s": "s",
    "levy.increment_table.draws": "count",
    "checks.verify_cumulant_derivatives.s": "s",
    "checks.verify_exponential_moment.s": "s",
    "checks.reports": "count",
    "checks.failed": "count",
    "checks.min_margin_se": "se",
    "trace.overhead_s": "s",
}


# The package's BLAS calls are matrix-vector products; a second OpenBLAS
# thread doubled CPU time on them without shortening wall time (2-core Xeon).
BLAS_THREADS = 1


def pin_threads() -> dict:
    """One process of load: BLAS/OpenMP threads pinned, no check thread pool.

    Must run before numpy is imported.
    """
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    removed = os.environ.pop("LEVYHJM_WORKERS", None)
    return {
        "nproc": nproc,
        "blas_threads": threads,
        "LEVYHJM_WORKERS": "unset" if removed is None else f"unset (was {removed})",
    }


def environment(pinned: dict) -> dict:
    import numpy
    import scipy
    import yaml

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        **pinned,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas": blas,
    }


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "q1": q[0], "median": statistics.median(values), "q3": q[2]}


def setup_seconds(configs: list[Path]) -> list[float]:
    """Set-up time of fresh processes, each timed from within (see probe.py)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "probe.py"), str(ROOT / "src")]
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            cmd + [str(c) for c in configs],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


def one_op(wl, state, outdir: Path, rec, label: str):
    """Run, time and gate one operation; ``rec`` traces it when given."""
    from perfbench import spans
    from perfbench.workloads import Outcome

    wall = None
    try:
        if rec is None:
            t = time.perf_counter()
            result = wl.operate(state, outdir)
            wall = time.perf_counter() - t
        else:
            rec.op = label
            with spans.instrument(rec):
                t = time.perf_counter()
                result = wl.operate(state, outdir)
                wall = time.perf_counter() - t
        outcome = wl.check(state, result, outdir)
    except Exception:  # noqa: BLE001 - an operation that raises counts as failed
        return wall, Outcome({}, problems=[traceback.format_exc()])
    return wall, outcome


def run_workload(name: str, seed: int, seconds: float, trace: bool, pinned: dict) -> dict:
    from perfbench import spans
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[name]
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    outdir = workdir / "out"
    outdir.mkdir(parents=True, exist_ok=True)
    rec = spans.Recorder() if trace else None
    try:
        configs = wl.write_inputs(ROOT, seed, workdir)
        if rec is None:
            state = wl.setup(configs)
            setup = setup_seconds(configs)
        else:
            rec.op = "setup"
            with spans.instrument(rec):
                state = wl.setup(configs)
        ops = []
        min_ops = MIN_OPS + (rec is not None)
        start = time.perf_counter()
        while len(ops) < min_ops or time.perf_counter() - start < seconds:
            traced = rec is not None and len(ops) % 2 == 1
            label = f"op{len(ops)}"
            wall, outcome = one_op(wl, state, outdir, rec if traced else None, label)
            ref = next((o for _, _, _, o in ops if o.digests), None)
            if ref is not None and outcome.digests and outcome.digests != ref.digests:
                outcome.problems.append("output differs from the first operation's")
            ops.append((label, traced, wall, outcome))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for _, _, _, o in ops if o.problems)
    done = [(label, traced, wall, o) for label, traced, wall, o in ops if wall is not None]
    if not done:
        raise RuntimeError("no operation completed:\n" + ops[0][3].problems[0])
    untraced = [wall for _, traced, wall, _ in done if not traced]
    record = {
        "workload": name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(pinned),
        "inputs": wl.sizes(ROOT, seed),
        "cells_per_op": wl.cells(ROOT, seed),
        "ops": [
            {"label": label, "traced": traced, "wall_s": wall, "digests": o.digests,
             "problems": o.problems}
            for label, traced, wall, o in ops
        ],
        "wall_s": quartiles(untraced),
        "failed_frac": failed / len(ops),
    }
    if rec is None:
        wall = statistics.median(untraced)
        record["setup_s"] = quartiles(setup)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "node_steps_per_s": record["cells_per_op"] / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        totals = spans.layer_totals(rec)
        traced_ops = [(label, wall, o) for label, traced, wall, o in done if traced]
        if not traced_ops:
            raise RuntimeError("no traced operation completed")
        values = _layer_values(totals, traced_ops, untraced)
        record["spans"] = [dataclasses.asdict(s) for s in rec.spans]
        record["layer_totals"] = totals
        units = PER_LAYER
    record["metrics"] = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": record["metrics"],
        "record": record,
    }


def _layer_values(totals: dict, traced_ops: list, untraced: list) -> dict:
    """Per-layer values: set-up segment plus the median over traced operations.

    Times are self times.  The check counts and margin come from the last
    traced operation's reports that the gate needs to pass.
    """
    from perfbench.workloads import min_margin_se

    setup = totals.get("setup", {})

    def layer(key: str) -> float:
        per_op = [totals.get(label, {}).get(key, 0.0) for label, _, _ in traced_ops]
        return setup.get(key, 0.0) + statistics.median(per_op)

    values = {k: layer(k[:-2] if k.endswith(".s") else k) for k in PER_LAYER}
    sweeps = values["solver.picard.sweeps"]
    values["solver.picard.useful_sweep_ratio"] = 1.0 / sweeps if sweeps else 0.0
    paths = layer("solver.paths")
    values["solver.alive_frac"] = layer("solver.alive") / paths if paths else 0.0
    last = traced_ops[-1][2]
    values["checks.reports"] = last.n_reports
    values["checks.failed"] = sum(not r.passed for r in last.reports)
    values["checks.min_margin_se"] = min_margin_se(last.reports)
    values["trace.overhead_s"] = (
        statistics.median(w for _, w, _ in traced_ops) - statistics.median(untraced[1:])
    )
    return values


def print_summary(name: str, result: dict) -> None:
    for key, m in result["metrics"].items():
        print(f"{name:16s} {key:42s} {m['value']:.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"{name:16s} {'failed_frac':42s} {frac:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    from perfbench.workloads import WORKLOADS

    results, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
        print_summary(name, results[name])
        code = code or int(not results[name]["correct"])
    print(json.dumps(results))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    pinned = pin_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import levyhjm

    if not Path(levyhjm.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"levyhjm imported from {levyhjm.__file__}, not from {ROOT / 'src'}")
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), pinned)
    record = result.pop("record")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print_summary(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
