"""Benchmark of memsim: one workload, run in this process, timed from outside.

    python3 bench/run.py --workload soc --seed 0 --seconds 20 --trace 0

Runs from the root of a checkout.  The workload's inputs are generated from
``--seed``; its experiments then run in the workload's fixed number of whole
rounds, through ``memsim.cli.main`` as ``memsim <experiment>`` runs them.
The round counts are sized so that a run measures about ``--seconds`` (20)
at the reference speed; a faster or slower program changes the time, never
the number of rounds.  The outputs are checked afterwards, outside the timed
region, and the last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` wrappers record spans around the program's layers and the
metrics are the per-layer ones, while the spans are written to
``bench/out/trace-<workload>-seed<seed>.json``.  See bench/README.md.
"""

import os
import sys
import time

# One BLAS thread, set before numpy loads: the soc metrics change in their
# last digits with the thread count, and on a 2-vCPU machine a second BLAS
# thread competes with everything else for the other core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("soc", "small-networks", "figures"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal run length; each workload runs a fixed number of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports numpy and memsim, as ``memsim`` starts."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, memsim.cli"], env=env, check=True)
    return time.perf_counter() - t0


def warm_up(out: Path, run_cli) -> None:
    """Touch the CLI, the network layer and artifact writing once before timing."""
    run_cli(["maze", "--out", str(out)])
    run_cli(["energy", "--out", str(out)])


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def per_layer_values(spec, snapshots, round_dirs, faults) -> dict:
    """Median over rounds of each per-layer metric's per-round increment."""
    per_round = []
    for k in range(len(snapshots) - 1):
        before, after = snapshots[k], snapshots[k + 1]
        delta = {key: after[key] - before.get(key, 0.0) for key in after}
        delta["cli.io.s"] = delta.get("cli.main.s", 0.0) - delta.get("cli.runner.s", 0.0)
        delta["cli.artifact_bytes"] = tree_bytes(round_dirs[k])
        delta["process.minor_faults"] = faults[k]
        per_round.append(delta)
    return {m["name"]: {"value": statistics.median(d.get(m["name"], 0.0) for d in per_round),
                        "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_json = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "memsim" / "__init__.py").is_file() or not bench_json.is_file():
        print(f"error: no memsim sources or BENCHMARK.json under {ROOT}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads(bench_json.read_text())
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from checks import check_identical_trees
    from tracing import HOT_SPANS, Capture, Patches, Tracer, install_layer_spans
    from workloads import KNOWN_FAULTS, WORKLOADS, run_cli

    run_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        # the inputs are drawn in memory before timing: the benchmark's own
        # searches (the soc CLI seed, unique-route mazes) are not the program's work
        workload = WORKLOADS[args.workload](args.seed)
        # -- set-up, repeated; median reported.  The imports are timed in a
        # fresh interpreter each time, since this one has them cached.
        setups = []
        for k in range(SETUP_REPEATS):
            imports = import_seconds()
            t0 = time.perf_counter()
            workload.write_inputs(run_dir / f"inputs-{k}")
            warm_up(run_dir / f"warm-{k}", run_cli)
            setups.append(imports + time.perf_counter() - t0)
        setup_s = statistics.median(setups)

        patches = Patches()
        capture = Capture()
        for module, fn in workload.capture_targets:
            patches.replace(module, fn, capture.wrapper(fn))
        tracer = None
        runs = list(workload.experiments)
        if args.trace:
            tracer = Tracer(hot=HOT_SPANS)
            install_layer_spans(tracer, patches)
            patches.replace("memsim.cli", "main", tracer.wrapper("cli.main"))
            runs = [(label, tracer.wrapper(f"exp.{label}")(run)) for label, run in runs]

        # -- timed rounds
        round_totals, round_dirs, faults = [], [], []
        codes = {label: [] for label, _ in runs}
        times = {label: [] for label, _ in runs}
        snapshots = [tracer.snapshot()] if tracer else []
        for r in range(workload.rounds):
            round_dir = run_dir / f"round-{r}"
            capture.active = r == 0
            flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for label, run in runs:
                t0 = time.perf_counter()
                codes[label].append(run(round_dir / label))
                times[label].append(time.perf_counter() - t0)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt)
            round_totals.append(sum(ts[-1] for ts in times.values()))
            round_dirs.append(round_dir)
            if tracer:
                snapshots.append(tracer.snapshot())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        capture.active = False
        patches.restore()

        # -- checks, outside the timed region.  A one-round workload runs its
        # experiments once more, untimed, so determinism is still checked.
        repeat_dirs = round_dirs[1:]
        if not repeat_dirs:
            repeat_dirs = [run_dir / "repeat"]
            for label, run in workload.experiments:
                codes[label].append(run(repeat_dirs[0] / label))
        results = [(f"{label}.exit_code", (all(c == 0 for c in cs), f"exit codes {sorted(set(cs))}"))
                   for label, cs in codes.items()]
        results.append((f"{workload.name}.deterministic",
                        check_identical_trees(round_dirs[0], repeat_dirs)))
        try:
            results += workload.checks(round_dirs, capture)
        except Exception:  # outputs missing or malformed: one failed operation, reported
            results.append((f"{workload.name}.checks", (False, traceback.format_exc())))
        failed = [(name, detail) for name, (ok, detail) in results if not ok]
        for name, detail in failed:
            tag = "known fault" if name in KNOWN_FAULTS else "FAIL"
            print(f"{tag}: {name}: {detail}", file=sys.stderr)

        # each experiment's median over rounds, so one slow stretch of a
        # shared machine does not enter the sum
        run_s = sum(statistics.median(ts) for ts in times.values())
        if tracer:
            metrics = per_layer_values(spec["per_layer"], snapshots, round_dirs, faults)
            OUT.mkdir(parents=True, exist_ok=True)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed, "rounds": len(round_totals),
                "traced_run_s": round_totals, "metrics": metrics,
                "spans": [{"id": i, "parent": p, "name": n, "start": s, "end": e}
                          for i, p, n, s, e in tracer.spans],
            }) + "\n")
        else:
            values = {"run_s": run_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
        print(f"{args.workload}: rounds {[round(t, 3) for t in round_totals]}, "
              f"{len(results)} checks, {len(failed)} failed", file=sys.stderr)
        print(json.dumps({
            "correct": all(name in KNOWN_FAULTS for name, _ in failed),
            "attempted": len(results),
            "failed": len(failed),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
