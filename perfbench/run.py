"""pbrseg benchmark: runs the real CLI on seeded phantoms and checks its output.

    python3 perfbench/run.py --workload {train,infer,infer-3view} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --make-nets

Run from the repository root. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Without ``--workload`` every workload runs, each in its own
process, and each prints a line ``<workload> <JSON>``. ``--make-nets``
retrains the fixture nets the infer workloads load. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUPS = 5  # set-ups per run; setup_s is their median
WORKLOADS = ("train", "infer", "infer-3view")


def _median(values) -> float:
    return float(statistics.median(values))


def _end_to_end(wl, setup_times, rounds) -> dict:
    refined, initial, _ = wl.quality()
    return {
        "setup_s": (_median(setup_times), "s"),
        "stage1_s": (_median([s for r in rounds for s in r[0]]), "s"),
        "stage2_s": (_median([s for r in rounds for s in r[1]]), "s"),
        "refined_dsc": (refined, "DSC"),
        "initial_dsc": (initial, "DSC"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _per_layer(tracing, tracer, wl, roots, setup_roots, walls) -> dict:
    units = {m["name"]: m["unit"] for m in
             json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    values = tracing.layer_metrics(tracer, roots, setup_roots)
    values["trace.overhead_s"] = _median(walls[True]) - _median(walls[False])
    values["metrics.head_tail_dsc"] = wl.quality()[2] or 0.0
    return {name: (values[name], unit) for name, unit in units.items()}


def bench(args) -> dict:
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](Path(".perfbench") / args.workload, args.seed)
    tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}")
    restore = tracing.install(tracer) if args.trace else None
    try:
        setup_times, setup_roots = [], []
        for _ in range(SETUPS):
            with tracer.root("setup", args.trace) as root:
                t0 = time.perf_counter()
                wl.setup()
                setup_times.append(time.perf_counter() - t0)
            setup_roots.append(root)

        # whole rounds, each started only if it should end within the time
        # (judged by the longest round so far), so a run lasts at most
        # --seconds unless its first rounds alone take longer. Traced runs
        # alternate untraced and traced rounds, and their wall difference
        # is the overhead.
        rounds, roots, walls = [], [], {False: [], True: []}
        t_start = time.perf_counter()
        traced = False
        while (not rounds or (args.trace and not walls[True])
               or time.perf_counter() - t_start + max(walls[False] + walls[True])
               <= args.seconds):
            with tracer.root("round", traced) as root:
                t0 = time.perf_counter()
                rounds.append(wl.round())
                walls[traced].append(time.perf_counter() - t0)
            if traced:
                roots.append(root)
            traced = bool(args.trace) and not traced
    finally:
        if restore is not None:
            restore()

    problems = wl.check()
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        tracer.write(wl.work / "trace.jsonl")
        metrics = _per_layer(tracing, tracer, wl, roots, setup_roots, walls)
    else:
        metrics = _end_to_end(wl, setup_times, rounds)
    return {"correct": not problems,
            "attempted": sum(r[2] for r in rounds),
            "failed": sum(r[3] for r in rounds),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload; every workload when omitted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--make-nets", action="store_true",
                   help="retrain the fixture nets under perfbench/nets")
    args = p.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "pbrseg" / "__init__.py").is_file():
        print(f"perfbench: no src/pbrseg under {Path.cwd()}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]

    if args.make_nets:
        import fixtures
        fixtures.make_nets(Path(".perfbench") / "make-nets")
        return 0
    if args.workload is None:
        rc = 0
        for name in WORKLOADS:
            out = subprocess.run([sys.executable, __file__, "--workload", name,
                                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                                  "--trace", str(args.trace)],
                                 stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            print(name, lines[-1] if out.returncode == 0 else f"exited {out.returncode}",
                  flush=True)
            rc = rc or out.returncode
        return rc

    import workloads
    try:
        result = bench(args)
    except workloads.BenchmarkError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
