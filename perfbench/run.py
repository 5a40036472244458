"""Standing benchmark of the MaxBCG reproduction on the paper's workload.

Run from the repository root::

    python3 perfbench/run.py --workload maxbcg-1node --seed 1 --seconds 12 --trace 0

Workloads: ``maxbcg-1node``, ``maxbcg-3way``, ``sql-filter`` and
``casjobs-mix`` (see ``perfbench/README.md``).  A run

1. sets the workload up ``setup_repeats`` times from ``--seed`` and
   reports the median as ``setup_s``;
2. runs one untimed warm-up operation, computes the reference answers
   and checks the warm-up's answer against them; then runs one more
   operation in a forked copy of the process, whose peak resident set
   is ``peak_mem_mb``;
3. times operations back to back for ``--seconds`` seconds with tracing
   off and checks every answer after its clocks stop;
4. with ``--trace 1``, times as many seconds again with the per-layer
   wrappers on and ``repro.obs.trace`` recording, writes the spans to
   ``perfbench-traces/`` and reports the per-layer metrics instead.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every answer was right.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fewest timed operations per run, whatever ``--seconds`` says.
MIN_OPS = 3

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode,
    in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import harness
    from workloads import WORKLOADS_BY_NAME

    if args.workload not in WORKLOADS_BY_NAME:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS_BY_NAME)}", file=sys.stderr)
        return 2
    workload = WORKLOADS_BY_NAME[args.workload](args.seed)

    setup_times = []
    for _ in range(workload.setup_repeats):
        started = time.perf_counter()
        workload.load()
        setup_times.append(time.perf_counter() - started)
    warm = workload.run_op()
    workload.prepare()
    measured = [workload.check(warm)]
    del warm
    peak_mb = harness.forked_peak_rss_mb(workload.run_op)

    samples = harness.measure(workload.run_op, workload.check, args.seconds,
                              MIN_OPS)
    measured += [s.outcome for s in samples]
    units = declared_units(bool(args.trace))
    if args.trace:
        metrics = dict.fromkeys(units, 0.0)
        traced = traced_run(workload, samples, metrics, args)
        measured += [s.outcome for s in traced]
    else:
        metrics = {
            "setup_s": harness.median(setup_times),
            "elapsed_s": harness.median(s.wall_s for s in samples),
            "cpu_s": harness.median(s.cpu_s for s in samples),
            "peak_mem_mb": peak_mb,
        }

    attempted = sum(o.attempted for o in measured)
    failed = sum(o.failed for o in measured)
    report(args, workload, samples, metrics, units, attempted, failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


def traced_run(workload, untraced, metrics, args):
    """Time ``--seconds`` more with the wrappers and tracing on, fill
    ``metrics`` with the per-layer figures and return the traced samples.

    Metrics that need spans come from the traced samples; the program's
    own figures (``layer_facts``) come from the untraced ones, so they
    carry none of the wrappers' cost.
    """
    import harness
    import probes
    from repro.obs.export import write_jsonl
    from repro.obs.trace import get_tracer, tracing

    with probes.instrument(), tracing(True) as tracer:
        traced = harness.measure(workload.run_op, workload.check,
                                 args.seconds, MIN_OPS)
        # forked partition workers inherit the spans already in this
        # process's tracer and ship them back with their own: keep one
        # copy of each span id
        spans = list({s.span_id: s for s in tracer.drain()}.values())
    out_dir = ROOT / "perfbench-traces"
    out_dir.mkdir(exist_ok=True)
    write_jsonl(spans, out_dir / f"{args.workload}-seed{args.seed}.jsonl")
    get_tracer().clear()

    metrics.update(probes.rollup(spans, len(traced)))
    metrics.update(workload.layer_facts(untraced))
    metrics.update(probes.operator_self_times(workload.explain_reports()))
    logical = metrics["engine.pool.logical_reads"]
    if logical:
        metrics["engine.pool.hit_rate"] = 1.0 - harness.ratio(
            metrics["engine.pool.physical_reads"], logical)
    metrics["obs.trace_overhead"] = harness.ratio(
        harness.median(s.wall_s for s in traced),
        harness.median(s.wall_s for s in untraced),
    ) - 1.0
    return traced


def report(args, workload, samples, metrics, units, attempted,
           failed) -> None:
    """Human-readable summary: every metric with its unit, plus the
    sample count and the workload's own extra figures."""
    print(f"workload {args.workload}  seed {args.seed}  "
          f"timed operations n={len(samples)}")
    print("  operation walls (s): "
          + " ".join(f"{s.wall_s:.3f}" for s in samples))
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:14.6g} {unit}")
    for name, (value, unit) in workload.summary(samples).items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':36s} {failed / attempted:14.6g} "
          f"({failed} of {attempted})")


if __name__ == "__main__":
    sys.exit(main())
