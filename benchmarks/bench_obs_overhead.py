"""Extension: the observer effect of the tracing subsystem.

Instrumentation is only acceptable if it is free when nobody is
looking.  This bench measures the Table 1 workload (sequential
``run_maxbcg``) twice — tracing disabled vs tracing enabled — with the
arms interleaved and min-of-k per arm so OS noise cancels, and pins:

* the *disabled* path is near-zero cost: a ``span()`` entry/exit with
  tracing off costs well under a microsecond, and the pipeline only
  crosses it a handful of times per run;
* even *enabled*, full tracing stays within the 5% observer budget on
  the Table 1 workload (which bounds the disabled path from above);
* the Query Store arm: recording every fingerprinted SELECT into the
  workload history (``EngineConfig(query_store=True)``) stays within
  the same 5% budget on a SQL batch, measured against an identical
  feedback-only engine;
* the small-statement arm (reported, not gated): median microseconds
  per ``Database.sql`` call for a 1k-row filtered ``SELECT ... LIMIT
  10`` with a fresh literal every time, so every store misses — the
  default engine, each store alone, and all three together.  This is
  where a store's per-statement cost (keying, recording) shows most.

Run standalone (``python benchmarks/bench_obs_overhead.py``) or under
pytest-benchmark (``pytest benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

import time

import pytest

from repro.bench.reporting import ShapeCheck, format_table, print_report
from repro.core.pipeline import run_maxbcg
from repro.obs.trace import get_tracer, set_enabled, span, tracing

#: interleaved rounds per arm; min-of-k suppresses scheduler noise
ROUNDS = 5
#: the acceptance budget: tracing must not add more than 5% wall
BUDGET_RATIO = 1.05
#: absolute slack so sub-second workloads don't fail on timer jitter
BUDGET_SLACK_S = 0.010
#: disabled span() entry/exit must stay under this (generous: it is
#: one global check plus a shared no-op object)
NOOP_BUDGET_S = 5e-6


def _time_run(workload, sky, kcorr) -> float:
    t0 = time.perf_counter()
    run_maxbcg(sky.catalog, workload.target, kcorr, workload.sql,
               compute_members=False)
    return time.perf_counter() - t0


def measure_observer_effect(workload, sky, kcorr, rounds: int = ROUNDS):
    """Interleaved min-of-k wall times: (disabled_s, enabled_s, n_spans)."""
    disabled, enabled = [], []
    n_spans = 0
    for _ in range(rounds):
        set_enabled(False)
        disabled.append(_time_run(workload, sky, kcorr))
        with tracing():
            enabled.append(_time_run(workload, sky, kcorr))
            n_spans = len(get_tracer())
    return min(disabled), min(enabled), n_spans


#: SQL batch for the Query Store arm — varied enough that the store
#: tracks several fingerprints, repeated so cache/memo hits dominate
#: (the worst case for recording overhead, relatively speaking)
QS_BATCH = (
    "SELECT COUNT(*) AS n FROM t JOIN u ON t.grp = u.grp",
    "SELECT grp, COUNT(*) AS n FROM t GROUP BY grp ORDER BY grp",
    "SELECT COUNT(*) AS n FROM t WHERE grp = 2",
    "SELECT COUNT(*) AS n FROM u WHERE grp < 3",
)


def _build_sql_db(query_store: bool):
    import numpy as np

    from repro.engine.config import EngineConfig
    from repro.engine.database import Database

    db = Database(
        "qs_overhead_on" if query_store else "qs_overhead_off",
        config=EngineConfig(feedback=True, query_store=query_store),
    )
    db.create_table(
        "t",
        {"id": np.arange(3000, dtype=np.int64),
         "grp": (np.arange(3000) % 7).astype(np.int64)},
        primary_key="id",
    )
    db.create_table(
        "u",
        {"id": np.arange(800, dtype=np.int64),
         "grp": (np.arange(800) % 7).astype(np.int64)},
    )
    db.sql("ANALYZE")
    return db


def measure_query_store_overhead(rounds: int = ROUNDS):
    """Interleaved min-of-k batch wall: (off_s, on_s, queries_recorded)."""
    db_off = _build_sql_db(query_store=False)
    db_on = _build_sql_db(query_store=True)

    def batch(db) -> float:
        t0 = time.perf_counter()
        for sql in QS_BATCH:
            db.sql(sql)
        return time.perf_counter() - t0

    for db in (db_off, db_on):  # plans memoized before timing starts
        batch(db)
    off, on = [], []
    for _ in range(rounds):
        off.append(batch(db_off))
        on.append(batch(db_on))
    recorded = len(db_on.query_store.queries())
    return min(off), min(on), recorded


#: Configs of the small-statement arm: the default engine, each store
#: alone, and all three together.
STATEMENT_CONFIGS = {
    "default": {},
    "result_cache": {"result_cache": True},
    "feedback": {"feedback": True},
    "query_store": {"query_store": True},
    "all three": {"result_cache": True, "feedback": True,
                  "query_store": True},
}
#: statements timed per config in the small-statement arm
STATEMENT_RUNS = 300


def measure_statement_overhead(runs: int = STATEMENT_RUNS) -> dict:
    """Median seconds per small SELECT, per config (interleaved).

    Each run uses a distinct literal, so the result cache, the plan
    memo and the Query Store all see a new fingerprint: the figure is
    the per-statement cost of keying and recording, not of a hit.
    """
    import statistics

    import numpy as np

    from repro.engine.config import EngineConfig
    from repro.engine.database import Database

    rng = np.random.default_rng(5)
    columns = {"id": np.arange(1000, dtype=np.int64),
               "x": rng.uniform(0.0, 1.0, 1000),
               "g": (np.arange(1000) % 7).astype(np.int64)}
    dbs = {}
    for name, knobs in STATEMENT_CONFIGS.items():
        db = Database(f"stmt_{name}", config=EngineConfig(**knobs))
        db.create_table("t", dict(columns), primary_key="id")
        db.sql("ANALYZE")
        dbs[name] = db
    samples: dict[str, list[float]] = {name: [] for name in dbs}
    for i in range(runs):
        sql = (f"SELECT id, x FROM t WHERE x > {i / (2 * runs):.6f} "
               "AND g = 3 LIMIT 10")
        for name, db in dbs.items():
            t0 = time.perf_counter()
            db.sql(sql)
            samples[name].append(time.perf_counter() - t0)
    return {name: statistics.median(values)
            for name, values in samples.items()}


def measure_noop_span_cost(calls: int = 200_000) -> float:
    """Seconds per span() entry/exit with tracing disabled."""
    set_enabled(False)
    t0 = time.perf_counter()
    for _ in range(calls):
        with span("noop.probe"):
            pass
    return (time.perf_counter() - t0) / calls


def run_and_check(workload, sky, kcorr):
    disabled_s, enabled_s, n_spans = measure_observer_effect(
        workload, sky, kcorr
    )
    noop_s = measure_noop_span_cost()
    qs_off_s, qs_on_s, qs_recorded = measure_query_store_overhead()
    statement_s = measure_statement_overhead()
    overhead = enabled_s / disabled_s - 1.0
    qs_overhead = qs_on_s / qs_off_s - 1.0

    table = format_table(
        "Observer effect on the Table 1 workload (min of "
        f"{ROUNDS} interleaved rounds)",
        ["arm", "wall s", "spans/run"],
        [
            ["tracing disabled", round(disabled_s, 4), 0],
            ["tracing enabled", round(enabled_s, 4), n_spans],
            ["overhead", f"{overhead * 100:+.2f}%", ""],
            ["query store off", round(qs_off_s, 4), ""],
            ["query store on", round(qs_on_s, 4), ""],
            ["store overhead", f"{qs_overhead * 100:+.2f}%", ""],
        ],
    )
    default_s = statement_s["default"]
    statements = format_table(
        "Per-statement cost of the stores: 1k-row SELECT ... LIMIT 10, "
        f"fresh literal each run (median of {STATEMENT_RUNS}; reported, "
        "not gated)",
        ["config", "us/statement", "vs default"],
        [[name, round(seconds * 1e6, 1), f"{seconds / default_s:.2f}x"]
         for name, seconds in statement_s.items()],
    )
    checks = [
        ShapeCheck(
            claim="disabled span() is near-zero cost",
            paper="instrumentation off must be free",
            measured=f"{noop_s * 1e9:.0f} ns/call",
            holds=noop_s < NOOP_BUDGET_S,
        ),
        ShapeCheck(
            claim="tracing stays within the 5% observer budget",
            paper="enabled <= 1.05 x disabled wall",
            measured=f"{enabled_s:.4f} s vs {disabled_s:.4f} s "
                     f"({overhead * 100:+.2f}%)",
            holds=enabled_s <= disabled_s * BUDGET_RATIO + BUDGET_SLACK_S,
        ),
        ShapeCheck(
            claim="enabled run actually recorded the engine spans",
            paper="one span per pipeline task",
            measured=f"{n_spans} spans",
            holds=n_spans >= 3,
        ),
        ShapeCheck(
            claim="query store recording stays within the 5% budget",
            paper="store on <= 1.05 x store off on an SQL batch",
            measured=f"{qs_on_s * 1e3:.2f} ms vs {qs_off_s * 1e3:.2f} ms "
                     f"({qs_overhead * 100:+.2f}%), "
                     f"{qs_recorded} fingerprints tracked",
            holds=(qs_on_s <= qs_off_s * BUDGET_RATIO + BUDGET_SLACK_S
                   and qs_recorded == len(QS_BATCH)),
        ),
    ]
    return [table, statements], checks


@pytest.mark.benchmark(group="obs-overhead")
def test_obs_overhead(benchmark, workload, sky, sql_kcorr):
    holder = {}

    def once():
        holder["out"] = run_and_check(workload, sky, sql_kcorr)
        return holder["out"]

    benchmark.pedantic(once, rounds=1, iterations=1)
    tables, checks = holder["out"]
    print_report("Tracing observer effect", tables, checks)
    assert all(c.holds for c in checks), [c.claim for c in checks if not c.holds]


def main() -> int:
    from repro.bench.timing import warmup
    from repro.bench.workloads import active_workload, kcorr_for, sky_for

    workload = active_workload()
    warmup(workload)
    tables, checks = run_and_check(
        workload, sky_for(workload), kcorr_for(workload.sql)
    )
    print_report("Tracing observer effect", tables, checks)
    return 0 if all(c.holds for c in checks) else 1


if __name__ == "__main__":
    raise SystemExit(main())
