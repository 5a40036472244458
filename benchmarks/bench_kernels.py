"""Extension: compressed pages — the scan floor under every plan.

Compressed pages (``EngineConfig(page_compression=True)``, the default)
pack more rows per 8 KiB page wherever ANALYZE statistics show
dictionary or run-length coding beating raw column widths, so the same
scan touches fewer pages.

Two workloads run with page compression on and off:

* ``likelihood`` — the MaxBCG chi² test against one k-correction row
  over a zone-clustered galaxy table (the ``zoneid`` run-length codes,
  the quantized sigmas dictionary-code);
* ``wide`` — an 8-conjunct scan over a table of continuous columns that
  no codec helps (the no-change control).

Pinned claims: compressed pages cost measurably fewer logical reads on
the likelihood scan, and compression on/off at 1 and 4 morsel workers
returns byte-identical rows.  Wall times are recorded per arm for the
record; no speed claim rides on them.

Results are written to ``BENCH_kernels.json`` at the repo root.  Run
standalone (``python benchmarks/bench_kernels.py``) — the CI
page-compression step does exactly that — or under pytest.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.bench.reporting import ShapeCheck, print_report
from repro.engine.config import EngineConfig
from repro.engine.database import Database

#: Morsel workers for the parallel byte-identity leg.
MORSEL_WORKERS = 4

#: Timed repetitions per arm; the fastest run is reported.
REPEATS = 3

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

#: Catalog sizes — big enough that morsels really split (> 16384 rows).
N_GALAXY = 200_000
N_WIDE = 150_000

#: The chi² likelihood test against one k-correction row (literals are
#: that row's colors — fBCGLikelihood runs exactly this shape once per
#: redshift step).
LIKELIHOOD_QUERY = """
SELECT objid,
       i - 17.85 AS iband,
       POWER(i - 17.85, 2) / POWER(0.57, 2)
         + POWER(gr - 1.46, 2) / (POWER(sigmagr, 2) + POWER(0.05, 2))
         + POWER(ri - 0.56, 2) / (POWER(sigmari, 2) + POWER(0.06, 2))
         AS chi2
FROM galaxy
WHERE zoneid BETWEEN 240 AND 280
  AND ABS(i - 17.85) < 1.509
  AND POWER(i - 17.85, 2) / POWER(0.57, 2)
    + POWER(gr - 1.46, 2) / (POWER(sigmagr, 2) + POWER(0.05, 2))
    + POWER(ri - 0.56, 2) / (POWER(sigmari, 2) + POWER(0.06, 2)) < 7
ORDER BY objid
"""

#: Wide-predicate scan: eight conjuncts over continuous columns that
#: stay raw under every codec.
WIDE_QUERY = """
SELECT id, c0 + c1 AS s01
FROM wide
WHERE c0 < -1.88
  AND c1 - c2 < 2.5
  AND c2 + c3 > -9.0
  AND c3 * c4 < 40.0
  AND c4 - c5 > -8.0
  AND c5 + c6 < 9.5
  AND c6 - c7 > -7.5
  AND ABS(c7) < 3.5
ORDER BY id
"""


def build_database(page_compression: bool, workers: int = 1) -> Database:
    """A synthetic SkyServer-style catalog plus the hostile wide table.

    ``galaxy`` is clustered on ``(zoneid, ra)`` like the paper's zone
    table — ``zoneid`` run-length-codes, the quantized measurement
    sigmas dictionary-code, the continuous colors stay raw.
    """
    db = Database(
        "bench_kernels" + ("_z" if page_compression else "_raw"),
        config=EngineConfig(page_compression=page_compression,
                            intra_query_workers=workers),
    )
    rng = np.random.default_rng(2005)
    order = np.lexsort(
        (rng.uniform(0.0, 360.0, N_GALAXY),
         np.sort(rng.integers(0, 500, N_GALAXY)))
    )
    zone = np.sort(rng.integers(0, 500, N_GALAXY))[order]
    db.create_table("galaxy", {
        "objid": np.arange(N_GALAXY, dtype=np.int64),
        "zoneid": zone,
        "ra": rng.uniform(0.0, 360.0, N_GALAXY),
        "i": rng.normal(18.0, 1.2, N_GALAXY),
        "gr": rng.normal(1.4, 0.3, N_GALAXY),
        "ri": rng.normal(0.55, 0.2, N_GALAXY),
        "sigmagr": rng.choice([0.02, 0.03, 0.05, 0.08], N_GALAXY),
        "sigmari": rng.choice([0.03, 0.04, 0.06], N_GALAXY),
    }, primary_key="objid")
    db.create_table("wide", {
        "id": np.arange(N_WIDE, dtype=np.int64),
        **{f"c{k}": rng.normal(0.0, 1.0, N_WIDE) for k in range(8)},
    }, primary_key="id")
    db.sql("ANALYZE")
    return db


def exact_rows(result) -> list[tuple]:
    """Rows as raw-value tuples, column order fixed — no rounding, so a
    comparison really is byte identity (NaN normalized to one token)."""
    names = sorted(result.columns)
    columns = [np.asarray(result.columns[name]) for name in names]
    n = columns[0].size if columns else 0
    out = []
    for row in range(n):
        out.append(tuple(
            "NaN" if (isinstance(c[row].item(), float)
                      and np.isnan(c[row])) else c[row].item()
            for c in columns
        ))
    return out


def time_query(db: Database, sql: str) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        db.sql(sql)
        best = min(best, time.perf_counter() - t0)
    return best


#: name -> (page_compression, intra_query_workers)
CONFIGS = {
    "raw": (False, 1),
    "compressed": (True, 1),
    "raw_par": (False, MORSEL_WORKERS),
    "compressed_par": (True, MORSEL_WORKERS),
}


def run_workload(dbs: dict[str, Database], sql: str) -> dict:
    """One query under every arm; wall time, rows, reads per arm."""
    out: dict = {}
    for name, db in dbs.items():
        reads0 = db.io_counters.logical_reads
        elapsed = time_query(db, sql)
        result = db.sql(sql)
        reads = (db.io_counters.logical_reads - reads0) // (REPEATS + 1)
        out[name] = {
            "elapsed_s": round(elapsed, 6),
            "result_rows": result.row_count,
            "logical_reads_per_run": int(reads),
            "_rows": exact_rows(result),
        }
    return out


def run_and_check():
    dbs = {name: build_database(*arm) for name, arm in CONFIGS.items()}
    likelihood = run_workload(dbs, LIKELIHOOD_QUERY)
    wide = run_workload(dbs, WIDE_QUERY)

    def identical(workload) -> bool:
        baseline = workload["raw"]["_rows"]
        return all(workload[name]["_rows"] == baseline for name in CONFIGS)

    def reads(workload, name) -> int:
        return workload[name]["logical_reads_per_run"]

    read_drop = 1.0 - reads(likelihood, "compressed") / max(
        reads(likelihood, "raw"), 1
    )

    checks = [
        ShapeCheck(
            claim="compressed pages cost fewer logical reads",
            paper="denser pages shrink the scanned working set",
            measured=f"{reads(likelihood, 'raw')} -> "
                     f"{reads(likelihood, 'compressed')} reads "
                     f"({read_drop * 100:.0f}% drop)",
            holds=reads(likelihood, "compressed") < reads(likelihood, "raw"),
        ),
        ShapeCheck(
            claim="compression on/off at 1 and "
                  f"{MORSEL_WORKERS} workers is byte-identical",
            paper="codecs and morsels change cost, never answers",
            measured=f"likelihood {likelihood['raw']['result_rows']} "
                     f"rows, wide {wide['raw']['result_rows']} rows",
            holds=identical(likelihood) and identical(wide),
        ),
    ]

    payload = {
        "morsel_workers": MORSEL_WORKERS,
        "logical_read_drop": round(read_drop, 3),
        "workloads": {
            name: {
                arm: {k: v for k, v in workload[arm].items()
                      if not k.startswith("_")}
                for arm in CONFIGS
            }
            for name, workload in (("likelihood", likelihood),
                                   ("wide", wide))
        },
        "checks": [
            {"claim": c.claim, "holds": bool(c.holds)} for c in checks
        ],
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload, checks


def _report(payload, checks):
    lines = [
        f"{name} [{config}]: {m['elapsed_s'] * 1e3:.1f} ms, "
        f"{m['result_rows']} rows, {m['logical_reads_per_run']} reads"
        for name, configs in payload["workloads"].items()
        for config, m in configs.items()
    ]
    print_report("Compressed pages", lines, checks)


def test_kernels_bench():
    payload, checks = run_and_check()
    _report(payload, checks)
    assert all(c.holds for c in checks), [c.claim for c in checks if not c.holds]


def main() -> int:
    payload, checks = run_and_check()
    _report(payload, checks)
    print(f"wrote {OUTPUT_PATH}")
    return 0 if all(c.holds for c in checks) else 1


if __name__ == "__main__":
    raise SystemExit(main())
