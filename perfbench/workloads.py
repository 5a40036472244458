"""The four workloads, all on the ``medium`` sky of ``repro.bench.workloads``.

Each workload splits its life into the same steps, which ``run.py``
drives:

* ``load()`` — build the inputs from the seed and load them into the
  program (timed, repeated: the ``setup_s`` metric);
* ``prepare()`` — compute the reference answers (untimed);
* ``run_op()`` — one user-visible operation (timed);
* ``check(result)`` — compare the operation's answer with the
  reference; returns an :class:`~harness.Outcome` (untimed);
* ``layer_facts(samples)`` — per-layer numbers the program reports
  about itself, taken from the untraced samples of a ``--trace 1`` run;
* ``explain_reports()`` — ``Database.explain_analyze`` reports of a
  few of the workload's statements, for operator self times;
* ``summary(samples)`` — extra figures printed (not gated) with the
  end-to-end metrics.

Only public entry points are called: ``run_maxbcg``, ``run_partitioned``,
``Database.sql`` / ``explain_analyze`` and ``CasJobsService.submit``.
Every database uses the default ``EngineConfig``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from harness import Outcome, Sample, median, nproc, percentile, ratio
from repro.bench.casjobs_load import LoadSpec, results_digest
from repro.bench.workloads import WORKLOADS
from repro.casjobs.queue import JobStatus, QueueClass
from repro.casjobs.scheduler import SchedulerConfig
from repro.casjobs.server import CasJobsService
from repro.cluster.backends import ProcessBackend
from repro.cluster.executor import run_partitioned
from repro.cluster.verify import run_fingerprint
from repro.core.kcorrection import build_kcorrection_table
from repro.core.likelihood import filter_catalog
from repro.core.pipeline import run_maxbcg
from repro.core.procedures import install_maxbcg
from repro.engine.database import Database
from repro.errors import QueueFullError, QuotaExceededError
from repro.skyserver.generator import SkySimulator
from repro.skyserver.regions import RegionBox
from repro.spatial.zones import zone_id

#: Table 1's task rows, in the paper's order.
TABLE1_TASKS = ("spZone", "fBCGCandidate", "fIsCluster", "spMakeGalaxiesMetric")

#: Zones per ``sql-filter`` statement and per ``casjobs-mix`` Filter job.
FILTER_STRIPE_ZONES = 100
JOB_STRIPE_ZONES = 10


def medium_sky(seed: int):
    """The medium workload's geometry with its sky drawn from ``seed``.

    Returns ``(workload, kcorr, catalog)``; the Kcorr grid depends only
    on the config, the galaxies on the seed.
    """
    workload = dataclasses.replace(WORKLOADS["medium"], seed=seed)
    kcorr = build_kcorrection_table(workload.sql)
    catalog = SkySimulator(
        kcorr, workload.sql, workload.sky_config()
    ).generate(workload.import_region).catalog
    return workload, kcorr, catalog


def load_context(workload, kcorr, catalog, results=None) -> Database:
    """The paper's SQL context: appendix schema, Galaxy, Zone, ANALYZE.

    ``results``, a :class:`~repro.core.pipeline.MaxBCGResult`, fills the
    Candidates, Clusters and ClusterGalaxiesMetric tables.
    """
    db = Database("dr1")
    db.create_table("galaxy_source", catalog.as_columns(), primary_key="objid")
    install_maxbcg(db, kcorr, workload.sql)
    box = workload.import_region
    db.sql(f"EXEC spImportGalaxy {box.ra_min}, {box.ra_max}, "
           f"{box.dec_min}, {box.dec_max}")
    db.sql("EXEC spZone")
    if results is not None:
        db.table("candidates").insert(results.candidates.as_columns())
        db.table("clusters").insert(results.clusters.as_columns())
        db.table("clustergalaxiesmetric").insert(results.members.as_columns())
    db.sql("ANALYZE")
    return db


def filter_sql(config, zone_lo: int, zone_hi: int) -> str:
    """The Filter step as one band-stated SQL statement over a zone stripe.

    chi² < t bounds ``|g.i - k.i|`` by ``sigma_i * sqrt(t)``; stating
    that band (rounded up) changes no answer and lets the planner pick
    a BandJoin.
    """
    band = math.ceil(config.i_pop_sigma * math.sqrt(config.chi2_threshold)
                     * 1000.0) / 1000.0
    return (
        "SELECT g.objid AS objid, COUNT(*) AS nz "
        "FROM Zone z JOIN Galaxy g ON z.objid = g.objid CROSS JOIN Kcorr k "
        f"WHERE z.zoneid BETWEEN {zone_lo} AND {zone_hi} "
        f"AND ABS(g.i - k.i) < {band} "
        f"AND (POWER(g.i - k.i, 2) / POWER({config.i_pop_sigma}, 2) "
        f"+ POWER(g.gr - k.gr, 2) / (POWER(sigmagr, 2) "
        f"+ POWER({config.gr_pop_sigma}, 2)) "
        f"+ POWER(g.ri - k.ri, 2) / (POWER(sigmari, 2) "
        f"+ POWER({config.ri_pop_sigma}, 2))) < {config.chi2_threshold} "
        "GROUP BY g.objid"
    )


def answer_digest(columns: dict) -> str:
    """SHA-256 over a result's column names and raw values."""
    digest = hashlib.sha256()
    for name, values in columns.items():
        arr = np.asarray(values)
        digest.update(name.encode())
        if arr.dtype == object:
            digest.update("\x00".join(str(v) for v in arr.tolist()).encode())
        else:
            digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def table1_facts(results) -> dict:
    """Table 1 task times, output counts and I/O summed over results."""
    facts = {f"core.{task}_s": 0.0 for task in TABLE1_TASKS}
    facts.update({"engine.pool.logical_reads": 0, "engine.pool.physical_reads": 0,
                  "engine.pool.writes": 0})
    for result in results:
        for task, stats in result.stats.items():
            facts[f"core.{task}_s"] += stats.elapsed_s
            facts["engine.pool.logical_reads"] += stats.io.logical_reads
            facts["engine.pool.physical_reads"] += stats.io.physical_reads
            facts["engine.pool.writes"] += stats.io.writes
    return facts


def mean_facts(samples: list[Sample]) -> dict:
    """Per-operation mean of every numeric fact the checks recorded."""
    names = {
        name for s in samples for name, value in s.outcome.facts.items()
        if isinstance(value, (int, float))
    }
    return {
        name: float(np.mean([s.outcome.facts.get(name, 0.0) for s in samples]))
        for name in names
    }


class Workload:
    """Shared defaults; see the module docstring for the protocol."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 3

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        pass

    def layer_facts(self, samples: list[Sample]) -> dict:
        return mean_facts(samples)

    def explain_reports(self) -> list:
        return []

    def summary(self, samples: list[Sample]) -> dict:
        return {}


# ----------------------------------------------------------------------
# MaxBCG, one node and zone-partitioned
# ----------------------------------------------------------------------
class MaxBCGOneNode(Workload):
    """Table 1's one-node row: ``run_maxbcg`` with members on.

    The first answer becomes the reference; every later call must
    reproduce it byte for byte.
    """

    name = "maxbcg-1node"
    setup_repeats = 5  # set-up is only sky generation, ~0.5 s

    def load(self) -> None:
        self.workload, self.kcorr, self.catalog = medium_sky(self.seed)
        self.reference: dict | None = None

    def run_op(self):
        return run_maxbcg(self.catalog, self.workload.target, self.kcorr,
                          self.workload.sql, method="vectorized",
                          compute_members=True)

    def check(self, result) -> Outcome:
        fingerprint = run_fingerprint(result.candidates, result.clusters,
                                      result.members)
        if self.reference is None:
            self.reference = fingerprint
        facts = table1_facts([result])
        facts.update({"core.candidates": len(result.candidates),
                      "core.clusters": len(result.clusters),
                      "core.members": len(result.members)})
        return Outcome(failed=int(fingerprint != self.reference), facts=facts)


class MaxBCGThreeWay(Workload):
    """Table 1's partition rows: ``run_partitioned`` over the paper's
    three declination partitions on worker processes.

    The merged catalogs must be byte-identical to the one-node answer,
    computed once in ``prepare``.
    """

    name = "maxbcg-3way"
    setup_repeats = 5  # set-up is only sky generation, ~0.5 s
    n_servers = 3

    def load(self) -> None:
        self.workload, self.kcorr, self.catalog = medium_sky(self.seed)

    def prepare(self) -> None:
        one_node = run_maxbcg(self.catalog, self.workload.target, self.kcorr,
                              self.workload.sql, method="vectorized",
                              compute_members=True)
        self.reference = run_fingerprint(
            one_node.candidates.dedup_by_objid().sort_by_objid(),
            one_node.clusters.dedup_by_objid().sort_by_objid(),
            one_node.members,
        )

    def run_op(self):
        started = time.perf_counter()
        result = run_partitioned(
            self.catalog, self.workload.target, self.kcorr, self.workload.sql,
            n_servers=self.n_servers, method="vectorized", compute_members=True,
            backend=ProcessBackend(max_workers=min(self.n_servers, nproc())),
        )
        return result, time.perf_counter() - started

    def check(self, op) -> Outcome:
        result, wall = op
        fingerprint = run_fingerprint(result.candidates, result.clusters,
                                      result.members)
        partition_s = [worker.wall_s for worker in result.workers]
        facts = table1_facts(run.result for run in result.runs)
        facts.update({
            "core.candidates": len(result.candidates),
            "core.clusters": len(result.clusters),
            "core.members": len(result.members),
            "cluster.partition_s.max": max(partition_s),
            "cluster.partition_s.mean": float(np.mean(partition_s)),
            "cluster.imbalance": ratio(max(partition_s), np.mean(partition_s)),
            "cluster.overhead_s": wall - max(partition_s),
            "cluster.skirt_ratio": ratio(result.total_galaxies, len(self.catalog)),
            "cluster.modeled_elapsed_s": result.modeled_elapsed_s,
            "cluster.attempts": sum(worker.attempts for worker in result.workers),
        })
        return Outcome(failed=int(fingerprint != self.reference), facts=facts)


# ----------------------------------------------------------------------
# The Filter step as SQL
# ----------------------------------------------------------------------
class SqlFilter(Workload):
    """The paper's Filter step through ``Database.sql``, one 100-zone
    stripe per statement, each stripe different.

    Per-galaxy pass counts must equal ``filter_catalog`` over the same
    galaxies; that reference also times the numpy path for
    ``core.sql_over_numpy``.
    """

    name = "sql-filter"

    def load(self) -> None:
        self.workload, self.kcorr, self.catalog = medium_sky(self.seed)
        self.db = load_context(self.workload, self.kcorr, self.catalog)
        config = self.workload.sql
        imported = self.workload.import_region.contains(self.catalog.ra,
                                                        self.catalog.dec)
        self.zones = np.where(
            imported, zone_id(self.catalog.dec, config.zone_height_deg), -1
        )
        lo, hi = int(self.zones[imported].min()), int(self.zones.max())
        # full stripes only (the outermost zones are partly empty), in a
        # seeded order so no two statements of a run share an answer
        starts = np.arange(lo + 1, hi - FILTER_STRIPE_ZONES + 1)
        self.starts = np.random.default_rng(self.seed).permutation(starts)
        self.cursor = 0

    def _next_stripe(self) -> tuple[int, int]:
        lo = int(self.starts[self.cursor % self.starts.size])
        self.cursor += 1
        return lo, lo + FILTER_STRIPE_ZONES - 1

    def run_op(self):
        lo, hi = self._next_stripe()
        counters = self.db.pool.counters
        before = counters.snapshot()
        result = self.db.sql(filter_sql(self.workload.sql, lo, hi))
        return (lo, hi), result, counters.since(before)

    def check(self, op) -> Outcome:
        (lo, hi), result, io = op
        cat = self.catalog
        rows = np.flatnonzero((self.zones >= lo) & (self.zones <= hi))
        started = time.perf_counter()
        passed = filter_catalog(cat.i[rows], cat.gr[rows], cat.ri[rows],
                                cat.sigmagr[rows], cat.sigmari[rows],
                                self.kcorr, self.workload.sql)
        numpy_s = time.perf_counter() - started
        want_ids = cat.objid[rows][passed.passed_rows]
        want_counts = passed.pass_matrix.sum(axis=1)
        order = np.argsort(want_ids)
        got_ids = np.asarray(result.column("objid"))
        got_order = np.argsort(got_ids)
        ok = (np.array_equal(got_ids[got_order], want_ids[order])
              and np.array_equal(np.asarray(result.column("nz"))[got_order],
                                 want_counts[order]))
        return Outcome(failed=int(not ok), facts={
            "numpy_s": numpy_s,
            "core.filter_pass_fraction": ratio(passed.n_passed, rows.size),
            "engine.pool.logical_reads": io.logical_reads,
            "engine.pool.physical_reads": io.physical_reads,
            "engine.pool.writes": io.writes,
        })

    def layer_facts(self, samples: list[Sample]) -> dict:
        facts = mean_facts(samples)
        # both sides timed over the same stripes
        facts["core.sql_over_numpy"] = ratio(
            median(s.wall_s for s in samples),
            median(s.outcome.facts["numpy_s"] for s in samples),
        )
        return facts

    def explain_reports(self) -> list:
        return [self.db.explain_analyze(
                    filter_sql(self.workload.sql, *self._next_stripe()))
                for _ in range(2)]


# ----------------------------------------------------------------------
# CasJobs job mix
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSpec:
    sql: str
    queue_class: QueueClass


#: Traffic shape from the repository's CasJobs load model
#: (``repro.bench.casjobs_load.LoadSpec`` defaults): 40% of jobs on the
#: quick queue, zipfian popularity with exponent 1.1, and every 5th job
#: of a user spools its answer INTO MyDB.
LOAD_SPEC = LoadSpec()
QUICK_KINDS = ("pk_lookup", "zone_box", "cone_count", "rich_clusters")
LONG_KINDS = ("member_join", "zone_aggregate", "filter_stripe")
#: Unverified assumptions, for want of a published CasJobs query-log
#: figure: distinct parameter sets per job kind (the zipfian draw's
#: pool), and jobs per user per batch (two passes over the 5-job class
#: pattern, so every batch has exactly the quick share and two spools
#: per user, and a 15 s run times more than 100 jobs of each class).
VARIANTS_PER_KIND = 8
JOBS_PER_USER = 10
#: The cluster tables come from a pipeline run over the central
#: 2 x 2 degrees of the target, which keeps set-up short.
FILL_HALF_WIDTH_DEG = 1.0


def is_quick_job(step: int) -> bool:
    """Whether job ``step`` (from 0) of a user goes on the quick queue:
    a fixed pattern with exactly ``quick_fraction`` of the jobs quick,
    Q L L Q L at 0.4, the same for every seed."""
    return (step * LOAD_SPEC.quick_fraction) % 1.0 < LOAD_SPEC.quick_fraction


class CasJobsMix(Workload):
    """A CasJobs site hosting the catalog as context ``dr1``.

    ``nproc`` users run a closed loop (the next job is submitted when
    the previous one finishes) against a scheduler with ``nproc``
    workers.  One operation is one batch of ``JOBS_PER_USER`` jobs per
    user on a fresh service over the same context; every batch replays
    the same seeded job sequence, so its ``results_digest`` must equal
    the first batch's and each job's answer must equal the answer the
    same text gives through ``Database.sql``.
    """

    name = "casjobs-mix"

    def load(self) -> None:
        self.workload, self.kcorr, self.catalog = medium_sky(self.seed)
        target = self.workload.target
        ra, dec = (target.ra_min + target.ra_max) / 2, (target.dec_min + target.dec_max) / 2
        fill = RegionBox(ra - FILL_HALF_WIDTH_DEG, ra + FILL_HALF_WIDTH_DEG,
                         dec - FILL_HALF_WIDTH_DEG, dec + FILL_HALF_WIDTH_DEG)
        result = run_maxbcg(self.catalog, fill, self.kcorr, self.workload.sql)
        self.db = load_context(self.workload, self.kcorr, self.catalog, result)
        self.clusters = result.clusters
        imported = self.workload.import_region.contains(self.catalog.ra,
                                                        self.catalog.dec)
        self.objids = self.catalog.objid[imported]
        zones = zone_id(self.catalog.dec[imported],
                        self.workload.sql.zone_height_deg)
        # interior zones only: the outermost two are partly empty
        self.zone_range = (int(zones.min()) + 1, int(zones.max()) - 1)
        self.users = [f"user{u}" for u in range(nproc())]
        self.sequences = self._job_sequences()
        self.reference_digest: str | None = None

    # -- the job pool ---------------------------------------------------
    def _variant(self, kind: str, rng: np.random.Generator) -> str:
        cat, config = self.catalog, self.workload.sql
        zlo, zhi = self.zone_range
        if kind == "pk_lookup":
            objid = int(rng.choice(self.objids))
            return ("SELECT objid, ra, dec, i, gr, ri FROM Galaxy "
                    f"WHERE objid = {objid}")
        if kind == "zone_box":
            zone = int(rng.integers(zlo, zhi - 1))
            ra = float(rng.uniform(self.workload.target.ra_min,
                                   self.workload.target.ra_max - 0.2))
            return ("SELECT COUNT(*) AS n FROM Zone "
                    f"WHERE zoneid BETWEEN {zone} AND {zone + 1} "
                    f"AND ra BETWEEN {ra:.4f} AND {ra + 0.2:.4f}")
        if kind == "cone_count":
            row = int(rng.integers(0, cat.ra.size))
            return ("SELECT COUNT(*) AS n FROM fGetNearbyObjEqZd("
                    f"{cat.ra[row]:.5f}, {cat.dec[row]:.5f}, 0.05) n")
        if kind == "rich_clusters":
            ngal = int(rng.choice(np.unique(self.clusters.ngal)))
            return ("SELECT objid, ra, dec, z, ngal FROM Clusters "
                    f"WHERE ngal >= {ngal} ORDER BY ngal DESC, objid LIMIT 20")
        if kind == "member_join":
            z = float(rng.uniform(config.z_min, config.z_max - 0.1))
            return ("SELECT c.objid AS cluster, COUNT(*) AS n, AVG(g.i) AS mean_i "
                    "FROM Clusters c "
                    "JOIN ClusterGalaxiesMetric m ON m.clusterobjid = c.objid "
                    "JOIN Galaxy g ON g.objid = m.galaxyobjid "
                    f"WHERE c.z BETWEEN {z:.4f} AND {z + 0.1:.4f} "
                    "GROUP BY c.objid")
        if kind == "zone_aggregate":
            zone = int(rng.integers(zlo, zhi - 40))
            return ("SELECT z.zoneid AS zoneid, COUNT(*) AS n, AVG(g.i) AS mean_i, "
                    "MIN(g.gr) AS min_gr, MAX(g.gr) AS max_gr "
                    "FROM Zone z JOIN Galaxy g ON z.objid = g.objid "
                    f"WHERE z.zoneid BETWEEN {zone} AND {zone + 39} "
                    "GROUP BY z.zoneid ORDER BY z.zoneid")
        if kind == "filter_stripe":
            zone = int(rng.integers(zlo, zhi - JOB_STRIPE_ZONES))
            return filter_sql(config, zone, zone + JOB_STRIPE_ZONES - 1)
        raise ValueError(kind)

    def _job_sequences(self) -> dict[str, list[JobSpec]]:
        """Each user's jobs: the class from :func:`is_quick_job`, the
        kind rotating within the class (users start at different kinds),
        the variant drawn zipfian from that kind's pool."""
        rng = np.random.default_rng(self.seed)
        pool = {
            kind: [JobSpec(self._variant(kind, rng), queue_class)
                   for _ in range(VARIANTS_PER_KIND)]
            for kinds, queue_class in ((QUICK_KINDS, QueueClass.QUICK),
                                       (LONG_KINDS, QueueClass.LONG))
            for kind in kinds
        }
        weights = 1.0 / np.arange(1, VARIANTS_PER_KIND + 1) ** LOAD_SPEC.zipf_s
        weights /= weights.sum()
        sequences = {}
        for offset, user in enumerate(self.users):
            taken = {True: offset, False: offset}
            sequence = []
            for step in range(JOBS_PER_USER):
                quick = is_quick_job(step)
                kinds = QUICK_KINDS if quick else LONG_KINDS
                kind = kinds[taken[quick] % len(kinds)]
                taken[quick] += 1
                sequence.append(
                    pool[kind][int(rng.choice(VARIANTS_PER_KIND, p=weights))])
            sequences[user] = sequence
        return sequences

    def prepare(self) -> None:
        texts = {job.sql for seq in self.sequences.values() for job in seq}
        self.reference = {sql: answer_digest(self.db.sql(sql).columns)
                          for sql in sorted(texts)}

    # -- one batch ------------------------------------------------------
    def run_op(self):
        service = CasJobsService("bench", SchedulerConfig(
            pool="threads", max_workers=nproc()))
        service.add_context("dr1", self.db)
        for user in self.users:
            service.register_user(user)
        scheduler = service.scheduler
        pending = {user: list(reversed(seq))
                   for user, seq in self.sequences.items()}
        submitted = dict.fromkeys(self.users, 0)
        outstanding: dict[str, tuple] = {}
        done: list[tuple] = []
        refused = 0
        before = self.db.pool.counters.snapshot()

        def submit_next(user: str) -> None:
            nonlocal refused
            while pending[user]:
                spec = pending[user].pop()
                submitted[user] += 1
                output = None
                if submitted[user] % LOAD_SPEC.spool_every == 0:
                    output = f"spool{submitted[user]}"
                try:
                    job = service.submit(user, spec.sql, "dr1",
                                         output_table=output,
                                         queue_class=spec.queue_class)
                except (QueueFullError, QuotaExceededError):
                    refused += 1
                    continue
                outstanding[user] = (job, spec)
                return

        try:
            for user in self.users:
                submit_next(user)
            while outstanding:
                progress = scheduler.pump()
                for user, (job, spec) in list(outstanding.items()):
                    if job.status.is_terminal:
                        del outstanding[user]
                        done.append((job, spec))
                        submit_next(user)
                        progress += 1
                if not progress:
                    time.sleep(scheduler.config.poll_s)
        finally:
            scheduler.close()
        return service, done, refused, self.db.pool.counters.since(before)

    def check(self, op) -> Outcome:
        service, done, refused, io = op
        wrong = sum(
            1 for job, spec in done
            if job.status is not JobStatus.FINISHED
            or answer_digest(job.result.columns) != self.reference[spec.sql]
        )
        digest = results_digest(service)
        if self.reference_digest is None:
            self.reference_digest = digest
        stats = service.scheduler.stats
        seen: set[str] = set()
        repeats = 0
        for job, _spec in sorted(done, key=lambda d: d[0].job_id):
            repeats += job.query in seen
            seen.add(job.query)
        jobs = [
            (spec.queue_class.value, job.finished_at - job.submitted_at,
             job.queue_seconds or 0.0, job.run_seconds or 0.0)
            for job, spec in done if job.finished_at is not None
        ]
        attempted = len(done) + refused
        return Outcome(
            attempted=attempted,
            failed=wrong + refused + int(digest != self.reference_digest),
            facts={
                "jobs": jobs,
                "casjobs.retries": stats.retries,
                "casjobs.shed": refused,
                "casjobs.dead_lettered": stats.dead_lettered,
                "casjobs.repeat_share": ratio(repeats, len(done)),
                "engine.pool.logical_reads": io.logical_reads,
                "engine.pool.physical_reads": io.physical_reads,
                "engine.pool.writes": io.writes,
            },
        )

    def summary(self, samples: list[Sample]) -> dict:
        """Per-class submit-to-finish latency, job counts, throughput."""
        jobs = [job for s in samples for job in s.outcome.facts["jobs"]]
        out = {}
        for cls in ("quick", "long"):
            latency = [j[1] * 1e3 for j in jobs if j[0] == cls]
            out[f"{cls}_p50_ms"] = (percentile(latency, 50), "ms")
            out[f"{cls}_p90_ms"] = (percentile(latency, 90), "ms")
            out[f"{cls}_jobs"] = (len(latency), "count")
        out["jobs_per_s"] = (ratio(len(jobs), sum(s.wall_s for s in samples)),
                             "1/s")
        return out

    def layer_facts(self, samples: list[Sample]) -> dict:
        facts = mean_facts(samples)
        for name, (value, _unit) in self.summary(samples).items():
            if not name.endswith("_jobs"):
                facts[f"casjobs.{name}"] = value
        jobs = [job for s in samples for job in s.outcome.facts["jobs"]]
        for cls in ("quick", "long"):
            facts[f"casjobs.wait_ms.p50.{cls}"] = percentile(
                [j[2] * 1e3 for j in jobs if j[0] == cls], 50)
            facts[f"casjobs.run_ms.p50.{cls}"] = percentile(
                [j[3] * 1e3 for j in jobs if j[0] == cls], 50)
        return facts

    def explain_reports(self) -> list:
        texts = {job.sql for seq in self.sequences.values() for job in seq}
        return [self.db.explain_analyze(sql) for sql in sorted(texts)]


WORKLOADS_BY_NAME = {
    cls.name: cls
    for cls in (MaxBCGOneNode, MaxBCGThreeWay, SqlFilter, CasJobsMix)
}
