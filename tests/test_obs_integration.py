"""The acceptance path: one trace across all four layers.

A CasJobs job, the scheduler attempt that served it, the cluster
partitions it fanned out to (in worker *processes*), and the engine
tasks each partition ran must land in a single trace with parent/child
links intact — and the exported Chrome trace must survive a JSON
round-trip and schema validation.
"""

import json

import pytest

from repro.casjobs.queue import JobQueue, QueueClass
from repro.casjobs.scheduler import Scheduler, SchedulerConfig
from repro.cluster.executor import run_partitioned
from repro.core.config import fast_config
from repro.core.kcorrection import build_kcorrection_table
from repro.obs import (
    get_metrics,
    get_tracer,
    render_tree,
    to_chrome_trace,
    tracing,
    validate_chrome_trace,
)
from repro.skyserver.generator import SkyConfig, SkySimulator
from repro.skyserver.regions import RegionBox


@pytest.fixture(scope="module")
def tiny_setup():
    config = fast_config()
    kcorr = build_kcorrection_table(config)
    target = RegionBox(180.0, 181.0, 0.0, 1.0)
    simulator = SkySimulator(
        kcorr, config,
        SkyConfig(field_density=150.0, cluster_density=3.0, seed=11),
    )
    sky = simulator.generate(target.expand(1.0))
    return config, kcorr, target, sky


def run_traced_job(tiny_setup, backend):
    config, kcorr, target, sky = tiny_setup

    def executor(job):
        return run_partitioned(
            sky.catalog, target, kcorr, config,
            n_servers=2, backend=backend, compute_members=False,
        )

    with tracing():
        queue = JobQueue()
        scheduler = Scheduler(
            queue, executor,
            SchedulerConfig(pool="sequential", max_workers=1),
        )
        scheduler.submit("alice", "EXEC maxbcg", "dr1",
                         queue_class=QueueClass.LONG)
        scheduler.run_until_idle(timeout_s=120)
        scheduler.close()
        return get_tracer().spans()


def ancestor_names(span, by_id):
    names = []
    while span.parent_id is not None:
        span = by_id[span.parent_id]
        names.append(span.name)
    return names


@pytest.fixture(scope="module")
def traced_spans(tiny_setup):
    """One partitioned run under the process backend, traced."""
    return run_traced_job(tiny_setup, "processes")


class TestFourLayerTrace:
    def test_single_trace_id(self, traced_spans):
        assert len({s.trace_id for s in traced_spans}) == 1

    def test_all_four_layers_present(self, traced_spans):
        layers = {s.layer for s in traced_spans}
        assert {"casjobs", "cluster", "engine"} <= layers
        names = {s.name for s in traced_spans}
        assert "casjobs.job" in names
        assert "scheduler.attempt" in names
        assert "cluster.run" in names
        assert "cluster.partition" in names
        assert any(n.startswith("engine.task:") for n in names)

    def test_engine_spans_chain_up_to_the_job(self, traced_spans):
        by_id = {s.span_id: s for s in traced_spans}
        engine_spans = [s for s in traced_spans
                        if s.name.startswith("engine.task:")]
        assert engine_spans
        for sp in engine_spans:
            chain = ancestor_names(sp, by_id)
            assert chain == [
                "cluster.partition", "cluster.run",
                "scheduler.attempt", "casjobs.job",
            ]

    def test_one_partition_span_per_server(self, traced_spans):
        partitions = [s for s in traced_spans if s.name == "cluster.partition"]
        assert len(partitions) == 2
        assert {p.attrs["server"] for p in partitions} == {0, 1}

    def test_child_process_spans_crossed_the_boundary(self, traced_spans):
        """Process workers have a different pid than the dispatcher."""
        job = next(s for s in traced_spans if s.name == "casjobs.job")
        partitions = [s for s in traced_spans if s.name == "cluster.partition"]
        assert all(p.pid != job.pid for p in partitions)

    def test_job_span_status_attr(self, traced_spans):
        job = next(s for s in traced_spans if s.name == "casjobs.job")
        assert job.attrs["status"] == "finished"

    def test_chrome_export_round_trips(self, traced_spans):
        document = json.loads(json.dumps(to_chrome_trace(traced_spans)))
        assert validate_chrome_trace(document) >= len(traced_spans)

    def test_tree_renders_every_span_once(self, traced_spans):
        assert len(render_tree(traced_spans).splitlines()) == len(traced_spans)


class TestThreadBackendTrace:
    def test_thread_partitions_share_the_trace(self, tiny_setup):
        spans = run_traced_job(tiny_setup, "threads")
        assert len({s.trace_id for s in spans}) == 1
        partitions = [s for s in spans if s.name == "cluster.partition"]
        assert len(partitions) == 2


class TestForkedWorkerSpans:
    def test_span_ids_unique_after_fork_run(self, tiny_setup):
        """A forked worker must not ship back the parent's spans.

        A span finished before dispatch sits in the parent's tracer
        when the pool forks; each child starts from an empty tracer, so
        the merged trace holds it exactly once.
        """
        from repro.cluster.backends import ProcessBackend
        from repro.obs import span

        config, kcorr, target, sky = tiny_setup
        with tracing():
            with span("test.before_dispatch", layer="app"):
                pass
            run_partitioned(
                sky.catalog, target, kcorr, config, n_servers=3,
                backend=ProcessBackend(max_workers=2, mp_context="fork"),
                compute_members=False,
            )
            spans = get_tracer().spans()
        ids = [s.span_id for s in spans]
        assert len(ids) == len(set(ids))
        assert sum(s.name == "test.before_dispatch" for s in spans) == 1
        partitions = [s for s in spans if s.name == "cluster.partition"]
        assert len(partitions) == 3


class TestDisabledPath:
    def test_disabled_run_records_nothing(self, tiny_setup):
        config, kcorr, target, sky = tiny_setup
        get_tracer().clear()
        run_partitioned(sky.catalog, target, kcorr, config,
                        n_servers=2, backend="sequential",
                        compute_members=False)
        assert len(get_tracer()) == 0


class TestMetricsFlow:
    def test_cluster_run_feeds_the_registry(self, tiny_setup):
        config, kcorr, target, sky = tiny_setup
        metrics = get_metrics()
        partitions_before = metrics.counter("cluster.partitions").value
        io_before = metrics.counter("cluster.partition.io_ops").value
        run_partitioned(sky.catalog, target, kcorr, config,
                        n_servers=2, backend="sequential",
                        compute_members=False)
        assert metrics.counter("cluster.partitions").value == (
            partitions_before + 2
        )
        assert metrics.counter("cluster.partition.io_ops").value > io_before
        assert metrics.histogram("cluster.partition.wall_s").count >= 2

    def test_scheduler_feeds_the_registry(self, tiny_setup):
        metrics = get_metrics()
        finished_before = metrics.counter("casjobs.finished").value
        run_traced_job(tiny_setup, "sequential")
        assert metrics.counter("casjobs.finished").value == finished_before + 1
        assert metrics.histogram("casjobs.run_s").count >= 1

    def test_grid_scheduler_feeds_the_registry(self):
        from repro.grid.jobs import Job
        from repro.grid.resources import ClusterSpec, Node
        from repro.grid.scheduler import CondorScheduler
        from repro.grid.transfer import TransferModel

        metrics = get_metrics()
        completed_before = metrics.counter("grid.jobs.completed").value
        cluster = ClusterSpec("obs", (Node("n0", 2600.0, n_cpus=2),))
        scheduler = CondorScheduler(cluster, TransferModel())
        jobs = [
            Job(job_id=n, name=f"job{n}", cpu_seconds=10.0,
                input_bytes=10**6, input_files=2, output_bytes=10**5,
                ram_bytes=10**6)
            for n in range(3)
        ]
        with tracing():
            result = scheduler.run(jobs)
            spans = get_tracer().spans()
        assert result.completed == 3
        assert metrics.counter("grid.jobs.completed").value == (
            completed_before + 3
        )
        assert metrics.counter("grid.transfer.bytes").value > 0
        assert any(s.name == "grid.schedule" for s in spans)
