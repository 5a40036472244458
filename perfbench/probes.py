"""Per-layer timers for the traced run, and the rollup of their spans.

:func:`instrument` wraps the public functions each layer exposes with
``repro.obs.trace`` spans.  The wrappers go on at runtime, from this
file, for the traced run only, and come off when it ends; no program
source changes.  Together with the spans the program already opens
(``engine.task:*``, ``engine.sql``, ``cluster.run``,
``cluster.partition``, ``casjobs.job``, ``scheduler.attempt``) they
cover every layer boundary.  Worker processes are forked after the
wrappers go on, so their spans come home inside the cluster's work-unit
outcomes.

A layer's self time is the sum, over its spans, of each span's duration
minus the part of it that its child spans cover.

The pipeline replays page reads it never performs, to model Table 1's
I/O column: ``Table.touch_rows`` (anywhere, including the stored
procedures' ``fGetNearbyObjEqZd``), and ``Table.scan`` /
``PagedFile.read_range`` called from ``repro.core.pipeline``.  Reads
made inside those calls are tallied as *modeled*
(``engine.pool.modeled_reads``), so a later change that replaces them
with real reads shows up as a changed counter definition.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
from collections import defaultdict

from harness import median, ratio

#: Operators reported by name; the rest are summed as ``other``.
OPERATORS = ("SeqScan", "IndexRangeScan", "HashJoin", "BandJoin",
             "Aggregate", "Project", "Sort")

#: Engine phases split out of each statement, span name -> metric.
PHASES = {"engine.parse": "engine.parse_us", "engine.rewrite": "engine.rewrite_us",
          "engine.plan": "engine.plan_us", "engine.execute": "engine.execute_us"}

#: Modules whose direct ``scan()`` / ``read_range()`` calls replay reads.
REPLAYING_MODULES = frozenset({"repro.core.pipeline"})


class ModeledReads:
    """Per-thread tally of page reads made inside replay calls."""

    def __init__(self) -> None:
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "depth"):
            local.depth = 0
            local.reads = 0
        return local

    @contextlib.contextmanager
    def replaying(self):
        state = self._state()
        state.depth += 1
        try:
            yield
        finally:
            state.depth -= 1

    def count_access(self) -> None:
        state = self._state()
        if state.depth:
            state.reads += 1

    def reads(self) -> int:
        return self._state().reads


def _targets():
    """(owner, attribute, span name, annotate) for every wrapped call."""
    import repro.core.candidates as candidates
    import repro.core.clusters as clusters
    import repro.engine.database as database
    import repro.engine.optimizer.rewrite as rewrite
    from repro.casjobs.mydb import MyDB
    from repro.cluster.executor import SqlServerCluster
    from repro.core.pipeline import MaxBCGPipeline
    from repro.engine.database import Database
    from repro.engine.sql.executor import Executor
    from repro.engine.sql.planner import Planner
    from repro.engine.table import Table
    from repro.spatial.zones import ZoneIndex

    def filter_counts(sp, args, result):
        sp.set("evaluated", len(args[0]))
        sp.set("passed", result.n_passed)

    return [
        (MaxBCGPipeline, "run", "core.pipeline", None),
        (candidates, "filter_catalog", "core.filter_catalog", filter_counts),
        (ZoneIndex, "__init__", "spatial.zoneindex.build", None),
        (ZoneIndex, "query", "spatial.zoneindex.query", None),
        (ZoneIndex, "scan_ranges", "spatial.scan_ranges", None),
        (candidates, "zone_join", "spatial.zone_join", None),
        (clusters, "zone_join", "spatial.zone_join", None),
        (Database, "sql", "engine.statement", None),
        (database, "parse", "engine.parse", None),
        (rewrite, "rewrite_statement", "engine.rewrite", None),
        (Planner, "plan_select", "engine.plan", None),
        (Executor, "execute", "engine.execute", None),
        (Database, "create_table", "engine.table.write", None),
        (Table, "insert", "engine.table.write", None),
        (SqlServerCluster, "run", "cluster.total", None),
        (SqlServerCluster, "make_workunits", "cluster.make_workunits", None),
        (MyDB, "store_result", "casjobs.spool", None),
    ]


def _timed(fn, name: str, annotate, tally: ModeledReads):
    from repro.obs.trace import span

    layer = name.split(".")[0]
    counts_replays = name in ("core.pipeline", "engine.statement")

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        with span(name, layer=layer) as sp:
            before = tally.reads() if counts_replays else 0
            result = fn(*args, **kwargs)
            if counts_replays:
                sp.set("modeled_reads", tally.reads() - before)
            if annotate is not None:
                annotate(sp, args, result)
            return result

    return timed


def _replay_counters(tally: ModeledReads):
    """Wrappers that mark replayed reads and count pool accesses."""
    from repro.engine.pages import BufferPool, PagedFile
    from repro.engine.table import Table

    def always(fn):
        @functools.wraps(fn)
        def replay(*args, **kwargs):
            with tally.replaying():
                return fn(*args, **kwargs)
        return replay

    def from_pipeline(fn):
        @functools.wraps(fn)
        def maybe_replay(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") in REPLAYING_MODULES:
                with tally.replaying():
                    return fn(*args, **kwargs)
            return fn(*args, **kwargs)
        return maybe_replay

    def counting(fn):
        @functools.wraps(fn)
        def access(*args, **kwargs):
            tally.count_access()
            return fn(*args, **kwargs)
        return access

    return [
        (Table, "touch_rows", always),
        (Table, "scan", from_pipeline),
        (PagedFile, "read_range", from_pipeline),
        (BufferPool, "access", counting),
    ]


@contextlib.contextmanager
def instrument():
    """Install every wrapper; restore the originals on exit."""
    tally = ModeledReads()
    patched = []
    try:
        for owner, attr, name, annotate in _targets():
            original = vars(owner)[attr]
            patched.append((owner, attr, original))
            setattr(owner, attr, _timed(original, name, annotate, tally))
        for owner, attr, make in _replay_counters(tally):
            original = vars(owner)[attr]
            patched.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# rollup
# ----------------------------------------------------------------------
def layer_of(name: str) -> str:
    """The layer a span's time belongs to (Table 1 tasks are ``core``)."""
    if name.startswith("engine.task:"):
        return "core"
    if name.startswith("scheduler."):
        return "casjobs"
    return name.split(".")[0]


class SpanTree:
    """Spans indexed by parent, with per-span self time."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s.span_id: s for s in self.spans}
        self.children = defaultdict(list)
        for s in self.spans:
            self.children[s.parent_id].append(s)

    def self_time(self, s) -> float:
        start, end = s.start_wall, s.start_wall + s.wall_s
        pieces = sorted(
            (max(start, c.start_wall), min(end, c.start_wall + c.wall_s))
            for c in self.children[s.span_id]
        )
        covered, cursor = 0.0, start
        for lo, hi in pieces:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return max(0.0, s.wall_s - covered)

    def has_ancestor(self, s, name: str) -> bool:
        parent = self.by_id.get(s.parent_id)
        while parent is not None:
            if parent.name == name:
                return True
            parent = self.by_id.get(parent.parent_id)
        return False

    def top_level(self, name: str) -> list:
        """Spans called ``name`` not nested inside another of the same name."""
        return [s for s in self.spans
                if s.name == name and not self.has_ancestor(s, name)]

    def descendants(self, s):
        stack = list(self.children[s.span_id])
        while stack:
            child = stack.pop()
            yield child
            stack.extend(self.children[child.span_id])


def rollup(spans, n_ops: int) -> dict:
    """Per-operation layer numbers from the traced run's spans."""
    tree = SpanTree(spans)
    per_op = 1.0 / max(n_ops, 1)
    out: dict[str, float] = {}

    self_by_layer: dict[str, float] = defaultdict(float)
    for s in tree.spans:
        self_by_layer[layer_of(s.name)] += tree.self_time(s)
    for layer in ("core", "spatial", "engine", "cluster"):
        out[f"{layer}.self_s"] = self_by_layer[layer] * per_op

    def total(name):
        return sum(s.wall_s for s in tree.top_level(name)) * per_op

    def count(name):
        return sum(1 for s in tree.spans if s.name == name) * per_op

    filters = [s for s in tree.spans if s.name == "core.filter_catalog"]
    out["core.filter_catalog_s"] = total("core.filter_catalog")
    out["core.filter_pass_fraction"] = ratio(
        sum(s.attrs.get("passed", 0) for s in filters),
        sum(s.attrs.get("evaluated", 0) for s in filters),
    )
    out["spatial.zoneindex.builds"] = count("spatial.zoneindex.build")
    out["spatial.zoneindex.build_s"] = total("spatial.zoneindex.build")
    out["spatial.zoneindex.query_calls"] = count("spatial.zoneindex.query")
    out["spatial.zoneindex.query_s"] = total("spatial.zoneindex.query")
    out["spatial.scan_ranges_calls"] = count("spatial.scan_ranges")
    out["spatial.zone_join_s"] = total("spatial.zone_join")
    out["engine.table.write_s"] = total("engine.table.write")
    out["cluster.make_workunits_s"] = total("cluster.make_workunits")
    # cluster.total minus work units and the dispatch span: partitioning,
    # absorbing worker spans, and concatenating/deduplicating the catalogs
    out["cluster.merge_s"] = sum(
        tree.self_time(s) for s in tree.spans if s.name == "cluster.total"
    ) * per_op

    statements = tree.top_level("engine.statement")
    out["engine.statements"] = len(statements) * per_op
    out["engine.statement_us"] = median(s.wall_s for s in statements) * 1e6
    phase_times = {metric: [] for metric in PHASES.values()}
    for statement in statements:
        sums = dict.fromkeys(PHASES.values(), 0.0)
        for d in tree.descendants(statement):
            if d.name in PHASES:
                sums[PHASES[d.name]] += tree.self_time(d)
        for metric, value in sums.items():
            phase_times[metric].append(value)
    for metric, values in phase_times.items():
        out[metric] = median(values) * 1e6

    out["engine.pool.modeled_reads"] = sum(
        s.attrs.get("modeled_reads", 0)
        for s in tree.top_level("core.pipeline") + statements
    ) * per_op
    spools = [s.wall_s * 1e3 for s in tree.spans if s.name == "casjobs.spool"]
    out["casjobs.spool_ms.p50"] = median(spools)
    out["obs.spans"] = len(tree.spans) * per_op
    return out


def operator_self_times(reports) -> dict:
    """Mean per-statement operator self time from EXPLAIN ANALYZE reports,
    and rows the leaf operators examined per row returned."""
    sums = dict.fromkeys(OPERATORS + ("other",), 0.0)
    leaf_rows = returned = 0
    for report in reports:
        nodes = report.nodes
        for k, node in enumerate(nodes):
            children = []
            for later in nodes[k + 1:]:
                if later.depth <= node.depth:
                    break
                if later.depth == node.depth + 1:
                    children.append(later)
            own = node.inclusive_s - sum(c.inclusive_s for c in children)
            op = node.description.split("(")[0].strip()
            sums[op if op in sums else "other"] += max(0.0, own)
            if not children:
                leaf_rows += node.rows
        returned += report.row_count
    n = max(len(reports), 1)
    out = {f"engine.op.{op}.self_s": value / n for op, value in sums.items()}
    out["engine.rows_examined_per_row"] = ratio(leaf_rows, returned)
    return out
