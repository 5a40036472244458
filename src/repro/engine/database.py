"""The Database: named tables, indexes, one buffer pool, SQL entry point.

This is the reproduction's "SQL Server instance".  A
:class:`Database` owns a buffer pool (default sized to the paper's 2 GB
nodes), a catalog of tables, optional clustered/hash indexes, and a
``sql()`` method that parses, plans and executes statements.  All I/O
accounting funnels through ``db.pool.counters`` so a
:class:`~repro.engine.stats.TaskTimer` wrapped around any workload
yields the (elapsed, cpu, io) triples of Table 1.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.engine.cache import ResultCache, plan_fingerprint, referenced_tables
from repro.engine.config import DEFAULT_ENGINE_CONFIG, EngineConfig
from repro.engine.index import ClusteredIndex, HashIndex
from repro.engine.matview import MaterializedView
from repro.engine.pages import BufferPool
from repro.engine.schema import Column, TableSchema
from repro.engine.sql.executor import Executor, QueryResult
from repro.engine.sql.parser import parse, parse_script
from repro.engine.stats import IOCounters
from repro.engine.table import Table
from repro.engine.types import ColumnType, infer_type
from repro.errors import EngineError, TableNotFoundError


@dataclass(frozen=True)
class TableFunction:
    """A registered table-valued function.

    ``fn(*scalar_args)`` must return a column batch
    (``dict[str, np.ndarray]``) whose keys match ``columns``.
    """

    name: str
    columns: tuple[str, ...]
    fn: Callable


class Database:
    """A single-node database instance."""

    def __init__(
        self, name: str = "db", *, config: EngineConfig | None = None
    ):
        from repro.engine.parallel import resolve_workers

        if config is None:
            config = DEFAULT_ENGINE_CONFIG

        self.name = name
        #: The full knob set this instance was built with (an
        #: :class:`~repro.engine.config.EngineConfig`).
        self.config = config
        self.optimizer_mode = config.optimizer
        #: Morsel-parallel workers per operator (1 = sequential; output
        #: is byte-identical for any setting).
        self.intra_query_workers = resolve_workers(config.intra_query_workers)
        #: Allow the cost planner to extract BandJoin operators from
        #: range conjuncts (off = nested-loop baseline, for benchmarks).
        self.band_join_enabled = bool(config.band_joins)
        #: Run the logical rewrite pass between parse and plan (the
        #: planner reads this attribute; off restores pre-rewrite plans).
        self.rewrites_enabled = bool(config.rewrites)
        #: Pick per-column page codecs from ANALYZE statistics so rows
        #: pack denser and scans cost fewer logical reads.
        self.page_compression = bool(config.page_compression)
        self.pool = BufferPool(config.pool_pages)
        #: Shared semantic result cache, or None when disabled.
        self.result_cache: ResultCache | None = (
            ResultCache() if config.result_cache else None
        )
        #: Adaptive feedback optimizer (plan memo + q-error loop), or
        #: None when disabled.
        self.feedback = None
        if config.feedback:
            from repro.engine.optimizer.feedback import FeedbackController

            self.feedback = FeedbackController(self, config)
        #: Query Store (workload history + plan forcing), or None when
        #: disabled.  The forcer exists iff the store does.
        self.query_store = None
        self.plan_forcer = None
        if config.query_store:
            from repro.engine.optimizer.planforce import PlanForcer
            from repro.obs.querystore import QueryStore

            self.query_store = QueryStore()
            self.plan_forcer = PlanForcer()
        self._tables: dict[str, Table] = {}
        self._clustered: dict[str, ClusteredIndex] = {}
        self._hash: dict[tuple[str, str], HashIndex] = {}
        self._views: dict[str, object] = {}  # name -> SelectStatement
        self._matviews: dict[str, MaterializedView] = {}
        #: >0 while (re)materializing a view's defining SELECT, so the
        #: planner does not answer the refresh from the view itself.
        self._matview_plan_depth = 0
        self._table_functions: dict[str, TableFunction] = {}
        self._procedures: dict[str, Callable] = {}
        self._executor = Executor(self)

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------
    def _maybe_sync_system_views(self, key: str) -> None:
        """Lazily (re)materialize a Query Store system view on lookup.

        The single ``query_store is None`` check keeps the disabled
        path inside the observer-effect budget.
        """
        if self.query_store is None:
            return
        from repro.obs.querystore import QUERY_STORE_VIEWS

        if key in QUERY_STORE_VIEWS:
            self.query_store.sync_views(self)

    def is_system_table(self, name: str) -> bool:
        """Is this a store-maintained catalog table (DML-guarded)?"""
        if self.query_store is None:
            return False
        from repro.obs.querystore import QUERY_STORE_VIEWS

        return name.lower() in QUERY_STORE_VIEWS

    def has_table(self, name: str) -> bool:
        key = name.lower()
        if key not in self._tables:
            self._maybe_sync_system_views(key)
        return key in self._tables

    def table(self, name: str) -> Table:
        key = name.lower()
        self._maybe_sync_system_views(key)
        try:
            return self._tables[key]
        except KeyError:
            raise TableNotFoundError(
                f"no table '{name}' in database '{self.name}'"
            ) from None

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def create_table_from_schema(self, schema: TableSchema) -> Table:
        key = schema.name.lower()
        if key in self._tables or key in self._views:
            raise EngineError(f"table '{schema.name}' already exists")
        table = Table(schema, self.pool)
        self._tables[key] = table
        return table

    def create_table(
        self,
        name: str,
        columns: dict[str, np.ndarray],
        primary_key: str | None = None,
    ) -> Table:
        """Create a table from column arrays, inferring types."""
        schema = TableSchema(
            name=name,
            columns=tuple(
                Column(col, infer_type(arr)) for col, arr in columns.items()
            ),
            primary_key=primary_key,
        )
        table = self.create_table_from_schema(schema)
        if next(iter(columns.values()), np.empty(0)).__len__():
            table.insert(columns)
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key in self._matviews:
            raise EngineError(
                f"'{name}' is a materialized view; "
                "use DROP MATERIALIZED VIEW"
            )
        self._drop_table_storage(key, name, if_exists)

    def _drop_table_storage(self, key: str, name: str, if_exists: bool) -> None:
        if key not in self._tables:
            if if_exists:
                return
            raise TableNotFoundError(f"no table '{name}' to drop")
        self._tables[key].file.invalidate()
        del self._tables[key]
        self._clustered.pop(key, None)
        for hash_key in [k for k in self._hash if k[0] == key]:
            del self._hash[hash_key]
        self._evict_readers(key)

    # ------------------------------------------------------------------
    # views, table functions, procedures
    # ------------------------------------------------------------------
    def create_view(self, name: str, select_statement) -> None:
        """Register a view over a SELECT (the paper's ``Zone`` view)."""
        key = name.lower()
        if key in self._tables or key in self._views or key in self._matviews:
            raise EngineError(f"name '{name}' already exists")
        # validate eagerly: the view must plan against the current catalog
        from repro.engine.sql.planner import Planner

        Planner(self).plan_select(select_statement)
        self._views[key] = select_statement

    def has_view(self, name: str) -> bool:
        return name.lower() in self._views

    def view(self, name: str):
        try:
            return self._views[name.lower()]
        except KeyError:
            raise TableNotFoundError(f"no view '{name}'") from None

    def drop_view(self, name: str, if_exists: bool = False) -> None:
        if name.lower() not in self._views:
            if if_exists:
                return
            raise TableNotFoundError(f"no view '{name}' to drop")
        del self._views[name.lower()]

    def view_names(self) -> list[str]:
        return sorted(self._views)

    # ------------------------------------------------------------------
    # materialized views
    # ------------------------------------------------------------------
    def has_matview(self, name: str) -> bool:
        return name.lower() in self._matviews

    def matview(self, name: str) -> MaterializedView:
        try:
            return self._matviews[name.lower()]
        except KeyError:
            raise TableNotFoundError(
                f"no materialized view '{name}'"
            ) from None

    def matview_names(self) -> list[str]:
        return sorted(self._matviews)

    @contextmanager
    def _materializing(self):
        """Suspend matview substitution while a defining SELECT runs."""
        self._matview_plan_depth += 1
        try:
            yield
        finally:
            self._matview_plan_depth -= 1

    def create_materialized_view(self, name: str, select_statement):
        """``CREATE MATERIALIZED VIEW name AS SELECT ...``.

        Runs the SELECT once, stores its rows in a regular catalog table
        named after the view (so it counts against MyDB quotas and is
        queryable with plain ``FROM name``), and records the version of
        every source table for staleness tracking.
        """
        from repro.engine.cache import normalize_statement

        key = name.lower()
        if key in self._tables or key in self._views or key in self._matviews:
            raise EngineError(f"name '{name}' already exists")
        sources = referenced_tables(select_statement, self)
        if sources is None:
            raise EngineError(
                f"materialized view '{name}' must read base tables or "
                "views only (no table-valued functions)"
            )
        with self._materializing():
            result = self._executor.execute(select_statement)
        self.create_table(key, {k: np.asarray(v)
                                for k, v in result.columns.items()})
        view = MaterializedView(
            name=key,
            select=select_statement,
            normalized_sql=normalize_statement(select_statement),
            source_tables=frozenset(sources),
            source_versions={
                t: self._tables[t].version for t in sources
            },
        )
        self._matviews[key] = view
        return view

    def refresh_materialized_view(self, name: str) -> int:
        """Re-run a matview's SELECT; returns the new row count."""
        view = self.matview(name)
        with self._materializing():
            result = self._executor.execute(view.select)
        table = self.table(view.name)
        table.truncate()
        if result.row_count:
            table.insert({k: np.asarray(v)
                          for k, v in result.columns.items()})
        self.invalidate_indexes(view.name)
        view.source_versions = {
            t: self._tables[t].version for t in view.source_tables
        }
        view.refresh_count += 1
        return result.row_count

    def drop_materialized_view(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._matviews:
            if if_exists:
                return
            raise TableNotFoundError(
                f"no materialized view '{name}' to drop"
            )
        del self._matviews[key]
        self._drop_table_storage(key, name, if_exists=False)

    def matview_stale(self, name: str) -> bool:
        """Has any source table changed since the last (re)materialize?"""
        view = self.matview(name)
        return view.stale_against(self.table_versions(view.source_tables))

    def matching_matview(self, stmt) -> MaterializedView | None:
        """A *fresh* matview whose definition equals this SELECT, if any.

        Returns None while a matview is being (re)materialized so a
        REFRESH never answers itself from the rows it is rebuilding.
        """
        from repro.engine.cache import normalize_statement
        from repro.engine.sql.ast import SelectStatement
        from repro.obs.metrics import get_metrics

        if not self._matviews or self._matview_plan_depth:
            return None
        if not isinstance(stmt, SelectStatement):
            return None
        normalized = normalize_statement(stmt)
        for view in self._matviews.values():
            if view.normalized_sql != normalized:
                continue
            if view.stale_against(self.table_versions(view.source_tables)):
                get_metrics().counter("engine.matview.stale_skips").inc()
                continue
            get_metrics().counter("engine.matview.substitutions").inc()
            return view
        return None

    def create_table_function(
        self, name: str, columns: tuple[str, ...], fn: Callable
    ) -> TableFunction:
        """Register a table-valued function callable from SQL FROM clauses."""
        key = name.lower()
        if key in self._table_functions:
            raise EngineError(f"table function '{name}' already exists")
        tvf = TableFunction(name=key, columns=tuple(c.lower() for c in columns),
                            fn=fn)
        self._table_functions[key] = tvf
        return tvf

    def table_function(self, name: str) -> TableFunction:
        try:
            return self._table_functions[name.lower()]
        except KeyError:
            raise TableNotFoundError(
                f"no table-valued function '{name}'"
            ) from None

    def create_procedure(self, name: str, fn: Callable) -> None:
        """Register a stored procedure: ``fn(db, *args)``.

        Invoked from SQL with ``EXEC name arg, arg`` — the deployment
        unit of the paper's MaxBCG ("the SQL code ... is deployed on the
        available Data-Grid nodes").
        """
        key = name.lower()
        if key in self._procedures:
            raise EngineError(f"procedure '{name}' already exists")
        self._procedures[key] = fn

    def call_procedure(self, name: str, *args):
        try:
            procedure = self._procedures[name.lower()]
        except KeyError:
            raise TableNotFoundError(f"no procedure '{name}'") from None
        return procedure(self, *args)

    def procedure_names(self) -> list[str]:
        return sorted(self._procedures)

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------
    def create_clustered_index(self, table_name: str, *keys: str) -> ClusteredIndex:
        """Build (or rebuild) the table's clustered index — ``spZone``'s job."""
        table = self.table(table_name)
        index = ClusteredIndex(table, tuple(keys))
        index.build()
        self._clustered[table_name.lower()] = index
        # physical order changed: row-position-based hash indexes are stale
        for hash_key in [k for k in self._hash if k[0] == table_name.lower()]:
            self._hash[hash_key].invalidate()
        return index

    def clustered_index(self, table_name: str) -> ClusteredIndex | None:
        return self._clustered.get(table_name.lower())

    def create_hash_index(self, table_name: str, key: str) -> HashIndex:
        table = self.table(table_name)
        index = HashIndex(table, key)
        index.build()
        self._hash[(table_name.lower(), key.lower())] = index
        return index

    def hash_index(self, table_name: str, key: str) -> HashIndex | None:
        return self._hash.get((table_name.lower(), key.lower()))

    def invalidate_indexes(self, table_name: str) -> None:
        """Mark indexes stale after DML; clustered order survives appends
        only logically — we rebuild lazily by dropping it.

        Also eagerly drops cached results and memoized plans that read
        the table.
        """
        self._clustered.pop(table_name.lower(), None)
        for hash_key in [k for k in self._hash if k[0] == table_name.lower()]:
            self._hash[hash_key].invalidate()
        self._evict_readers(table_name)

    def _evict_readers(self, table_name: str, results: bool = True) -> None:
        """Drop stored entries that read a table: memoized plans, and
        cached results unless ``results`` is False (ANALYZE changes
        plans, never answers).

        Version-keyed lookups would miss them regardless; dropping now
        reclaims the memory and makes the invalidation observable.
        """
        if results and self.result_cache is not None:
            self.result_cache.invalidate_table(table_name)
        if self.feedback is not None:
            self.feedback.memo.invalidate_table(table_name)

    # ------------------------------------------------------------------
    # versions and the result cache
    # ------------------------------------------------------------------
    def table_versions(self, names) -> dict[str, int | None]:
        """Live version counters for the named tables (None = missing)."""
        out: dict[str, int | None] = {}
        for name in names:
            key = name.lower()
            table = self._tables.get(key)
            out[key] = table.version if table is not None else None
        return out

    def _result_versions(self, tables) -> tuple[tuple[str, int], ...]:
        """The result cache's half of its key: sorted (table, version).

        Data versions only: ANALYZE changes plans, never answers, so it
        does not evict cached results.
        """
        return tuple(sorted((t, self._tables[t].version) for t in tables))

    # ------------------------------------------------------------------
    # SQL entry points
    # ------------------------------------------------------------------
    def sql(self, text: str) -> QueryResult:
        """Parse and execute one SQL statement.

        With the result cache, feedback or the Query Store on, the
        statement is keyed once (:func:`repro.engine.cache.plan_fingerprint`)
        and the key is handed down to the executor.  Execution runs
        inside an ``engine.sql`` trace span (a no-op when tracing is
        disabled).  Afterwards one fan-out, in order: the result is
        cached, recorded in the Query Store (cache hits included), and
        — over the slow-query threshold — logged with its SQL text and,
        for SELECTs, the plan that ran.
        """
        import time as _time

        from repro.obs.slowlog import get_slow_log
        from repro.obs.trace import span

        stmt = parse(text)
        cache, store = self.result_cache, self.query_store
        key = self._key(stmt)
        cache_key = hit = None
        if key is not None and cache is not None:
            cache_key = (key[0], self._result_versions(key[2]))
        started = _time.perf_counter()
        cpu_started = _time.thread_time() if store is not None else 0.0
        reads_before = (
            self.pool.counters.logical_reads if store is not None else 0
        )
        if cache_key is not None:
            hit = cache.get(cache_key)
        if hit is not None:
            result = QueryResult(
                columns=hit.columns,
                plan="[answered from cache]\n" + hit.plan
                if hit.plan else "[answered from cache]",
            )
            if store is not None:
                # a cache hit ran no plan: it attaches to the
                # fingerprint's current plan in the store
                store.record(
                    fingerprint=key[0],
                    sql="",
                    elapsed_s=_time.perf_counter() - started,
                    rows=result.row_count,
                    decision="cache-hit",
                    cache_hit=True,
                )
            return result
        with span("engine.sql", layer="engine", counters=self.pool.counters,
                  attrs={"db": self.name, "sql": text.strip()[:200]}):
            result = self._executor.execute(stmt, key)
        elapsed = _time.perf_counter() - started
        if cache_key is not None:
            cache.put(cache_key, result.columns, result.plan, key[2])
        if store is not None and result.fingerprint is not None:
            store.record(
                fingerprint=result.fingerprint,
                sql=text.strip(),
                elapsed_s=elapsed,
                cpu_s=_time.thread_time() - cpu_started,
                rows=result.row_count,
                logical_reads=(
                    self.pool.counters.logical_reads - reads_before
                ),
                plan_text=result.plan,
                plan_signature=self.config.plan_signature(),
                decision=result.memo_decision,
                plan_origin=result.plan_origin,
                plan_node=result.plan_node,
            )
        slow_log = get_slow_log()
        if slow_log.is_slow(elapsed):
            from repro.engine.sql.ast import SelectStatement
            from repro.engine.sql.printer import statement_to_sql

            plan = None
            statement_text = text.strip()
            if isinstance(stmt, SelectStatement):
                # log the plan that ran (forced, memoized or fresh),
                # never a re-plan of the text
                plan = result.plan
                try:
                    statement_text = statement_to_sql(stmt)
                except Exception:  # logging must never fail the query
                    pass
            slow_log.record(statement_text, elapsed, plan=plan,
                            database=self.name,
                            fingerprint=result.fingerprint,
                            memo=result.memo_decision,
                            plan_signature=(
                                self.config.plan_signature()
                                if result.fingerprint is not None else None
                            ),
                            decision=result.plan_origin)
        return result

    def run_script(self, text: str) -> list[QueryResult]:
        """Execute a ';'-separated script, returning per-statement results."""
        return [self._executor.execute(stmt, self._key(stmt))
                for stmt in parse_script(text)]

    def _key(self, stmt) -> tuple[str, str, set[str]] | None:
        """The statement's one ``(fingerprint, sql, tables)`` key, or
        None without keying work when no store is on."""
        if (self.result_cache is None and self.query_store is None
                and self.feedback is None):
            return None
        return plan_fingerprint(stmt, self)

    def explain_analyze(self, text: str, optimizer: str | None = None):
        """Execute a SELECT with per-operator instrumentation.

        Returns an :class:`~repro.engine.instrument.AnalyzeReport` whose
        ``render()`` shows rows/time/I/O and estimated-vs-actual q-error
        per plan node.  ``optimizer`` overrides the database's mode for
        this one statement.
        """
        from repro.engine.instrument import explain_analyze

        return explain_analyze(self, text, optimizer=optimizer)

    def explain(self, text: str, optimizer: str | None = None) -> str:
        """Plan a SELECT and return the operator tree as text."""
        from repro.engine.sql.ast import SelectStatement
        from repro.engine.sql.planner import Planner

        stmt = parse(text)
        if not isinstance(stmt, SelectStatement):
            raise EngineError("EXPLAIN supports SELECT statements only")
        plan_text = Planner(self, optimizer).plan_select(stmt).explain()
        cache = self.result_cache
        if cache is not None and optimizer in (None, self.optimizer_mode):
            key = plan_fingerprint(stmt, self)
            if key is not None and cache.peek(
                (key[0], self._result_versions(key[2]))
            ) is not None:
                return "[answered from cache]\n" + plan_text
        return plan_text

    # ------------------------------------------------------------------
    # query store and plan forcing
    # ------------------------------------------------------------------
    def statement_key(self, text: str) -> str | None:
        """The fingerprint one query text is keyed under, or None.

        The join key across the Query Store, the plan memo, the
        feedback store and the slow-query log.
        """
        key = plan_fingerprint(parse(text), self)
        return key[0] if key is not None else None

    def force_plan(self, fingerprint: str, plan_id: int):
        """Pin a fingerprint to a plan from its Query Store history.

        Every execution of the fingerprint runs the pinned plan,
        bypassing the plan memo and the feedback loop, until
        :meth:`unforce_plan`.  Survives restarts via ``save_database``:
        a restored pin is re-established by structural signature on the
        fingerprint's next execution.
        """
        if self.query_store is None:
            raise EngineError(
                "plan forcing requires EngineConfig(query_store=True)"
            )
        plan = self.query_store.plan(plan_id)
        if plan is None:
            raise EngineError(f"query store has no plan {plan_id}")
        if plan.fingerprint != fingerprint:
            raise EngineError(
                f"plan {plan_id} belongs to fingerprint "
                f"'{plan.fingerprint[:12]}', not '{fingerprint[:12]}'"
            )
        entry = self.plan_forcer.force(
            fingerprint=fingerprint,
            plan_id=plan_id,
            structure=plan.structure,
            plan_text=plan.plan_text,
            plan_signature=plan.plan_signature,
            node=plan.node,
        )
        if self.feedback is not None:
            self.feedback.memo.invalidate_fingerprint(fingerprint)
        return entry

    def unforce_plan(self, fingerprint: str) -> bool:
        """Remove a pin; returns whether one existed."""
        if self.plan_forcer is None:
            raise EngineError(
                "plan forcing requires EngineConfig(query_store=True)"
            )
        removed = self.plan_forcer.unforce(fingerprint)
        if removed is not None and self.feedback is not None:
            # the pinned plan may be memoized stale; force a re-plan
            self.feedback.memo.invalidate_fingerprint(fingerprint)
        return removed is not None

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def analyze(self, table_name: str | None = None) -> list[str]:
        """Collect optimizer statistics (``ANALYZE [table]`` in SQL).

        Builds row counts, per-column NDV/min/max/null-fraction and
        equi-depth histograms for one table — or, with no argument, for
        every table in the catalog — and attaches them as
        ``table.stats``.  Returns the names of the analyzed tables.
        """
        from repro.engine.optimizer.statistics import build_table_stats

        if table_name is not None:
            names = [self.table(table_name).name]
        else:
            names = self.table_names()
        for name in names:
            table = self.table(name)
            table.stats = build_table_stats(table)
            # statistics generation moved: any plan chosen under the old
            # stats must miss the memo and re-plan, even though the data
            # (table.version) has not changed
            table.stats_version += 1
            if self.page_compression:
                from repro.engine.pages import choose_codecs

                table.apply_compression(
                    choose_codecs(table.stats, table.schema)
                )
            self._evict_readers(name, results=False)
        return [n.lower() for n in names]

    # ------------------------------------------------------------------
    @property
    def io_counters(self) -> IOCounters:
        return self.pool.counters

    def stats_summary(self) -> dict[str, int]:
        """Totals for reports: tables, rows, pages, I/O counters."""
        summary = {
            "tables": len(self._tables),
            "rows": sum(t.row_count for t in self._tables.values()),
            "pages": sum(t.page_count for t in self._tables.values()),
            "logical_reads": self.pool.counters.logical_reads,
            "physical_reads": self.pool.counters.physical_reads,
            "writes": self.pool.counters.writes,
            "matviews": len(self._matviews),
        }
        if self.result_cache is not None:
            for key, value in self.result_cache.summary().items():
                summary[f"cache_{key}"] = value
        if self.query_store is not None:
            for key, value in self.query_store.summary().items():
                summary[f"querystore_{key}"] = value
        return summary
