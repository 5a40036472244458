"""EngineConfig: one object for every engine knob.

Every knob a :class:`~repro.engine.database.Database` takes lives in a
single frozen dataclass that the cluster, CasJobs and CLI layers pass
through whole instead of re-plumbing each knob; the constructor takes
only a name and the config::

    db = Database("dr1", config=EngineConfig(optimizer="cost",
                                             result_cache=True))
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.engine.pages import DEFAULT_POOL_PAGES
from repro.errors import EngineError

#: Recognized planner modes (mirrors the planner's OPTIMIZER_MODES;
#: duplicated here to avoid importing the SQL layer at config time).
_OPTIMIZER_MODES = ("cost", "syntactic")

#: Default q-error ceiling before the feedback loop reacts: one node
#: more than 8x off (in either direction) triggers targeted re-ANALYZE
#: plus learned selectivity overrides and a re-plan.
DEFAULT_QERROR_CEILING = 8.0


@dataclass(frozen=True)
class EngineConfig:
    """Every knob a :class:`~repro.engine.database.Database` takes.

    Attributes
    ----------
    pool_pages:
        Buffer-pool size in 8 KiB pages (default sized to the paper's
        2 GB nodes).
    optimizer:
        Planner mode, ``"cost"`` (statistics-driven) or ``"syntactic"``.
    intra_query_workers:
        Morsel-parallel workers per operator (1 = sequential; output is
        byte-identical at any setting).
    band_joins:
        Allow the cost planner to extract BandJoin operators from range
        conjuncts.
    rewrites:
        Run the rule-driven logical rewrite pass between parse and
        plan (predicate pushdown into derived tables/views/CTEs,
        constant folding, IN/EXISTS decorrelation, redundant-join
        elimination, ...).  On by default; ``rewrites=False`` restores
        the exact pre-rewrite plans.
    page_compression:
        Choose a per-column page codec (dictionary encoding for
        low-NDV columns, run-length encoding for sorted/clustered
        ones) from ANALYZE statistics, packing more rows per 8 KiB
        page so hot working sets cost fewer logical reads.  On by
        default; takes effect at ANALYZE time.
    result_cache:
        Enable the shared semantic result cache: SELECTs are answered
        from a prior identical statement's result when every referenced
        table is unchanged since it was stored.  Off by default — the
        CasJobs service and the CLI turn it on for shared catalogs.
    feedback:
        Enable the adaptive feedback optimizer: chosen plans are
        memoized per statement fingerprint (repeat executions skip
        planning), per-operator actuals are folded back after every
        execution, and a fingerprint whose max q-error exceeds
        ``qerror_ceiling`` triggers targeted re-ANALYZE, learned
        selectivity overrides and a re-plan.  Off by default.
    qerror_ceiling:
        Max per-operator q-error tolerated before the feedback loop
        reacts.  Must be > 1 (a ceiling of 1 would re-plan every
        imperfect estimate forever).
    query_store:
        Enable the Query Store: per-fingerprint runtime-stat intervals,
        full plan history, plan-regression detection and plan forcing,
        exposed as ``sys_query_store_*`` catalog tables and persisted
        by ``save_database``.  Off by default.

    The stores' bounds (cache bytes/entries, memo entries, Query Store
    interval and tracked queries) are the defaults of
    :class:`~repro.engine.cache.ResultCache`,
    :class:`~repro.engine.memo.PlanMemo` and
    :class:`~repro.obs.querystore.QueryStore`.
    """

    pool_pages: int = DEFAULT_POOL_PAGES
    optimizer: str = "cost"
    intra_query_workers: int = 1
    band_joins: bool = True
    rewrites: bool = True
    page_compression: bool = True
    result_cache: bool = False
    feedback: bool = False
    qerror_ceiling: float = DEFAULT_QERROR_CEILING
    query_store: bool = False

    def __post_init__(self) -> None:
        if self.optimizer not in _OPTIMIZER_MODES:
            raise EngineError(
                f"unknown optimizer mode '{self.optimizer}'; "
                f"expected one of {_OPTIMIZER_MODES}"
            )
        if self.pool_pages <= 0:
            raise EngineError("pool_pages must be positive")
        if self.qerror_ceiling <= 1.0:
            raise EngineError("qerror_ceiling must be > 1")

    def replace(self, **changes) -> "EngineConfig":
        """A copy with the given fields changed (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    def plan_signature(self) -> str:
        """The planning-relevant knob set, as a stable string.

        Recorded with every plan in the Query Store and the slow-query
        log, so a plan is always read next to the knobs that shaped it.
        """
        return (
            f"optimizer={self.optimizer}"
            f",band_joins={int(self.band_joins)}"
            f",rewrites={int(self.rewrites)}"
            f",workers={self.intra_query_workers}"
            f",pages={int(self.page_compression)}"
        )


#: The all-defaults configuration, shared where no knob is overridden.
DEFAULT_ENGINE_CONFIG = EngineConfig()
