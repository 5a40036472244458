"""Paged storage, buffer-pool accounting and per-column page compression."""

import numpy as np
import pytest

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.pages import (
    PAGE_BYTES,
    BufferPool,
    ColumnCodec,
    CompressionPlan,
    PagedFile,
    PageId,
    choose_codecs,
    dict_decode,
    dict_encode,
    rle_decode,
    rle_encode,
)
from repro.errors import EngineError


class TestBufferPool:
    def test_miss_then_hit(self):
        pool = BufferPool(capacity_pages=10)
        page = PageId(0, 0)
        assert pool.access(page) is False  # cold: physical read
        assert pool.access(page) is True  # warm: hit
        assert pool.counters.logical_reads == 2
        assert pool.counters.physical_reads == 1

    def test_lru_eviction(self):
        pool = BufferPool(capacity_pages=2)
        a, b, c = PageId(0, 0), PageId(0, 1), PageId(0, 2)
        pool.access(a)
        pool.access(b)
        pool.access(c)  # evicts a
        assert pool.access(a) is False  # a was evicted
        assert pool.counters.physical_reads == 4

    def test_access_refreshes_lru(self):
        pool = BufferPool(capacity_pages=2)
        a, b, c = PageId(0, 0), PageId(0, 1), PageId(0, 2)
        pool.access(a)
        pool.access(b)
        pool.access(a)  # a is now most recent
        pool.access(c)  # evicts b, not a
        assert pool.access(a) is True

    def test_write_counts(self):
        pool = BufferPool(10)
        pool.write(PageId(0, 0))
        assert pool.counters.writes == 1
        assert pool.access(PageId(0, 0)) is True  # write made it resident

    def test_evict_file(self):
        pool = BufferPool(10)
        pool.access(PageId(1, 0))
        pool.access(PageId(2, 0))
        pool.evict_file(1)
        assert pool.access(PageId(1, 0)) is False
        assert pool.access(PageId(2, 0)) is True

    def test_zero_capacity_rejected(self):
        with pytest.raises(EngineError):
            BufferPool(0)


class TestPagedFile:
    def test_rows_per_page_from_row_width(self):
        pool = BufferPool(100)
        f = PagedFile(pool, row_byte_width=44)  # the paper's galaxy rows
        assert f.rows_per_page == PAGE_BYTES // 44  # 186

    def test_unique_file_ids(self):
        pool = BufferPool(100)
        a, b = PagedFile(pool, 8), PagedFile(pool, 8)
        assert a.file_id != b.file_id

    def test_page_count(self):
        pool = BufferPool(100)
        f = PagedFile(pool, 8192)  # 1 row per page
        assert f.page_count(0) == 0
        assert f.page_count(1) == 1
        assert f.page_count(5) == 5

    def test_read_range_touches_each_page_once(self):
        pool = BufferPool(100)
        f = PagedFile(pool, 8192 // 4)  # 4 rows/page
        pages = f.read_range(0, 10)  # rows 0..9 -> pages 0,1,2
        assert pages == 3
        assert pool.counters.logical_reads == 3

    def test_read_range_empty(self):
        pool = BufferPool(100)
        f = PagedFile(pool, 8)
        assert f.read_range(5, 5) == 0
        assert pool.counters.logical_reads == 0

    def test_write_range(self):
        pool = BufferPool(100)
        f = PagedFile(pool, 8192)
        assert f.write_range(0, 3) == 3
        assert pool.counters.writes == 3

    def test_invalidate(self):
        pool = BufferPool(100)
        f = PagedFile(pool, 8192)
        f.read_range(0, 2)
        f.invalidate()
        assert pool.access(PageId(f.file_id, 0)) is False

    def test_bad_row_width(self):
        with pytest.raises(EngineError):
            PagedFile(BufferPool(1), 0)


class TestIOCounters:
    def test_snapshot_and_since(self):
        pool = BufferPool(10)
        pool.access(PageId(0, 0))
        before = pool.counters.snapshot()
        pool.access(PageId(0, 0))
        pool.write(PageId(0, 1))
        delta = pool.counters.since(before)
        assert delta.logical_reads == 1
        assert delta.physical_reads == 0
        assert delta.writes == 1
        assert delta.total == 2


def identical(a, b) -> bool:
    """Bit-for-bit array equality (NaNs equal; dtype kind must agree)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype.kind == b.dtype.kind and np.array_equal(
        a, b, equal_nan=(a.dtype.kind == "f")
    )


def build_db(n: int = 4000, **config_kwargs) -> Database:
    db = Database("pagetest", config=EngineConfig(**config_kwargs))
    rng = np.random.default_rng(42)
    zone = np.sort(rng.integers(0, 25, n))
    g = rng.uniform(14, 24, n)
    g[rng.random(n) < 0.05] = np.nan
    db.create_table("galaxy", {
        "objid": np.arange(n, dtype=np.int64),
        "zoneid": zone,
        "ra": np.sort(rng.uniform(0.0, 360.0, n)),
        "g": g,
        "i": rng.uniform(13, 23, n),
    }, primary_key="objid")
    db.sql("ANALYZE")
    return db


SCAN_SQL = (
    "SELECT objid, g - i AS band, (g - i) * (g - i) AS chi "
    "FROM galaxy WHERE g - i > 0.4 AND zoneid < 18 AND ra < 300.0 "
    "ORDER BY objid"
)


# ---------------------------------------------------------------------------
# page compression
# ---------------------------------------------------------------------------
class TestCodecs:
    def test_dict_round_trip_int(self):
        values = np.array([3, 1, 3, 3, 2, 1], dtype=np.int64)
        codes, dictionary = dict_encode(values)
        assert dictionary.size == 3
        assert identical(dict_decode(codes, dictionary), values)

    def test_dict_round_trip_float_with_nans(self):
        values = np.array([1.5, np.nan, 1.5, np.nan, 2.5])
        codes, dictionary = dict_encode(values)
        assert dictionary.size == 3  # one shared NaN slot
        assert identical(dict_decode(codes, dictionary), values)

    def test_dict_round_trip_strings(self):
        values = np.array(["u", "g", "u", "r"], dtype=object)
        codes, dictionary = dict_encode(values)
        assert list(dict_decode(codes, dictionary)) == list(values)

    def test_rle_round_trip(self):
        values = np.repeat(np.array([5, 7, 5, 9], dtype=np.int64),
                           [3, 1, 4, 2])
        run_values, run_lengths = rle_encode(values)
        assert run_lengths.tolist() == [3, 1, 4, 2]
        assert identical(rle_decode(run_values, run_lengths), values)

    def test_rle_coalesces_adjacent_nans(self):
        values = np.array([1.0, np.nan, np.nan, 2.0])
        run_values, run_lengths = rle_encode(values)
        assert run_lengths.tolist() == [1, 2, 1]
        assert identical(rle_decode(run_values, run_lengths), values)

    def test_rle_empty(self):
        run_values, run_lengths = rle_encode(np.zeros(0))
        assert run_values.size == 0 and run_lengths.size == 0


class TestCodecChoice:
    def test_low_ndv_takes_dict_clustered_takes_rle(self):
        db = build_db()
        plan = db.table("galaxy").compression
        assert plan is not None
        by_kind = {c.column: c.kind for c in plan.codecs}
        # zoneid: 25 distinct values, sorted -> runs beat even dict codes
        assert by_kind["zoneid"] in ("dict", "rle")
        assert by_kind["zoneid"] != "raw"
        # ra: all-distinct float, unsorted runs -> stays raw
        assert by_kind["ra"] == "raw"
        assert plan.row_bytes < db.table("galaxy").schema.row_byte_width
        assert plan.describe()  # non-empty summary

    def test_incompressible_table_gets_no_plan(self):
        db = Database("raw", config=EngineConfig())
        rng = np.random.default_rng(3)
        db.create_table("noise", {"x": rng.uniform(0, 1, 500),
                                  "y": rng.uniform(0, 1, 500)})
        db.sql("ANALYZE")
        assert db.table("noise").compression is None
        width = db.table("noise").schema.row_byte_width
        assert db.table("noise").file.rows_per_page == \
            max(1, PAGE_BYTES // width)

    def test_page_compression_off_leaves_raw_layout(self):
        db = build_db(page_compression=False)
        table = db.table("galaxy")
        assert table.compression is None
        assert table.file.rows_per_page == \
            max(1, PAGE_BYTES // table.schema.row_byte_width)

    def test_logical_reads_drop_with_compression(self):
        on, off = build_db(), build_db(page_compression=False)
        start_on = on.io_counters.logical_reads
        start_off = off.io_counters.logical_reads
        a = on.sql(SCAN_SQL)
        b = off.sql(SCAN_SQL)
        assert a.row_count == b.row_count > 0
        for key in a.columns:
            assert identical(a.columns[key], b.columns[key])
        assert (on.io_counters.logical_reads - start_on) \
            < (off.io_counters.logical_reads - start_off)

    def test_compression_reacts_to_reanalyze(self):
        db = build_db()
        dense = db.table("galaxy").file.rows_per_page
        raw = max(1, PAGE_BYTES // db.table("galaxy").schema.row_byte_width)
        assert dense > raw
        db.page_compression = False
        db.table("galaxy").apply_compression(None)
        assert db.table("galaxy").file.rows_per_page == raw


class TestCompressionPersistence:
    def test_storage_round_trip(self, tmp_path):
        from repro.engine.storage import load_database, save_database

        db = build_db()
        save_database(db, tmp_path)
        restored = load_database(tmp_path)
        src, dst = db.table("galaxy"), restored.table("galaxy")
        assert dst.compression is not None
        assert dst.compression == src.compression
        assert dst.file.rows_per_page == src.file.rows_per_page
        # restored stats keep the run counts the codec choice needs
        assert dst.stats.column("zoneid").n_runs == \
            src.stats.column("zoneid").n_runs

    def test_stats_json_backward_compat(self):
        from repro.engine.optimizer.statistics import (
            stats_from_json,
            stats_to_json,
        )

        db = build_db()
        payload = stats_to_json(db.table("galaxy").stats)
        for column in payload["columns"].values():
            column.pop("n_runs")  # a pre-compression stats file
        legacy = stats_from_json(payload)
        assert legacy.column("zoneid").n_runs is None
        # choosing codecs from legacy stats must not crash: RLE simply
        # never wins without run counts
        plan = choose_codecs(legacy, db.table("galaxy").schema)
        if plan is not None:
            assert all(c.kind != "rle" for c in plan.codecs)

    def test_plan_row_bytes_and_lookup(self):
        plan = CompressionPlan(codecs=(
            ColumnCodec("zoneid", "dict", 1.1),
            ColumnCodec("ra", "raw", 8.0),
        ))
        assert plan.row_bytes == pytest.approx(9.1)
        assert plan.codec_for("ZONEID").kind == "dict"
        assert plan.codec_for("missing") is None
        assert plan.compressed_columns == ("zoneid",)


def test_n_runs_counts_physical_runs():
    from repro.engine.optimizer.statistics import count_runs

    assert count_runs(np.array([1, 1, 2, 2, 2, 1])) == 3
    assert count_runs(np.array([np.nan, np.nan, 1.0])) == 2
    assert count_runs(np.array(["a", "a", "b"], dtype=object)) == 2
    assert count_runs(np.zeros(0)) == 0
    assert count_runs(np.array([7])) == 1
