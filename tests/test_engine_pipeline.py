"""One SELECT pipeline: each statement keyed once, one plan chain.

``Database.sql`` fingerprints a statement at most once — and only when
the result cache, feedback or the Query Store is on — and hands the
key down to the executor, which resolves the plan forced → memo →
planner.  These tests pin the keying work per statement and that the
key travels as a value, so concurrent statements on one database never
see each other's keys.
"""

import sys
import threading

import numpy as np
import pytest

import repro.engine.optimizer.rewrite as rewrite
from repro.engine.config import EngineConfig
from repro.engine.database import Database

ALL_STORES = dict(result_cache=True, feedback=True, query_store=True)


def make_db(**knobs) -> Database:
    db = Database("pipeline", config=EngineConfig(**knobs))
    rng = np.random.default_rng(3)
    db.create_table(
        "t",
        {"id": np.arange(1000, dtype=np.int64),
         "x": rng.uniform(0.0, 1.0, 1000),
         "g": (np.arange(1000) % 7).astype(np.int64)},
        primary_key="id",
    )
    db.create_table(
        "u",
        {"g": np.arange(7, dtype=np.int64),
         "w": rng.uniform(0.0, 1.0, 7)},
    )
    db.create_table(
        "sink",
        {"id": np.arange(5, dtype=np.int64),
         "v": np.zeros(5)},
    )
    db.sql("ANALYZE")
    return db


@pytest.fixture()
def rewrite_calls(monkeypatch):
    """Count rewrite passes, recording each call's ``price`` flag."""
    calls = []
    real = rewrite.rewrite_statement

    def counting(*args, **kwargs):
        calls.append(kwargs.get("price", True))
        return real(*args, **kwargs)

    monkeypatch.setattr(rewrite, "rewrite_statement", counting)
    return calls


SELECT = "SELECT id, x FROM t WHERE x > 0.25 AND g = 3 LIMIT 10"


class TestKeyOnce:
    def test_all_stores_rewrite_twice(self, rewrite_calls):
        # one unpriced fingerprint pass shared by all three stores, plus
        # the planner's priced pass
        db = make_db(**ALL_STORES)
        result = db.sql(SELECT)
        assert result.memo_decision == "miss"
        assert sorted(rewrite_calls) == [False, True]

    def test_no_store_rewrites_once(self, rewrite_calls):
        db = make_db()
        result = db.sql(SELECT)
        assert result.fingerprint is None
        assert rewrite_calls == [True]  # the planner's pass, no keying

    @pytest.mark.parametrize("store", ["result_cache", "feedback",
                                       "query_store"])
    def test_each_store_alone_rewrites_twice(self, rewrite_calls, store):
        db = make_db(**{store: True})
        db.sql(SELECT)
        assert sorted(rewrite_calls) == [False, True]

    def test_hits_only_key(self, rewrite_calls):
        # a memo hit and a cache hit each cost the one keying pass
        memo_db = make_db(feedback=True)
        memo_db.sql(SELECT)
        rewrite_calls.clear()
        assert memo_db.sql(SELECT).memo_decision == "hit"
        assert rewrite_calls == [False]
        cache_db = make_db(result_cache=True)
        cache_db.sql(SELECT)
        rewrite_calls.clear()
        assert cache_db.sql(SELECT).plan.startswith("[answered from cache]")
        assert rewrite_calls == [False]

    def test_store_alone_reports_optimizer_mode(self):
        result = make_db(query_store=True).sql(SELECT)
        assert result.fingerprint is not None
        assert result.memo_decision == result.plan_origin == "cost"

    def test_cache_alone_reports_no_fingerprint(self):
        result = make_db(result_cache=True).sql(SELECT)
        assert result.fingerprint is None
        assert result.memo_decision is None

    def test_memo_keyed_on_fingerprint(self):
        db = make_db(feedback=True)
        result = db.sql(SELECT)
        (entry,) = db.feedback.memo.entries()
        assert entry.key == result.fingerprint


def statements(thread: int, n: int) -> list[str]:
    """A mixed SELECT/INSERT stream; SELECT literals repeat across
    threads so cache and memo hits interleave with misses."""
    out = []
    for i in range(n):
        if i % 5 == 4:
            row = 1000 + thread * n + i
            out.append(f"INSERT INTO sink VALUES ({row}, {i}.5)")
        elif i % 5 == 3:
            out.append(
                f"SELECT t.g AS g, COUNT(*) AS n, SUM(u.w) AS w FROM t "
                f"JOIN u ON t.g = u.g WHERE t.x < {(i % 4 + 1) / 5} "
                f"GROUP BY t.g ORDER BY t.g"
            )
        else:
            out.append(
                f"SELECT id, x FROM t WHERE x > {(i % 7) / 10} "
                f"AND g = {(thread + i) % 7} ORDER BY id LIMIT 10"
            )
    return out


def test_concurrent_statements_answer_like_a_plain_database():
    """4 threads x 50 mixed statements on one all-stores-on database:
    every SELECT answers exactly what a plain database answers."""
    db = make_db(**ALL_STORES)
    plain = make_db()
    streams = [statements(thread, 50) for thread in range(4)]
    expected = {
        sql: plain.sql(sql).columns
        for stream in streams for sql in stream
        if sql.startswith("SELECT")
    }
    failures: list[str] = []
    barrier = threading.Barrier(len(streams))

    def worker(stream):
        barrier.wait()
        for sql in stream:
            try:
                result = db.sql(sql)
            except Exception as exc:  # surfaced below, with the statement
                failures.append(f"{sql}: {exc!r}")
                continue
            if not sql.startswith("SELECT"):
                continue
            want = expected[sql]
            got = result.columns
            if list(got) != list(want) or not all(
                np.array_equal(got[name], want[name]) for name in want
            ):
                failures.append(f"wrong answer: {sql}")

    threads = [threading.Thread(target=worker, args=(stream,))
               for stream in streams]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: widen any race
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
