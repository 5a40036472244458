"""Expression trees: evaluation, name resolution, functions.

Numeric literals (and function calls over numeric literals only)
evaluate as 0-d scalars inside operators and function calls.  The
seeded random trees below pin that to *byte identity* — values, dtype
and NaN positions — with a reference that binds every literal as a
full-length column.
"""

import numpy as np
import pytest

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.expressions import (
    Between,
    BinaryOp,
    Case,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    Literal,
    UnaryOp,
    and_,
    batch_length,
    col,
    isin_fast,
    lit,
)
from repro.errors import ColumnNotFoundError, SqlPlanError


@pytest.fixture()
def batch():
    return {
        "g.i": np.array([17.0, 18.0, 19.0]),
        "g.gr": np.array([0.8, 1.0, 1.2]),
        "k.z": np.array([0.1, 0.2, 0.3]),
    }


class TestResolution:
    def test_qualified(self, batch):
        assert np.allclose(col("i", "g").eval(batch), [17, 18, 19])

    def test_bare_unique(self, batch):
        assert np.allclose(col("z").eval(batch), [0.1, 0.2, 0.3])

    def test_unknown(self, batch):
        with pytest.raises(ColumnNotFoundError):
            col("nope").eval(batch)

    def test_unknown_qualifier(self, batch):
        with pytest.raises(ColumnNotFoundError):
            col("i", "x").eval(batch)

    def test_ambiguous(self):
        batch = {"a.x": np.zeros(2), "b.x": np.zeros(2)}
        with pytest.raises(SqlPlanError):
            col("x").eval(batch)


class TestOperators:
    def test_arithmetic(self, batch):
        expr = BinaryOp("+", col("i", "g"), lit(1.0))
        assert np.allclose(expr.eval(batch), [18, 19, 20])
        expr = BinaryOp("*", col("i", "g"), lit(2))
        assert np.allclose(expr.eval(batch), [34, 36, 38])

    def test_division_by_zero_gives_inf(self, batch):
        expr = BinaryOp("/", lit(1.0), lit(0.0))
        out = expr.eval(batch)
        assert np.all(np.isinf(out))

    def test_modulo(self, batch):
        expr = BinaryOp("%", col("i", "g"), lit(5.0))
        assert np.allclose(expr.eval(batch), [2.0, 3.0, 4.0])

    def test_comparisons(self, batch):
        expr = BinaryOp(">", col("i", "g"), lit(17.5))
        assert expr.eval(batch).tolist() == [False, True, True]

    def test_and_or(self, batch):
        gt = BinaryOp(">", col("i", "g"), lit(17.5))
        lt = BinaryOp("<", col("i", "g"), lit(18.5))
        assert BinaryOp("AND", gt, lt).eval(batch).tolist() == [False, True, False]
        assert BinaryOp("OR", gt, lt).eval(batch).tolist() == [True, True, True]

    def test_and_short_circuits_on_all_false(self, batch):
        # the right side would raise if evaluated
        never = BinaryOp(">", col("i", "g"), lit(100.0))
        boom = col("missing")
        assert BinaryOp("AND", never, boom).eval(batch).tolist() == [False] * 3

    def test_not_and_negate(self, batch):
        expr = UnaryOp("NOT", BinaryOp(">", col("i", "g"), lit(17.5)))
        assert expr.eval(batch).tolist() == [True, False, False]
        assert np.allclose(UnaryOp("-", lit(3)).eval(batch), -3)

    def test_unknown_op(self, batch):
        with pytest.raises(SqlPlanError):
            BinaryOp("**", lit(1), lit(2)).eval(batch)


class TestCompound:
    def test_between_inclusive(self, batch):
        expr = Between(col("i", "g"), lit(17.0), lit(18.0))
        assert expr.eval(batch).tolist() == [True, True, False]

    def test_in_list(self, batch):
        expr = InList(col("i", "g"), (lit(17.0), lit(19.0)))
        assert expr.eval(batch).tolist() == [True, False, True]

    def test_case(self, batch):
        expr = Case(
            whens=((BinaryOp(">", col("i", "g"), lit(18.5)), lit(1.0)),),
            default=lit(0.0),
        )
        assert expr.eval(batch).tolist() == [0.0, 0.0, 1.0]

    def test_case_first_match_wins(self, batch):
        expr = Case(
            whens=(
                (BinaryOp(">", col("i", "g"), lit(16.0)), lit(1.0)),
                (BinaryOp(">", col("i", "g"), lit(18.0)), lit(2.0)),
            ),
            default=lit(0.0),
        )
        assert expr.eval(batch).tolist() == [1.0, 1.0, 1.0]

    def test_case_without_default_gives_nan(self, batch):
        expr = Case(whens=((BinaryOp(">", col("i", "g"), lit(18.5)), lit(1.0)),))
        out = expr.eval(batch)
        assert np.isnan(out[0]) and out[2] == 1.0


class TestFunctions:
    def test_power_sqrt_log(self, batch):
        assert np.allclose(
            FuncCall("power", (lit(2.0), lit(10))).eval(batch), 1024.0
        )
        assert np.allclose(FuncCall("sqrt", (lit(9.0),)).eval(batch), 3.0)
        assert np.allclose(FuncCall("log", (lit(np.e),)).eval(batch), 1.0)

    def test_trig_and_pi(self, batch):
        assert np.allclose(FuncCall("pi", ()).eval(batch), np.pi)
        assert np.allclose(
            FuncCall("sin", (FuncCall("radians", (lit(90.0),)),)).eval(batch), 1.0
        )

    def test_floor(self, batch):
        assert np.allclose(FuncCall("floor", (lit(2.7),)).eval(batch), 2.0)

    def test_unknown_function(self, batch):
        with pytest.raises(SqlPlanError):
            FuncCall("frobnicate", ()).eval(batch)

    def test_wrong_arity(self, batch):
        with pytest.raises(SqlPlanError):
            FuncCall("sqrt", (lit(1), lit(2))).eval(batch)


class TestTreeUtilities:
    def test_column_refs_collects_all(self):
        expr = and_(
            Between(col("ra"), lit(0), lit(1)),
            BinaryOp("=", col("z", "k"), col("z", "c")),
        )
        refs = expr.column_refs()
        names = {(r.qualifier, r.name) for r in refs}
        assert names == {(None, "ra"), ("k", "z"), ("c", "z")}

    def test_literal_broadcast(self, batch):
        assert lit(5).eval(batch).shape == (3,)

    def test_frozen_equality(self):
        assert col("a") == ColumnRef("a")
        assert lit(1) == Literal(1)


def identical(a, b) -> bool:
    """Bit-for-bit equality: same dtype, same values, NaNs in the same
    positions."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a, b, equal_nan=(a.dtype.kind == "f")
    )


class Probe(Expr):
    """Wraps an expression and records the batch sizes it evaluates over
    — the observable form of AND skipping its right side and of CASE's
    branch narrowing."""

    def __init__(self, inner: Expr):
        self.inner = inner
        self.sizes: list[int] = []

    def children(self):
        return (self.inner,)

    def eval(self, batch):
        self.sizes.append(batch_length(batch))
        return self.inner.eval(batch)

    def __str__(self):
        return str(self.inner)


# ---------------------------------------------------------------------------
# seeded random trees: scalar literals vs literals bound as full columns
# ---------------------------------------------------------------------------
FLOAT_COLS = ("a", "b", "c")
INT_COLS = ("m", "k")
NUMERIC_COLS = FLOAT_COLS + INT_COLS


def random_literal(rng) -> Literal:
    """An int or a float literal (zeros included: division fodder)."""
    roll = rng.random()
    if roll < 0.15:
        return lit(0 if rng.random() < 0.5 else 0.0)
    if roll < 0.5:
        return lit(int(rng.integers(-4, 5)))
    return lit(float(rng.uniform(-5, 5)))


def random_numeric(rng, depth: int) -> Expr:
    """A random numeric-valued expression tree."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return col(str(rng.choice(NUMERIC_COLS)))
        return random_literal(rng)
    roll = rng.random()
    if roll < 0.5:
        op = str(rng.choice(["+", "-", "*", "/", "%"]))
        return BinaryOp(op, random_numeric(rng, depth - 1),
                        random_numeric(rng, depth - 1))
    if roll < 0.6:
        return UnaryOp("-", random_numeric(rng, depth - 1))
    if roll < 0.75:
        fn = str(rng.choice(["abs", "sqrt", "floor"]))
        return FuncCall(fn, (random_numeric(rng, depth - 1),))
    if roll < 0.85:
        # literal-only calls: evaluated once, used as a scalar
        if rng.random() < 0.5:
            return FuncCall("power", (random_literal(rng), lit(2)))
        return FuncCall(str(rng.choice(["abs", "sqrt", "floor"])),
                        (random_literal(rng),))
    return Case(
        whens=((random_bool(rng, depth - 1), random_numeric(rng, depth - 1)),),
        default=random_numeric(rng, depth - 1),
    )


def random_bool(rng, depth: int) -> Expr:
    """A random boolean-valued expression tree."""
    if depth <= 0 or rng.random() < 0.4:
        op = str(rng.choice(["<", "<=", ">", ">=", "=", "!="]))
        if rng.random() < 0.15:  # literal-only comparison
            return BinaryOp(op, random_literal(rng), random_literal(rng))
        return BinaryOp(op, random_numeric(rng, 1), random_numeric(rng, 1))
    roll = rng.random()
    if roll < 0.35:
        op = str(rng.choice(["AND", "OR"]))
        return BinaryOp(op, random_bool(rng, depth - 1),
                        random_bool(rng, depth - 1))
    if roll < 0.5:
        return UnaryOp("NOT", random_bool(rng, depth - 1))
    if roll < 0.7:
        return Between(random_numeric(rng, depth - 1),
                       random_numeric(rng, 1), random_numeric(rng, 1))
    if roll < 0.85:
        options = tuple(lit(float(v)) for v in rng.integers(-3, 4, 3))
        return InList(random_numeric(rng, depth - 1), options)
    return BinaryOp(str(rng.choice(["<", ">"])),
                    random_numeric(rng, depth - 1),
                    random_numeric(rng, depth - 1))


def random_batch(rng, n: int) -> dict:
    """Float columns salted with NaNs and zeros, int columns with zeros."""
    batch = {}
    for name in FLOAT_COLS:
        values = rng.uniform(-10, 10, n)
        values[rng.random(n) < 0.15] = np.nan
        values[rng.random(n) < 0.1] = 0.0
        batch[name] = values
    for name in INT_COLS:
        batch[name] = rng.integers(-6, 7, n).astype(np.int64)
    return batch


def bind_literals(expr: Expr, batch: dict) -> Expr:
    """The reference tree: every numeric literal becomes a reference to a
    full-length column added to ``batch`` (IN-list options stay literal,
    as the IN fast path needs them)."""
    if isinstance(expr, Literal):
        if isinstance(expr.value, bool) or not isinstance(
                expr.value, (int, float)):
            return expr
        name = f"__lit{len(batch)}"
        batch[name] = np.full(batch_length(batch), expr.value)
        return col(name)
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, bind_literals(expr.left, batch),
                        bind_literals(expr.right, batch))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, bind_literals(expr.operand, batch))
    if isinstance(expr, FuncCall):
        return FuncCall(expr.name,
                        tuple(bind_literals(a, batch) for a in expr.args))
    if isinstance(expr, Between):
        return Between(*(bind_literals(e, batch)
                         for e in (expr.value, expr.low, expr.high)))
    if isinstance(expr, InList):
        return InList(bind_literals(expr.value, batch), expr.options)
    if isinstance(expr, Case):
        whens = tuple((bind_literals(c, batch), bind_literals(v, batch))
                      for c, v in expr.whens)
        default = (None if expr.default is None
                   else bind_literals(expr.default, batch))
        return Case(whens=whens, default=default)
    return expr


def assert_matches_reference(expr: Expr, batch: dict) -> None:
    wide = dict(batch)
    reference = bind_literals(expr, wide)
    with np.errstate(all="ignore"):
        value = expr.eval(batch)
        expected = reference.eval(wide)
    assert value.shape == (batch_length(batch),), str(expr)
    assert identical(value, expected), str(expr)


@pytest.mark.parametrize("seed", range(12))
def test_random_projection_trees_byte_identical(seed):
    rng = np.random.default_rng(seed)
    batch = random_batch(rng, int(rng.integers(1, 400)))
    for _ in range(4):
        assert_matches_reference(random_numeric(rng, 4), batch)


@pytest.mark.parametrize("seed", range(12))
def test_random_predicates_byte_identical(seed):
    rng = np.random.default_rng(1000 + seed)
    batch = random_batch(rng, int(rng.integers(1, 400)))
    conjuncts = [random_bool(rng, 3) for _ in range(int(rng.integers(1, 5)))]
    assert_matches_reference(and_(*conjuncts), batch)


class TestScalarLiterals:
    """Edge cases the random trees may miss, pinned one by one."""

    BATCH = {
        "f": np.array([1.5, 0.0, -2.0, np.nan]),
        "n": np.array([7, 0, -3, 4], dtype=np.int64),
    }

    @pytest.mark.parametrize("expr", [
        BinaryOp("/", col("n"), lit(0)),
        BinaryOp("/", col("f"), lit(0.0)),
        BinaryOp("/", lit(3), col("n")),
        BinaryOp("%", col("n"), lit(3)),
        BinaryOp("%", col("f"), lit(-2)),
        BinaryOp("%", lit(5), col("n")),
        BinaryOp("*", col("n"), lit(2.5)),
        BinaryOp("+", col("n"), lit(2)),
        BinaryOp("<", col("n"), lit(1.5)),
        FuncCall("power", (col("f"), lit(2))),
        FuncCall("power", (col("n"), lit(0.5))),
        FuncCall("round", (col("f"), lit(1))),
    ], ids=str)
    def test_column_with_literal(self, expr):
        assert_matches_reference(expr, self.BATCH)

    @pytest.mark.parametrize("expr", [
        FuncCall("power", (lit(0.57), lit(2))),
        FuncCall("abs", (lit(-3),)),
        FuncCall("pi", ()),
        BinaryOp("*", col("f"), FuncCall("power", (lit(0.57), lit(2)))),
        BinaryOp("=", lit(1), lit(1.0)),
        BinaryOp("<", lit(2), lit(1)),
        BinaryOp("/", lit(1), lit(0)),
        BinaryOp("%", lit(7), lit(0)),
    ], ids=str)
    def test_literal_only_broadcasts_per_row(self, expr):
        assert_matches_reference(expr, self.BATCH)

    def test_literal_operand_is_scalar(self, monkeypatch):
        # the exponent reaches np.power as a 0-d scalar, never a column
        from repro.engine import expressions

        seen = []
        _, power = expressions.SCALAR_FUNCTIONS["power"]
        monkeypatch.setitem(
            expressions.SCALAR_FUNCTIONS, "power",
            (2, lambda a, b: seen.append(np.ndim(b)) or power(a, b)),
        )
        FuncCall("power", (col("f"), lit(2))).eval(self.BATCH)
        FuncCall("power", (col("f"), FuncCall("abs", (lit(-2),)))) \
            .eval(self.BATCH)
        assert seen == [0, 0]


def test_empty_batch_and_empty_selection():
    batch = {"a": np.zeros(0), "b": np.zeros(0), "c": np.zeros(0)}
    predicate = BinaryOp("AND", BinaryOp(">", col("a"), lit(0)),
                         BinaryOp("<", col("b"), lit(1)))
    assert identical(predicate.eval(batch), np.zeros(0, dtype=bool))
    assert FuncCall("power", (lit(0.57), lit(2))).eval(batch).shape == (0,)
    # a first conjunct nothing survives: the second never runs
    probe = Probe(BinaryOp("<", col("b"), lit(1)))
    dead = BinaryOp("AND", BinaryOp(">", col("a"), lit(np.inf)), probe)
    full = {"a": np.arange(5.0), "b": np.arange(5.0)}
    assert not dead.eval(full).any()
    assert probe.sizes == []


# ---------------------------------------------------------------------------
# IN lists and CASE
# ---------------------------------------------------------------------------
class TestInListFastPath:
    def test_single_pass_matches_loop(self):
        values = np.array([1.0, 2.0, 3.0, np.nan, 2.0])
        options = (lit(2.0), lit(9), lit(np.nan))
        fast = isin_fast(values, options)
        assert fast is not None
        expr = InList(col("v"), options)
        assert identical(fast, expr.eval({"v": values}))
        assert identical(fast, np.array([False, True, False, False, True]))

    def test_nan_probe_never_matches(self):
        # NaN in the data matches nothing, even a literal NaN option
        # (SQL: NULL IN (...) is not true) — and np.isin's sort-based
        # matching must not be allowed to pair NaNs up.
        values = np.array([np.nan, 5.0])
        fast = isin_fast(values, (lit(np.nan), lit(5.0)))
        assert fast is not None
        assert identical(fast, np.array([False, True]))

    def test_all_nan_options_short_circuits_to_false(self):
        fast = isin_fast(np.array([1.0, np.nan]), (lit(np.nan),))
        assert fast is not None
        assert identical(fast, np.array([False, False]))

    def test_mixed_and_nonliteral_options_fall_back(self):
        values = np.array([1.0, 2.0])
        assert isin_fast(values, (lit(1.0), lit("x"))) is None
        assert isin_fast(values, (lit(1.0), col("a"))) is None
        assert isin_fast(values, (lit(True),)) is None  # bool is not numeric
        assert isin_fast(np.array(["a", "b"], dtype=object),
                         (lit(1.0),)) is None

    def test_fallback_still_correct_via_expression(self):
        # string probe + string options: the loop path answers
        values = np.array(["a", "b", "c"], dtype=object)
        expr = InList(col("v"), (lit("a"), lit("c")))
        assert list(expr.eval({"v": values})) == [True, False, True]

    def test_int_probe_float_options(self):
        values = np.arange(5)
        expr = InList(col("v"), (lit(2.0), lit(4)))
        assert identical(expr.eval({"v": values}),
                         np.array([False, False, True, False, True]))


class TestCaseNarrowedBranches:
    def test_then_branches_see_only_hit_rows(self):
        n = 10
        batch = {"a": np.arange(n, dtype=np.float64)}
        then_probe = Probe(BinaryOp("*", col("a"), lit(2)))
        else_probe = Probe(BinaryOp("+", col("a"), lit(100)))
        expr = Case(whens=((BinaryOp("<", col("a"), lit(3)), then_probe),),
                    default=else_probe)
        result = expr.eval(batch)
        assert then_probe.sizes == [3]   # rows 0, 1, 2
        assert else_probe.sizes == [7]   # the rest
        expected = np.where(np.arange(n) < 3, np.arange(n) * 2.0,
                            np.arange(n) + 100.0)
        assert identical(result, expected)

    def test_all_rows_decided_probes_default_dtype_only(self):
        batch = {"a": np.arange(4, dtype=np.float64)}
        else_probe = Probe(lit(7))
        expr = Case(whens=((BinaryOp(">=", col("a"), lit(0)), lit(1)),),
                    default=else_probe)
        result = expr.eval(batch)
        # the default ran over zero rows — a dtype probe, not real work
        assert else_probe.sizes == [0]
        assert identical(result, np.full(4, 1))

    def test_integer_dtype_preserved(self):
        batch = {"a": np.arange(6, dtype=np.int64)}
        expr = Case(whens=((BinaryOp("<", col("a"), lit(3)), lit(10)),),
                    default=lit(20))
        result = expr.eval(batch)
        assert result.dtype.kind == "i"
        assert list(result) == [10, 10, 10, 20, 20, 20]

    def test_no_default_yields_nan(self):
        batch = {"a": np.arange(4, dtype=np.float64)}
        expr = Case(whens=((BinaryOp("<", col("a"), lit(2)), lit(1.5)),))
        assert identical(expr.eval(batch),
                         np.array([1.5, 1.5, np.nan, np.nan]))

    def test_first_matching_when_wins(self):
        batch = {"a": np.arange(5, dtype=np.float64)}
        expr = Case(whens=(
            (BinaryOp("<", col("a"), lit(3)), lit(1.0)),
            (BinaryOp("<", col("a"), lit(4)), lit(2.0)),
        ), default=lit(3.0))
        assert identical(expr.eval(batch),
                         np.array([1.0, 1.0, 1.0, 2.0, 3.0]))

    def test_case_over_empty_batch(self):
        batch = {"a": np.zeros(0)}
        expr = Case(whens=((BinaryOp("<", col("a"), lit(1)),
                            FuncCall("round", (col("a"), lit(2)))),),
                    default=lit(0.0))
        assert expr.eval(batch).size == 0


# ---------------------------------------------------------------------------
# through SQL: literal-only predicates, join residuals, morsel workers
# ---------------------------------------------------------------------------
def build_db(n: int = 4000, **config_kwargs) -> Database:
    db = Database("exprtest", config=EngineConfig(**config_kwargs))
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


KERNEL_SQL = (
    "SELECT objid, g - i AS band, (g - i) * (g - i) AS chi "
    "FROM galaxy WHERE g - i > 0.4 AND zoneid < 18 AND ra < 300.0 "
    "ORDER BY objid"
)


@pytest.mark.parametrize("rewrites", (True, False))
def test_literal_only_where_and_select(rewrites):
    """Literal-only comparisons and calls in WHERE and the select list,
    with and without rewrite-time constant folding."""
    db = build_db(n=500, rewrites=rewrites)
    g = db.table("galaxy").scan()["g"]
    rows = db.sql(
        "SELECT objid, POWER(0.57, 2) AS p, g * POWER(0.57, 2) AS w "
        "FROM galaxy WHERE 1 < 2 AND g > POWER(4, 2) + 2 ORDER BY objid"
    ).columns
    keep = g > 18.0
    assert identical(rows["objid"], np.flatnonzero(keep))
    assert identical(rows["p"], np.full(int(keep.sum()), 0.57 ** 2))
    assert identical(rows["w"], g[keep] * np.float64(0.57 ** 2))
    assert db.sql("SELECT objid FROM galaxy WHERE 2 < 1").row_count == 0
    assert db.sql("SELECT COUNT(*) AS n FROM galaxy WHERE 1 = 1.0") \
        .scalar() == 500


def test_join_residual_scalar_literals():
    sql = (
        "SELECT a.objid AS o1, b.objid AS o2 "
        "FROM galaxy AS a JOIN galaxy AS b ON a.zoneid = b.zoneid "
        "WHERE a.g - b.g > 2.0 AND a.objid < 300 AND b.objid < 300 "
        "ORDER BY o1, o2"
    )
    db = build_db()
    got = db.sql(sql).columns
    cols = db.table("galaxy").scan()
    zone, g = cols["zoneid"][:300], cols["g"][:300]
    pairs = (zone[:, None] == zone[None, :]) & (g[:, None] - g[None, :] > 2.0)
    o1, o2 = np.nonzero(pairs)
    assert o1.size > 0
    assert identical(got["o1"], o1.astype(np.int64))
    assert identical(got["o2"], o2.astype(np.int64))


@pytest.mark.parametrize("workers", (2, 4))
def test_morsel_workers_byte_identical(workers):
    base = build_db(n=40000)
    par = build_db(n=40000, intra_query_workers=workers)
    a, b = base.sql(KERNEL_SQL), par.sql(KERNEL_SQL)
    assert a.row_count == b.row_count > 0
    for key in a.columns:
        assert identical(a.columns[key], b.columns[key])
