"""Localization kernels vs brute-force path enumeration.

The contract under test is exact equality on every prefix: the
``matched``/``closed`` frontier maps and the prefix/exact counts of the
compiled-kernel DP must equal what enumerating the product's paths
gives (:mod:`tests.selection.bruteforce`), on the numpy kernels, on the
pure-Python kernels, and through the int64-overflow promotion path.
All randomness is seeded -- nothing here depends on PYTHONHASHSEED.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import perf
from repro.core import arrays
from repro.core.execution import project_trace
from repro.core.flow import Flow, Transition
from repro.core.interleave import interleave_flows
from repro.core.message import IndexedMessage, Message, MessageCombination
from repro.errors import FrontierOverflowError, SelectionError
from repro.selection import kernels
from repro.selection.kernels import TableRegistry, table_fingerprint
from repro.selection.localization import PathLocalizer
from tests.backends import route
from tests.selection import bruteforce
from tests.strategies import scenarios

#: Kernel paths every oracle check runs on: the numpy backend, numpy
#: tables whose overflow guard promotes any weight above 1 to the
#: pure-Python kernels, and the pure-Python backend.
VARIANTS = (
    ("numpy", "promoted", "python") if arrays.have_numpy() else ("python",)
)

#: The two kernel backends a table can be compiled for.
BACKENDS = ("numpy", "python") if arrays.have_numpy() else ("python",)


@pytest.fixture
def traced(cc_flow) -> MessageCombination:
    return MessageCombination(
        [cc_flow.message_by_name("ReqE"), cc_flow.message_by_name("GntE")]
    )


def diamond_flow() -> Flow:
    """A visible entry, an invisible diamond, a visible exit.

    ``s0 -a-> s1``, then ``s1 -b-> s2 -c-> s4`` / ``s1 -d-> s3 -e->
    s4``, then ``s4 -f-> s5``.  With only ``a`` and ``f`` traced the
    diamond gives the closure genuine path *counts* (weight 2 at
    ``s4``) -- which the toy cache-coherence example never produces --
    while the initial frontier stays at weight 1 (nothing invisible
    leaves ``s0``).
    """
    a = Message("a", 2, source="P", destination="Q")
    b = Message("b", 3, source="Q", destination="P")
    c = Message("c", 1, source="P", destination="R")
    d = Message("d", 4, source="R", destination="P")
    e = Message("e", 2, source="P", destination="S")
    f = Message("f", 3, source="S", destination="P")
    return Flow(
        name="Diamond",
        states=["s0", "s1", "s2", "s3", "s4", "s5"],
        initial=["s0"],
        stop=["s5"],
        transitions=[
            Transition("s0", a, "s1"),
            Transition("s1", b, "s2"),
            Transition("s2", c, "s4"),
            Transition("s1", d, "s3"),
            Transition("s3", e, "s4"),
            Transition("s4", f, "s5"),
        ],
    )


@pytest.fixture
def diamond_pair():
    flow = diamond_flow()
    interleaved = interleave_flows([flow], copies=2)
    traced = MessageCombination(
        [flow.message_by_name("a"), flow.message_by_name("f")]
    )
    return interleaved, traced


def make_localizer(interleaved, traced, variant="numpy"):
    """A localizer over a private registry whose tables are compiled
    for one kernel *variant* (a table stays pinned to the backend it
    was compiled under)."""
    saved = arrays._force_python
    arrays._force_python = variant == "python"
    try:
        localizer = PathLocalizer(
            interleaved, traced, registry=TableRegistry()
        )
        tables = localizer._compiled_tables()
    finally:
        arrays._force_python = saved
    if variant == "promoted":
        tables.int64_limit = 1
    return localizer


def random_projection(interleaved, localizer, rng):
    """The visible projection of one random complete path."""
    offsets, msg_ids, targets = interleaved.csr_adjacency()
    table = interleaved.indexed_messages
    sid = rng.choice(sorted(interleaved.initial_ids))
    observed = []
    while offsets[sid] != offsets[sid + 1]:
        e = rng.randrange(offsets[sid], offsets[sid + 1])
        symbol = table[msg_ids[e]]
        if localizer.is_visible(symbol):
            observed.append(symbol)
        sid = targets[e]
    return observed


def assert_frontier_equal(left, right):
    assert left.matched == right.matched
    assert left.closed == right.closed
    assert left.length == right.length
    assert left.size == right.size


def oracle_trail(interleaved, traced, observed):
    """Brute-force ``(matched, closed, prefix count, exact count)``
    after every prefix of *observed*, the empty one first."""
    visible = set(traced)
    paths = bruteforce.projections(interleaved, visible)
    return [
        bruteforce.frontier_maps(interleaved, visible, observed[:cut])
        + bruteforce.prefix_and_exact_counts(paths, observed[:cut])
        for cut in range(len(observed) + 1)
    ]


def assert_matches_oracle(localizer, observed, trail):
    """Step through *observed*, checking every prefix's frontier maps
    and counts (stepwise and batch) against the oracle *trail*."""
    frontier = localizer.initial_frontier()
    for cut, (matched, closed, prefix, exact) in enumerate(trail):
        if cut:
            frontier = localizer.advance_frontier(frontier, observed[cut - 1])
        assert frontier.matched == matched
        assert frontier.closed == closed
        assert frontier.length == cut
        assert localizer.prefix_count(frontier) == prefix
        assert localizer.exact_count(frontier) == exact
        head = observed[:cut]
        assert localizer.localize(head, mode="prefix").consistent_paths == prefix
        assert localizer.localize(head, mode="exact").consistent_paths == exact


class TestEngineEquality:
    """The kernel DP equals brute-force enumeration on every prefix."""

    @pytest.mark.parametrize("seed", range(8))
    def test_stepwise_frontiers_match(self, cc_interleaved, traced, seed):
        observed = random_projection(
            cc_interleaved, PathLocalizer(cc_interleaved, traced),
            random.Random(seed),
        )
        trail = oracle_trail(cc_interleaved, traced, observed)
        for variant in VARIANTS:
            localizer = make_localizer(cc_interleaved, traced, variant)
            assert_matches_oracle(localizer, observed, trail)

    @pytest.mark.parametrize("seed", range(4))
    def test_plain_message_observations_match(
        self, cc_interleaved, traced, seed
    ):
        observed = [
            s.message
            for s in random_projection(
                cc_interleaved, PathLocalizer(cc_interleaved, traced),
                random.Random(seed),
            )
        ]
        trail = oracle_trail(cc_interleaved, traced, observed)
        for variant in VARIANTS:
            localizer = make_localizer(cc_interleaved, traced, variant)
            assert_matches_oracle(localizer, observed, trail)

    @pytest.mark.parametrize("seed", range(4))
    def test_weighted_closure_matches(self, diamond_pair, seed):
        # path counts above 1 flow through the closure matrix
        interleaved, traced = diamond_pair
        observed = random_projection(
            interleaved, PathLocalizer(interleaved, traced),
            random.Random(seed),
        )
        trail = oracle_trail(interleaved, traced, observed)
        # the diamond join is reached along two invisible paths
        assert max(max(closed.values()) for _, closed, _, _ in trail) > 1
        for variant in VARIANTS:
            localizer = make_localizer(interleaved, traced, variant)
            assert_matches_oracle(localizer, observed, trail)

    def test_dead_frontier_stays_dead_and_equal(
        self, cc_flow, cc_interleaved, traced
    ):
        gnt = cc_flow.message_by_name("GntE")
        # GntE before any ReqE kills every path
        dead_obs = [IndexedMessage(gnt, 1), IndexedMessage(gnt, 2)]
        trail = oracle_trail(cc_interleaved, traced, dead_obs)
        for variant in VARIANTS:
            localizer = make_localizer(cc_interleaved, traced, variant)
            outcome = localizer.advance_many(
                localizer.initial_frontier(), dead_obs
            )
            assert outcome.frontier.is_dead
            assert outcome.consumed == 2
            assert outcome.frontier.length == 2
            assert localizer.prefix_count(outcome.frontier) == 0
            assert_matches_oracle(localizer, dead_obs, trail)

    @settings(max_examples=100, deadline=None)
    @given(scenarios(), st.randoms(use_true_random=False), st.booleans())
    def test_random_flows_match(self, u, rng, plain):
        assume(u.count_paths() <= 2000)  # small enough to enumerate
        messages = sorted(u.messages)
        traced = MessageCombination(
            rng.sample(messages, rng.randint(1, len(messages)))
        )
        observed = list(
            project_trace(u.random_execution(rng).messages, traced)
        )
        if plain:
            observed = [s.message for s in observed]
        trail = oracle_trail(u, traced, observed)
        for variant in VARIANTS:
            localizer = make_localizer(u, traced, variant)
            assert_matches_oracle(localizer, observed, trail)


class TestChunkInvariance:
    @pytest.mark.parametrize("chunk", (1, 2, 3, 100))
    def test_batches_equal_stepwise(
        self, cc_interleaved, traced, chunk
    ):
        localizer = make_localizer(cc_interleaved, traced)
        observed = random_projection(
            cc_interleaved, localizer, random.Random(1)
        )
        stepwise = localizer.initial_frontier()
        peak = stepwise.size
        for symbol in observed:
            stepwise = localizer.advance_frontier(stepwise, symbol)
            peak = max(peak, stepwise.size)
        frontier = localizer.initial_frontier()
        consumed = 0
        batch_peak = frontier.size
        for lo in range(0, len(observed), chunk):
            outcome = localizer.advance_many(
                frontier, observed[lo:lo + chunk]
            )
            frontier = outcome.frontier
            consumed += outcome.consumed
            batch_peak = max(batch_peak, outcome.peak_size)
        assert_frontier_equal(frontier, stepwise)
        assert consumed == len(observed)
        assert batch_peak == peak

    def test_empty_batch_is_identity(self, cc_interleaved, traced):
        localizer = make_localizer(cc_interleaved, traced)
        start = localizer.initial_frontier()
        outcome = localizer.advance_many(start, ())
        assert outcome.frontier is start
        assert outcome.consumed == 0
        assert outcome.peak_size == start.size


class TestBatchErrors:
    def test_untraced_symbol_carries_progress(
        self, cc_flow, cc_interleaved, traced
    ):
        req = cc_flow.message_by_name("ReqE")
        untraced = cc_flow.message_by_name("Ack")
        batch = [IndexedMessage(req, 1), IndexedMessage(untraced, 1)]
        matched, closed = bruteforce.frontier_maps(
            cc_interleaved, set(traced), batch[:1]
        )
        _, initial = bruteforce.frontier_maps(
            cc_interleaved, set(traced), ()
        )
        for variant in VARIANTS:
            localizer = make_localizer(cc_interleaved, traced, variant)
            with pytest.raises(SelectionError, match="not in the traced") as e:
                localizer.advance_many(localizer.initial_frontier(), batch)
            assert e.value.consumed == 1
            assert e.value.frontier.matched == matched
            assert e.value.frontier.closed == closed
            assert e.value.peak_size == max(len(initial), len(closed))

    def test_overflow_freezes_before_the_bad_step(
        self, cc_flow, cc_interleaved, traced
    ):
        req = cc_flow.message_by_name("ReqE")
        gnt = cc_flow.message_by_name("GntE")
        batch = [req, gnt]  # plain: the frontier grows 1 -> 2 -> 4
        visible = set(traced)
        first = bruteforce.frontier_maps(cc_interleaved, visible, batch[:1])
        second = bruteforce.frontier_maps(cc_interleaved, visible, batch)
        # a bound the second step breaks but the first respects
        bound = len(second[1]) - 1
        assert len(first[1]) <= bound
        for variant in VARIANTS:
            localizer = make_localizer(cc_interleaved, traced, variant)
            with pytest.raises(FrontierOverflowError, match="grew to") as e:
                localizer.advance_many(
                    localizer.initial_frontier(), batch, max_frontier=bound
                )
            assert e.value.consumed == 1
            assert (e.value.frontier.matched, e.value.frontier.closed) == first


class TestBackendsAndPromotion:
    def test_pure_python_kernels_match(
        self, monkeypatch, cc_interleaved, traced
    ):
        monkeypatch.setattr(arrays, "_force_python", True)
        localizer = make_localizer(cc_interleaved, traced, "python")
        assert not arrays.have_numpy()
        assert not localizer._compiled_tables()._numpy
        observed = random_projection(
            cc_interleaved, localizer, random.Random(3)
        )
        assert_matches_oracle(
            localizer, observed, oracle_trail(cc_interleaved, traced, observed)
        )

    @pytest.mark.skipif(
        not arrays.have_numpy(), reason="needs the numpy backend"
    )
    def test_overflow_guard_promotes_and_stays_exact(self, diamond_pair):
        interleaved, traced = diamond_pair
        # int64 may only hold weight 1: the first step's closure
        # reaches the diamond join with weight 2, so the second step
        # must promote to the pure-Python kernels
        localizer = make_localizer(interleaved, traced, "promoted")
        by_name = {m.name: m for m in interleaved.messages}
        observed = [
            IndexedMessage(by_name["a"], 1),
            IndexedMessage(by_name["f"], 1),
        ]
        with perf.collect() as counters:
            localizer.advance_many(localizer.initial_frontier(), observed)
        assert counters.get("localize_kernel_promotions") >= 1
        assert_matches_oracle(
            localizer, observed, oracle_trail(interleaved, traced, observed)
        )

    @pytest.mark.skipif(
        not arrays.have_numpy(), reason="needs the numpy backend"
    )
    def test_backends_agree_on_sc2x2_sessions(self):
        from repro.server import ServeContext
        from repro.stream.service import synthetic_session_records

        context = ServeContext.from_scenario(2, instances=2, buffer_width=32)
        interleaved, traced = context.interleaved, context.traced
        numpy_loc = make_localizer(interleaved, traced, "numpy")
        python_loc = make_localizer(interleaved, traced, "python")
        boundaries = 0
        for seed in range(4):
            records = [
                r.message
                for r in synthetic_session_records(interleaved, traced, seed)
            ]
            left = numpy_loc.initial_frontier()
            right = python_loc.initial_frontier()
            assert_frontier_equal(left, right)
            for lo in range(0, len(records), 16):
                chunk = records[lo:lo + 16]
                left = numpy_loc.advance_many(left, chunk).frontier
                right = python_loc.advance_many(right, chunk).frontier
                assert_frontier_equal(left, right)
                assert numpy_loc.prefix_count(left) == python_loc.prefix_count(
                    right
                )
                boundaries += 1
        assert boundaries >= 4

    @pytest.mark.skipif(
        not arrays.have_numpy(), reason="needs the numpy backend"
    )
    @settings(max_examples=100, deadline=None)
    @given(scenarios(), st.randoms(use_true_random=False))
    def test_compile_routes_agree(self, u, rng):
        messages = sorted(u.messages)
        traced = MessageCombination(
            rng.sample(messages, rng.randint(0, len(messages)))
        )
        numpy_tables = make_localizer(u, traced, "numpy")._compiled_tables()
        python_tables = make_localizer(u, traced, "python")._compiled_tables()
        assert numpy_tables._numpy and not python_tables._numpy
        assert table_content(numpy_tables) == table_content(python_tables)


def table_content(tables):
    """Everything a compiled table set answers with: each state's
    closure row as ``(targets, weights)`` in state order, each
    operator's edges and growth, and the overflow guard's inputs."""
    rows = [
        (
            list(tables._ctgt[lo:hi]),
            list(tables._cweight[lo:hi]),
        )
        for lo, hi in zip(tables._row_lo, tables._row_hi)
    ]

    def edges(operators):
        return {
            key: (list(op.src), list(op.tgt), op.growth)
            for key, op in operators.items()
        }

    return (
        rows,
        edges(tables.op_by_mid),
        edges(tables.op_by_plain),
        tables.int64_limit,
        tables.closure_entries,
        tables.nbytes,
    )


class TestTableRegistry:
    def test_tables_shared_by_fingerprint(self, cc_interleaved, traced):
        registry = TableRegistry()
        first = PathLocalizer(cc_interleaved, traced, registry=registry)
        second = PathLocalizer(cc_interleaved, traced, registry=registry)
        assert first._compiled_tables() is second._compiled_tables()
        stats = registry.stats()
        assert stats["tables"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["bytes"] > 0
        assert stats["backend"] in ("numpy", "python")

    def test_warm_resolves_through_registry(self, cc_interleaved, traced):
        registry = TableRegistry()
        PathLocalizer(cc_interleaved, traced, registry=registry).warm()
        PathLocalizer(cc_interleaved, traced, registry=registry).warm()
        assert registry.stats()["misses"] == 1
        assert registry.stats()["hits"] == 1

    def test_failed_compile_caches_nothing_and_retries(
        self, monkeypatch, cc_interleaved, traced
    ):
        attempts = []
        real = kernels.CompiledTables

        class FlakyTables(real):
            def __init__(self, *args):
                attempts.append(1)
                if len(attempts) == 1:
                    raise MemoryError("first compile fails")
                super().__init__(*args)

        monkeypatch.setattr(kernels, "CompiledTables", FlakyTables)
        registry = TableRegistry()
        visible = PathLocalizer(cc_interleaved, traced)._visible_mid
        with pytest.raises(MemoryError):
            registry.get(cc_interleaved, visible)
        assert len(registry) == 0
        # nothing was cached, so the next caller compiles afresh
        assert isinstance(registry.get(cc_interleaved, visible), real)
        assert len(attempts) == 2
        stats = registry.stats()
        assert (stats["misses"], stats["hits"], stats["tables"]) == (2, 0, 1)

    def test_fingerprint_is_content_addressed(self, cc_flow, traced):
        # two structurally identical products fingerprint identically
        left = interleave_flows([cc_flow], copies=2)
        right = interleave_flows([cc_flow], copies=2)
        visible = tuple(
            m.message in set(traced)
            for m in left.indexed_messages
        )
        assert table_fingerprint(left, visible) == table_fingerprint(
            right, visible
        )
        # a different visible set changes the fingerprint
        flipped = tuple(not v for v in visible)
        assert table_fingerprint(left, visible) != table_fingerprint(
            left, flipped
        )

    def test_lru_eviction(self, cc_flow, cc_interleaved, traced):
        registry = TableRegistry(max_tables=1)
        all_traced = MessageCombination(list(cc_flow.messages))
        PathLocalizer(cc_interleaved, traced, registry=registry).warm()
        PathLocalizer(cc_interleaved, all_traced, registry=registry).warm()
        stats = registry.stats()
        assert stats["tables"] == 1
        assert stats["evictions"] == 1
        assert len(registry) == 1
        registry.clear()
        assert len(registry) == 0

    def test_bad_capacity_rejected(self):
        with pytest.raises(SelectionError, match="max_tables"):
            TableRegistry(max_tables=0)


class TestStepMemo:
    @pytest.mark.skipif(
        not arrays.have_numpy(), reason="needs the numpy backend"
    )
    def test_identical_steps_hit_the_memo(self, cc_interleaved, traced):
        localizer = make_localizer(cc_interleaved, traced)
        observed = random_projection(
            cc_interleaved, localizer, random.Random(5)
        )
        start = localizer.initial_frontier()
        with perf.collect() as counters:
            first = localizer.advance_many(start, observed)
            second = localizer.advance_many(start, observed)
        assert counters.get("localize_step_memo_misses") == len(observed)
        assert counters.get("localize_step_memo_hits") == len(observed)
        assert_frontier_equal(first.frontier, second.frontier)

    @pytest.mark.skipif(
        not arrays.have_numpy(), reason="needs the numpy backend"
    )
    def test_memo_shared_across_sessions(self, cc_interleaved, traced):
        # two localizers over one registry share hot steps, not just
        # tables -- the cross-session serving win
        registry = TableRegistry()
        first = PathLocalizer(cc_interleaved, traced, registry=registry)
        second = PathLocalizer(cc_interleaved, traced, registry=registry)
        observed = random_projection(
            cc_interleaved, first, random.Random(7)
        )
        first.advance_many(first.initial_frontier(), observed)
        with perf.collect() as counters:
            second.advance_many(second.initial_frontier(), observed)
        assert counters.get("localize_step_memo_hits") == len(observed)
        assert registry.stats()["step_memo_entries"] > 0


class TestWindowMemo:
    def test_repeated_windows_reuse_the_table(
        self, cc_flow, cc_interleaved, traced
    ):
        localizer = PathLocalizer(cc_interleaved, traced)
        req = cc_flow.message_by_name("ReqE")
        window = (IndexedMessage(req, 1),)
        first = localizer.window_count(window)
        with perf.collect() as counters:
            second = localizer.window_count(list(window))
        assert first == second
        assert counters.get("localize_window_memo_hits") == 1
        # the memoized replay must not redo the composed DP
        assert counters.get("localize_dp_steps") == 0

    def test_window_counts_leave_no_cyclic_garbage(
        self, cc_flow, cc_interleaved, traced
    ):
        # the composed-DP table must be freed on return, not parked in
        # a reference cycle until a generation-2 collection
        localizer = PathLocalizer(cc_interleaved, traced)
        req = cc_flow.message_by_name("ReqE")
        gnt = cc_flow.message_by_name("GntE")
        windows = [
            (IndexedMessage(req, 1),),
            (IndexedMessage(req, 2), IndexedMessage(gnt, 2)),
            (IndexedMessage(req, 1), IndexedMessage(gnt, 1)),
        ]
        gc.collect()
        gc.disable()
        try:
            counts = [localizer.window_count(w) for w in windows]
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert all(count > 0 for count in counts)
        assert unreachable == 0


@pytest.fixture(scope="module")
def sc2x2():
    from repro.server import ServeContext

    context = ServeContext.from_scenario(2, instances=2, buffer_width=32)
    interleaved = context.interleaved
    # cached on the flow, not part of the compiled tables
    interleaved.topological_ids()
    visible = PathLocalizer(interleaved, context.traced)._visible_mid
    return interleaved, visible


def table_buffers(tables):
    """Every flat buffer a compiled table set holds: the closure's, then
    the operators' by message ID and by plain message name."""
    operators = sorted(tables.op_by_mid.items()) + sorted(
        (message.name, op) for message, op in tables.op_by_plain.items()
    )
    buffers = [tables._row_lo, tables._row_hi, tables._ctgt, tables._cweight]
    for _, op in operators:
        buffers += [op.src, op.tgt]
    return buffers


class TestTableResidency:
    @pytest.mark.parametrize("variant", BACKENDS)
    def test_tables_are_resident_once(self, monkeypatch, sc2x2, variant):
        interleaved, visible = sc2x2
        monkeypatch.setattr(arrays, "_force_python", variant == "python")
        registry = TableRegistry()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tables = registry.get(interleaved, visible)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert tables._numpy == (variant == "numpy")
        # one copy of every buffer plus per-object overhead
        assert retained <= 1.25 * tables.nbytes + 256 * 1024
        buffers = table_buffers(tables)
        assert tables.nbytes == sum(b.itemsize * len(b) for b in buffers)
        assert tables.closure_entries == len(tables._ctgt)

    @pytest.mark.parametrize("variant", BACKENDS)
    def test_compile_peak_is_bounded(self, monkeypatch, sc2x2, variant):
        interleaved, visible = sc2x2
        monkeypatch.setattr(arrays, "_force_python", variant == "python")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tables = kernels.CompiledTables(interleaved, visible)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the final buffers plus the compile's bounded working set (a
        # few int64 arrays over the states and edges, and per chunk a
        # bounded gather): a level compiled in one piece peaks above
        # this, whatever widths the tables are stored in
        working = 8 * (interleaved.num_states + interleaved.num_transitions)
        assert peak <= tables.nbytes + 4 * working

    @pytest.mark.parametrize("variant", BACKENDS)
    def test_closure_weights_beyond_int64_stay_exact(
        self, monkeypatch, variant
    ):
        # a chain of k invisible diamonds has 2^k invisible paths; its
        # largest closure column sum, 2^(k+2) - 4, crosses 2^31 between
        # k = 29 and k = 30, where the weights leave four bytes (the
        # 3k + 3 state targets stay in one), leaves int64 at k = 62
        # and its largest weight at k = 63.  The numpy compile
        # runs only while that column sum, counted in float64, stays
        # below 2^62: k <= 59 compiles on numpy, k >= 61 takes the
        # exact big-int route, and k = 60 sits on the bound, where
        # float64 rounding may pick either.  Every route must give
        # the Python compile's tables
        routes = []
        real = kernels._closure_numpy

        def spy(*args):
            routes.append("numpy")
            return real(*args)

        monkeypatch.setattr(kernels, "_closure_numpy", spy)
        for diamonds in (29, 30, *range(57, 65)):
            interleaved, traced, a, f = diamond_chain(diamonds)
            localizer = make_localizer(interleaved, traced, variant)
            tables = localizer._compiled_tables()
            reference = make_localizer(
                interleaved, traced, "python"
            )._compiled_tables()
            if diamonds != 60:
                numpy_route = variant == "numpy" and diamonds < 60
                assert routes == ["numpy"] * numpy_route, diamonds
            routes.clear()
            assert table_content(tables) == table_content(reference)
            assert max(tables._cweight) == 2**diamonds
            assert isinstance(tables._cweight, list) == (diamonds >= 63)
            column = 2 ** (diamonds + 2) - 4
            assert tables._ctgt.typecode == "B"
            if diamonds < 63:
                assert tables._cweight.typecode == "iq"[column >= 2**31]
            assert tables.int64_limit == (
                kernels._INT64_MAX // (column + 1)
                if column < kernels._INT64_MAX
                else 0
            )
            assert tables.nbytes == sum(
                8 * len(b) if isinstance(b, list) else b.itemsize * len(b)
                for b in table_buffers(tables)
            )
            observed = [IndexedMessage(a, 1), IndexedMessage(f, 1)]
            for cut in range(len(observed) + 1):
                head = observed[:cut]
                paths = localizer.localize(head).consistent_paths
                assert paths == 2**diamonds
            exact = localizer.localize(observed, mode="exact")
            assert exact.consistent_paths == 2**diamonds


def diamond_chain(diamonds):
    """A visible entry ``a``, *diamonds* invisible diamonds in a row,
    a visible exit ``f``: ``2**diamonds`` paths, all through one join.

    Returns ``(interleaved, traced, a, f)``.
    """
    a = Message("a", 1, source="P", destination="Q")
    f = Message("f", 1, source="Q", destination="P")
    transitions = [Transition("in", a, "d0")]
    for i in range(diamonds):
        for arm in "lr":
            into = Message(f"{arm}{i}", 1, source="P", destination="Q")
            out = Message(f"{arm}{i}'", 1, source="Q", destination="P")
            transitions.append(Transition(f"d{i}", into, f"{arm}{i}"))
            transitions.append(Transition(f"{arm}{i}", out, f"d{i + 1}"))
    transitions.append(Transition(f"d{diamonds}", f, "out"))
    states = sorted({s for t in transitions for s in (t.source, t.target)})
    flow = Flow(
        name="Diamonds", states=states, initial=["in"], stop=["out"],
        transitions=transitions,
    )
    interleaved = interleave_flows([flow], copies=1)
    return interleaved, MessageCombination([a, f]), a, f


#: The body lengths of :func:`chain_flow` whose widest table lands in
#: each width class: the state IDs pass 2^8 from about 256 states, and
#: with an untraced body the closure's row bounds pass 2^16 from about
#: 363 states, where the closure holds every ordered pair of states.
WIDTH_BODIES = {"B": (2, 12), "H": (260, 340), "i": (380, 420)}

WIDTH_ORDER = "BHiq"


def chain_flow(length, diamonds, pool):
    """A visible entry ``a``, a body of *length* segments labelled from
    *pool* in turn (each segment in *diamonds* forks into two arms that
    join again), a visible exit ``f``.

    Returns ``(flow, a, f)``: ``2**len(diamonds)`` paths.
    """
    a, f = Message("a", 1), Message("f", 1)
    transitions = [Transition("in", a, "n0")]
    for k in range(length):
        label = pool[k % len(pool)]
        here, there = f"n{k}", f"n{k + 1}"
        arms = [f"l{k}", f"r{k}"] if k in diamonds else []
        transitions += [Transition(here, label, arm) for arm in arms]
        transitions += [Transition(arm, label, there) for arm in arms]
        if not arms:
            transitions.append(Transition(here, label, there))
    transitions.append(Transition(f"n{length}", f, "out"))
    states = sorted({s for t in transitions for s in (t.source, t.target)})
    flow = Flow("Chain", states, ["in"], ["out"], transitions)
    return flow, a, f


def product_layout(product):
    """Typecode and bytes of every integer table a product keeps."""
    offsets, messages, targets = product.csr_adjacency()
    return [
        (buf.typecode, buf.tobytes())
        for buf in (
            product._codes, offsets, messages, targets,
            product.paths_to_stop_ids(),
        )
    ]


def tables_layout(tables):
    """Typecode and bytes of every buffer of a compiled table set."""
    return [(buf.typecode, buf.tobytes()) for buf in table_buffers(tables)]


class TestTableWidths:
    """Products whose widest table lands in each width class: both
    routes lay out the same bytes in the same widths, and the kernels
    still match brute-force enumeration."""

    @pytest.mark.parametrize("width", sorted(WIDTH_BODIES))
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_widths_agree_and_match_enumeration(self, width, data):
        lo, hi = WIDTH_BODIES[width]
        length = data.draw(st.integers(lo, hi), label="length")
        diamonds = data.draw(
            st.sets(st.integers(0, length - 1), max_size=3), label="diamonds"
        )
        pool = [Message(f"m{i}", 1) for i in range(data.draw(st.integers(1, 3)))]
        flow, a, f = chain_flow(length, diamonds, pool)
        # a class-i product needs an untraced body: its closure then
        # holds every ordered pair of states
        shown = [] if width == "i" else data.draw(
            st.lists(st.sampled_from(pool), unique=True), label="shown"
        )
        traced = MessageCombination([a, f, *shown])

        layouts = []
        for name in BACKENDS:
            with route(name):
                layouts.append(product_layout(interleave_flows([flow])))
        product = interleave_flows([flow])
        localizers = {
            variant: make_localizer(product, traced, variant)
            for variant in VARIANTS
        }
        for name in BACKENDS:
            layouts.append(tables_layout(localizers[name]._compiled_tables()))
        product_layouts, tables_layouts = (
            layouts[:len(BACKENDS)], layouts[len(BACKENDS):]
        )
        assert all(layout == product_layouts[0] for layout in product_layouts)
        assert all(layout == tables_layouts[0] for layout in tables_layouts)
        codes = [code for code, _ in product_layouts[0] + tables_layouts[0]]
        assert max(codes, key=WIDTH_ORDER.index) == width
        if "numpy" in localizers:
            # narrow tables, int64 frontiers: the memo keys are unchanged
            localizer = localizers["numpy"]
            tables = localizer._compiled_tables()
            step = tables.advance(
                tables.scatter(localizer.initial_frontier().closed),
                tables.op_by_plain[a],
            )
            assert step.size > 0
            for ids, weights in (step.matched, step.closed):
                assert ids.dtype == weights.dtype == "int64"

        rng = data.draw(st.randoms(use_true_random=False), label="rng")
        observed = list(
            project_trace(product.random_execution(rng).messages, traced)
        )
        cuts = sorted(
            {0, len(observed), rng.randint(0, len(observed))}
        )
        visible = set(traced)
        paths = bruteforce.projections(product, visible)
        expected = [
            bruteforce.frontier_maps(product, visible, observed[:cut])
            + bruteforce.prefix_and_exact_counts(paths, observed[:cut])
            for cut in cuts
        ]
        for localizer in localizers.values():
            frontier, done = localizer.initial_frontier(), 0
            for cut, (matched, closed, prefix, exact) in zip(cuts, expected):
                frontier = localizer.advance_many(
                    frontier, observed[done:cut]
                ).frontier
                done = cut
                assert (frontier.matched, frontier.closed) == (matched, closed)
                assert localizer.prefix_count(frontier) == prefix
                assert localizer.exact_count(frontier) == exact
