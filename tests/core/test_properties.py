"""Property-based tests (hypothesis) for core invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import node as node_module
from repro.core.dedup import ProjectionTracker
from repro.core.keys import attribute_key, value_key
from repro.core.protocol import (
    AnswerMessage,
    EvalMessage,
    QueryState,
    RicRequestMessage,
    Subscriber,
)
from repro.core.query_table import StoredQueryRecord
from repro.core.rewriting import QueryShape, compile_plan, rewrite_query, shape_key
from repro.core.strategy import rewritten_query_candidates
from repro.core.windows import WindowState, admits, combination_valid, extend
from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.reference import ReferenceEngine
from repro.data.schema import AttributeRef, Catalog
from repro.data.tuples import Tuple
from repro.dht.chord import ChordRing
from repro.dht.hashing import IdentifierSpace
from repro.dht.ring import RingMap
from repro.errors import RewriteError, SchemaError
from repro.sql.ast import (
    Constant,
    JoinPredicate,
    Query,
    SelectionPredicate,
    WindowSpec,
)
from repro.sql.predicates import all_selections, is_contradictory


# ---------------------------------------------------------------------------
# Identifier space / ring properties
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0), st.integers(min_value=0), st.integers(min_value=0))
def test_ring_distance_triangle_identity(a, b, c):
    """Clockwise distances around the circle compose modulo the circle size."""
    space = IdentifierSpace(16)
    total = (space.distance(a, b) + space.distance(b, c)) % space.size
    assert total == space.distance(a, c)


@given(st.sets(st.integers(min_value=0, max_value=2**16 - 1), min_size=1, max_size=40),
       st.integers(min_value=0, max_value=2**16 - 1))
def test_ring_successor_is_owner(ids, probe):
    """successor(k) is the first identifier at or after k (wrapping around)."""
    space = IdentifierSpace(16)
    ring = RingMap(space)
    for identifier in ids:
        ring.insert(identifier, f"n{identifier}")
    owner_id, _ = ring.successor(probe)
    candidates = sorted(ids)
    expected = next((i for i in candidates if i >= probe), candidates[0])
    assert owner_id == expected


def _reference_route(ring, start, identifier):
    """``route_path`` as it was before hops were read from the finger cache.

    Per hop: from the largest useful exponent down, take ``Successor(current
    + 2^e)`` off the ring by bisection and follow the first one that lands
    inside ``(current, identifier]``.
    """
    space = ring.space
    identifier = space.normalize(identifier)
    owner = ring.successor(identifier)
    path, current = [start], start
    while current.address != owner.address:
        remaining = space.distance(current.node_id, identifier)
        next_hop = ring.successor_of(current)
        for exponent in range(min(space.bits, remaining.bit_length()) - 1, -1, -1):
            candidate = ring.successor(space.power_step(current.node_id, exponent))
            if 0 < space.distance(current.node_id, candidate.node_id) <= remaining:
                next_hop = candidate
                break
        path.append(next_hop)
        current = next_hop
        assert len(path) <= space.bits + 2
    return path


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_route_path_reads_the_same_hops_off_the_finger_cache(data):
    """Random rings, identifiers on / just before / just after node ids, and
    the same again after a join, a departure and an id movement."""
    bits = data.draw(st.integers(8, 64))
    identifiers = st.integers(0, (1 << bits) - 1)
    ring = ChordRing(IdentifierSpace(bits))
    for index, node_id in enumerate(
        sorted(data.draw(st.sets(identifiers, min_size=1, max_size=200)))
    ):
        ring.add_node(f"n{index}", node_id)

    def check():
        nodes = st.sampled_from(ring.nodes)
        targets = data.draw(st.lists(identifiers, max_size=3))
        for node in data.draw(st.lists(nodes, min_size=1, max_size=6)):
            targets += [node.node_id - 1, node.node_id, node.node_id + 1]
        for start in data.draw(st.lists(nodes, min_size=1, max_size=3)):
            for target in targets:
                assert ring.route_path(start, target) == _reference_route(
                    ring, start, target
                )

    free = identifiers.filter(lambda identifier: identifier not in ring._ring)
    check()
    ring.add_node("joiner", data.draw(free))
    check()
    if len(ring) > 1:
        ring.remove_node(data.draw(st.sampled_from(ring.addresses)))
        check()
    ring.move_node(data.draw(st.sampled_from(ring.addresses)), data.draw(free))
    check()


@given(st.text(min_size=0, max_size=20))
def test_hash_is_stable_and_bounded(key):
    space = IdentifierSpace(32)
    assert 0 <= space.hash_key(key) < space.size
    assert space.hash_key(key) == space.hash_key(key)


# ---------------------------------------------------------------------------
# Rewriting properties
# ---------------------------------------------------------------------------
_catalog = Catalog()
_catalog.add_relation("R", ["a", "b"])
_catalog.add_relation("S", ["a", "b"])

_small_values = st.integers(min_value=0, max_value=3)


@given(_small_values, _small_values, _small_values)
def test_rewrite_reduces_arity_or_dies(r_a, r_b, sel_value):
    query = Query(
        select_items=(AttributeRef("R", "a"), AttributeRef("S", "b")),
        relations=("R", "S"),
        join_predicates=(
            JoinPredicate(AttributeRef("R", "b"), AttributeRef("S", "a")),
        ),
        selection_predicates=(SelectionPredicate(AttributeRef("R", "a"), sel_value),),
    )
    tup = Tuple.from_schema(_catalog.get("R"), (r_a, r_b))
    result = rewrite_query(query, tup, _catalog.get("R"))
    if r_a != sel_value:
        assert result.dead
    else:
        assert result.query.arity == 1
        assert all(
            sp.attribute.relation != "R" for sp in result.query.selection_predicates
        )
        # The derived selection carries the joined value.
        assert (
            SelectionPredicate(AttributeRef("S", "a"), r_b)
            in result.query.selection_predicates
        )


@given(st.lists(st.tuples(_small_values, _small_values), min_size=2, max_size=2))
def test_rewrite_order_independence(values):
    """Consuming R then S yields the same answer as S then R."""
    (r_a, r_b), (s_a, s_b) = values
    query = Query(
        select_items=(AttributeRef("R", "a"), AttributeRef("S", "b")),
        relations=("R", "S"),
        join_predicates=(
            JoinPredicate(AttributeRef("R", "b"), AttributeRef("S", "a")),
        ),
    )
    r_tup = Tuple.from_schema(_catalog.get("R"), (r_a, r_b))
    s_tup = Tuple.from_schema(_catalog.get("S"), (s_a, s_b))

    def consume(order):
        current = query
        for tup in order:
            outcome = rewrite_query(current, tup, _catalog.get(tup.relation))
            if outcome.dead:
                return None
            current = outcome.query
        return current.answer_values() if current.is_complete() else None

    assert consume([r_tup, s_tup]) == consume([s_tup, r_tup])


# ---------------------------------------------------------------------------
# Compiled trigger plans vs the one-tuple-at-a-time rewrite they replaced
# ---------------------------------------------------------------------------
def _reference_rewrite(query, tup, schema):
    """``rewrite_query`` as it was before plans: ``(outcome, rewritten query)``.

    The reference the differential below compares against — every step on
    the tuple's values by attribute name, nothing precomputed.
    """
    relation = tup.relation
    if relation not in query.relations:
        raise RewriteError(f"{relation!r} is not in {query.relations}")
    values = tup.as_dict(schema)
    remaining = []
    for sp in query.selection_predicates:
        if sp.attribute.relation == relation:
            if values[sp.attribute.attribute] != sp.value:
                return "dead", None
        else:
            remaining.append(sp)
    joins, derived = [], []
    for jp in query.join_predicates:
        if not jp.references(relation):
            joins.append(jp)
            continue
        other, own = jp.other_side(relation), jp.side_for(relation)
        if other.relation == relation:
            if values[own.attribute] != values[other.attribute]:
                return "dead", None
            continue
        derived.append(SelectionPredicate(other, values[own.attribute]))
    merged = list(remaining)
    seen = {(sp.attribute, sp.value) for sp in merged}
    for sp in derived:
        if (sp.attribute, sp.value) not in seen:
            seen.add((sp.attribute, sp.value))
            merged.append(sp)
    if is_contradictory(merged):
        return "dead", None
    rewritten = Query(
        select_items=tuple(
            Constant(values[item.attribute])
            if isinstance(item, AttributeRef) and item.relation == relation
            else item
            for item in query.select_items
        ),
        relations=tuple(rel for rel in query.relations if rel != relation),
        join_predicates=tuple(joins),
        selection_predicates=tuple(merged),
        distinct=query.distinct,
        window=query.window,
    )
    return ("complete" if rewritten.is_complete() else "alive"), rewritten


_plan_catalog = Catalog.uniform(4, 3)
_plan_values = st.integers(min_value=0, max_value=1)
_plan_attributes = st.sampled_from(["a0", "a1", "a2"])
#: One shape per input query shape, shared by every example of the run as the
#: engine shares it between queries: a plan compiled for one set of constants
#: must serve every other, and so must the plans of each plan's child shape.
_shared_shapes = {}
#: The shape key every child of one plan had (by ``id`` of the plan's
#: ``child_shape``, which ``_shared_shapes`` keeps alive): they must agree.
_child_keys = {}


def _root_shape(query):
    return _shared_shapes.setdefault(shape_key(query), QueryShape())


@st.composite
def _plan_cases(draw):
    """A chain/star query with selections and one tuple per relation, any order."""
    arity = draw(st.integers(2, 4))
    relations = tuple(draw(st.permutations(_plan_catalog.relation_names()))[:arity])

    def ref(relation):
        return AttributeRef(relation, draw(_plan_attributes))

    star = draw(st.booleans())
    joins = [
        JoinPredicate(
            ref(relations[0] if star else relations[i - 1]), ref(relations[i])
        )
        for i in range(1, len(relations))
    ]
    # Extra joins aim several bindings at one attribute, or at a selected one.
    for _ in range(draw(st.integers(0, 2))):
        left, right = draw(st.permutations(relations))[:2]
        joins.append(JoinPredicate(ref(left), ref(right)))
    selections = [
        SelectionPredicate(ref(draw(st.sampled_from(relations))), draw(_plan_values))
        for _ in range(draw(st.integers(0, 3)))
    ]
    select_items = [
        Constant(draw(_plan_values))
        if draw(st.booleans())
        else ref(draw(st.sampled_from(relations)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    window = draw(st.sampled_from(
        [None, WindowSpec(size=5, mode="tuples"), WindowSpec(size=3.0, mode="time")]
    ))
    query = Query(
        select_items=tuple(select_items),
        relations=relations,
        join_predicates=tuple(joins),
        selection_predicates=tuple(selections),
        distinct=draw(st.booleans()),
        window=window,
    )
    tuples = [
        Tuple.from_schema(
            _plan_catalog.get(relation),
            (draw(_plan_values), draw(_plan_values), draw(_plan_values)),
            pub_time=float(sequence),
            sequence=sequence,
        )
        for sequence, relation in enumerate(draw(st.permutations(relations)), 1)
    ]
    return query, tuples


@settings(max_examples=300, deadline=None)
@given(_plan_cases())
def test_plans_rewrite_exactly_like_the_reference(case):
    """Dead / alive / complete, the rewritten query and the answer, step by step."""
    current, tuples = case
    shape = _root_shape(current)
    for tup in tuples:
        schema = _plan_catalog.get(tup.relation)
        outcome, expected = _reference_rewrite(current, tup, schema)
        shared = shape.plan_for(current, tup.relation, schema)
        for result in (
            rewrite_query(current, tup, schema),
            rewrite_query(current, tup, schema, plan=shared),
        ):
            assert (result.dead, result.alive, result.complete) == (
                outcome == "dead", outcome == "alive", outcome == "complete"
            )
            assert result.query == expected
            if outcome == "complete":
                assert result.values == expected.answer_values()
                assert result.query.answer_values() == expected.answer_values()
            else:
                assert result.values is None
        assert shared.complete == (outcome == "complete") or outcome == "dead"
        if outcome != "alive":
            break
        shape = shared.child_shape
        key = _child_keys.setdefault(id(shape), shape_key(expected))
        assert key == shape_key(expected)
        current = expected


@given(_plan_cases())
def test_plans_keep_raising_on_misrouted_and_malformed_tuples(case):
    query, tuples = case
    tup = tuples[0]
    schema = _plan_catalog.get(tup.relation)
    plan = compile_plan(query, tup.relation, schema)
    short = Tuple(relation=tup.relation, values=tup.values[:2])
    for use in (None, plan):
        with pytest.raises(SchemaError):
            rewrite_query(query, short, schema, plan=use)
    foreign = [name for name in _plan_catalog.relation_names()
               if name not in query.relations]
    for name in foreign:
        stranger = Tuple.from_schema(_plan_catalog.get(name), (0, 0, 0))
        with pytest.raises(RewriteError):
            rewrite_query(query, stranger, _plan_catalog.get(name))
        with pytest.raises(RewriteError):
            compile_plan(query, name, _plan_catalog.get(name))


# ---------------------------------------------------------------------------
# Set-at-a-time triggering vs one _trigger call per tuple
# ---------------------------------------------------------------------------
_time_window = WindowSpec(size=2.5, mode="time")
_tuple_window = WindowSpec(size=4, mode="tuples")


def _triggering(draw, query, relation):
    """Values of a ``relation`` tuple the selections of ``query`` let through."""
    stated = {
        sp.attribute.attribute: sp.value
        for sp in query.selection_predicates
        if sp.attribute.relation == relation
    }
    return tuple(
        stated.get(attribute, draw(_plan_values))
        for attribute in _plan_catalog.get(relation).attributes
    )


@st.composite
def _trigger_cases(draw):
    """A stored state (input or rewritten) and tuples of one relation to meet it.

    The query is a ``_plan_cases`` query rewritten by none, some or all but
    one of its relations — so the triggering relation's plan re-indexes or
    completes — under no window or either mode; most tuples carry values
    that trigger it, their clocks sit inside the window and on, just inside
    and just outside its two boundaries, and some were published before the
    query was submitted.
    """
    query, _ = draw(_plan_cases())
    window = draw(st.sampled_from([None, _time_window, _tuple_window]))
    query = Query(
        select_items=query.select_items,
        relations=query.relations,
        join_predicates=query.join_predicates,
        selection_predicates=query.selection_predicates,
        distinct=query.distinct and draw(st.booleans()),
        window=window,
    )
    consumed = 0
    left = len(query.relations) - 1
    for _ in range(draw(st.sampled_from([0, 1, left, left]))):
        consumes = draw(st.sampled_from(query.relations))
        schema = _plan_catalog.get(consumes)
        result = rewrite_query(
            query, Tuple.from_schema(schema, _triggering(draw, query, consumes)), schema
        )
        if not result.alive:
            break
        query, consumed = result.query, consumed + 1
    relation = draw(
        st.sampled_from(query.relations * 3 + tuple(_plan_catalog.relation_names()))
    )
    low = draw(st.sampled_from([10.0, 10.25, 12.0]))
    high = low + draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]))
    span = None
    if window is not None and (consumed or draw(st.booleans())):
        span = WindowState(min_clock=low, max_clock=high)
    # Oldest and newest admissible clock, and their neighbourhoods.
    size = 0.0 if window is None else float(window.size)
    steps = [-1.0, -0.5, -1e-9, 0.0, 1e-9, 0.5, 1.0]
    clocks = st.sampled_from(
        [edge + step for edge in (high - size + 1, low + size - 1) for step in steps]
        + [low, high, (low + high) / 2] * 5
    )
    insertion_time = draw(st.sampled_from([0.0, 0.0, low - 1.0, low + 0.5]))
    by_sequence = window is not None and window.mode == "tuples"
    tuples = []
    for _ in range(draw(st.sampled_from([0, 1, 2, 4, 6]))):
        clock = draw(clocks)
        values = (
            (draw(_plan_values), draw(_plan_values), draw(_plan_values))
            if draw(st.integers(0, 3)) == 0
            else _triggering(draw, query, relation)
        )
        tuples.append(
            Tuple.from_schema(
                _plan_catalog.get(relation),
                values,
                pub_time=draw(st.sampled_from([0.0, low - 1.0, low + 0.5, high]))
                if by_sequence
                else clock,
                sequence=int(clock) if by_sequence else len(tuples) + 1,
            )
        )
    tuples.sort(key=lambda tup: (tup.pub_time, tup.sequence))
    # Index into the ring's addresses; the primary subscriber's owner is 1.
    extras = draw(st.lists(st.sampled_from([1, 1, 2, 0]), max_size=2))
    strategy = draw(st.sampled_from(["first", "rjoin"]))
    return query, relation, span, consumed, insertion_time, tuples, extras, strategy


def _describe(envelope):
    """What the differential compares of a posted envelope."""
    message = envelope.message
    payload = None
    if isinstance(message, AnswerMessage):
        payload = list(message.answers)
    elif isinstance(message, EvalMessage):
        state = message.state
        payload = (
            message.key.text, state.query, state.window_state, state.consumed,
            state.subscribers,
        )
    elif isinstance(message, RicRequestMessage):
        payload = (message.target_key.text, [key.text for key in message.pending])
    return message.kind, envelope.destination, envelope.weight, payload


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_trigger_cases())
def test_trigger_set_at_a_time_equals_tuple_at_a_time(case):
    """One ``_trigger`` over a key's tuples ≡ one ``_trigger`` per tuple.

    Same envelopes in the same order, same counters — and the tuples that
    reach ``rewrite_query`` are exactly those the trigger conditions as they
    were written one tuple at a time (``windows.admits`` is that rule) let
    through.
    """
    query, relation, span, consumed, insertion_time, tuples, extras, strategy = case
    schema = _plan_catalog.get(relation)
    outcomes = []
    for batched in (True, False):
        engine = RJoinEngine(
            RJoinConfig(num_nodes=8, seed=3, strategy=strategy), catalog=_plan_catalog
        )
        addresses = engine.ring.addresses
        node = engine.nodes[addresses[0]]
        state = QueryState(
            query_id="q0",
            owner=addresses[1],
            query=query,
            insertion_time=insertion_time,
            is_input=consumed == 0 and span is None,
            window_state=span,
            consumed=consumed,
            extra_subscribers=tuple(
                Subscriber(f"q{index + 1}", addresses[owner])
                for index, owner in enumerate(extras)
            ),
        )
        record = StoredQueryRecord(
            state=state,
            key=attribute_key(relation, "a0"),
            stored_at=0.0,
            tracker=node._make_tracker(state),
        )
        posted, rewritten = [], []
        post = engine.transport.post
        engine.transport.post = lambda envelope, delay: (
            posted.append(_describe(envelope)),
            post(envelope, delay),
        )
        original = node_module.rewrite_query

        def spy(query, tup, schema, plan=None):
            rewritten.append(tup)
            return original(query, tup, schema, plan)

        node_module.rewrite_query = spy
        try:
            if batched:
                node._trigger(record, tuples, schema)
            else:
                for tup in tuples:
                    node._trigger(record, (tup,), schema)
            node._flush_answers(engine.now)
        finally:
            node_module.rewrite_query = original
        outcomes.append(
            (
                posted,
                rewritten,
                engine.loads.node(node.address).answers_produced,
                engine.loads.per_node(),
                engine.churn.queries_triggered,
                engine.churn.shared_state_fanout,
            )
        )
        engine.close()
    assert outcomes[0] == outcomes[1]

    tracker = ProjectionTracker() if query.distinct and query.window is None else None
    admitted = [
        tup
        for tup in tuples
        if tup.pub_time >= insertion_time
        and admits(query.window, span, tup)
        and relation in query.relations
        and (tracker is None or tracker.admit_and_record(query, tup, schema))
    ]
    assert outcomes[0][1] == admitted
    complete = sum(rewrite_query(query, tup, schema).complete for tup in admitted)
    assert outcomes[0][2] == complete * (1 + len(extras))


# ---------------------------------------------------------------------------
# Compiled candidate plans vs the per-query enumeration they replaced
# ---------------------------------------------------------------------------
def _reference_candidates(query, allow_attribute_level):
    """``rewritten_query_candidates`` as it was before candidate plans.

    Explicit and implied selections from :func:`all_selections` (which runs
    the equality closure on the query itself), then the join attributes,
    deduplicated by key text.
    """
    candidates, seen = [], set()

    def add(key):
        if key.text not in seen:
            seen.add(key.text)
            candidates.append(key)

    for sp in all_selections(query):
        if sp.attribute.relation in query.relations:
            add(value_key(sp.attribute.relation, sp.attribute.attribute, sp.value))
    if allow_attribute_level:
        for jp in query.join_predicates:
            add(attribute_key(jp.left.relation, jp.left.attribute))
            add(attribute_key(jp.right.relation, jp.right.attribute))
    if not candidates:
        for ref in query.attribute_refs():
            if ref.relation in query.relations:
                add(attribute_key(ref.relation, ref.attribute))
    return candidates


@settings(max_examples=300, deadline=None)
@given(_plan_cases(), st.booleans())
def test_candidate_plans_enumerate_exactly_like_the_reference(case, allow):
    """Same keys in the same order for every live rewrite, step by step.

    The shapes — the trigger plans and the candidate plan each child shape
    compiled from the first child it met — are shared by every example of
    the run.
    """
    current, tuples = case
    # The public function, on shapes no live rewrite has: one attribute
    # selected twice with different constants.
    assert rewritten_query_candidates(current, allow) == _reference_candidates(
        current, allow
    )
    shape = _root_shape(current)
    for tup in tuples:
        schema = _plan_catalog.get(tup.relation)
        plan = shape.plan_for(current, tup.relation, schema)
        result = plan.apply(current, tup)
        if not result.alive:
            break
        child = result.query
        shape = plan.child_shape
        expected = _reference_candidates(child, allow)
        assert shape.candidate_plan(child).apply(child, allow) == expected
        assert rewritten_query_candidates(child, allow) == expected
        current = child


def test_unhashable_selection_constants_enumerate():
    a, b = AttributeRef("R0", "a0"), AttributeRef("R1", "a1")
    query = Query(
        select_items=(a,),
        relations=("R0", "R1"),
        join_predicates=(JoinPredicate(a, b),),
        selection_predicates=(SelectionPredicate(a, [1, 2]),),
    )
    assert rewritten_query_candidates(query) == [
        value_key("R0", "a0", [1, 2]),
        value_key("R1", "a1", [1, 2]),
        attribute_key("R0", "a0"),
        attribute_key("R1", "a1"),
    ]


# ---------------------------------------------------------------------------
# Window properties
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=6),
       st.integers(min_value=1, max_value=10))
def test_incremental_window_equals_global_check(clocks, size):
    """Incremental admission accepts a combination iff the global span fits."""
    window = WindowSpec(size=float(size), mode="time")
    state = None
    ok = True
    for clock in clocks:
        tup = Tuple(relation="R", values=(1,), pub_time=float(clock))
        if not admits(window, state, tup):
            ok = False
            break
        state = extend(window, state, tup)
    assert ok == combination_valid(window, tuple(float(c) for c in clocks))


@given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50))
def test_window_state_extension_is_commutative(a, b):
    base = WindowState(min_clock=10, max_clock=10)
    assert base.extended_with(a).extended_with(b) == base.extended_with(
        b
    ).extended_with(a)


# ---------------------------------------------------------------------------
# Key properties
# ---------------------------------------------------------------------------
@given(
    st.text(min_size=1, max_size=8),
    st.text(min_size=1, max_size=8),
    st.integers(min_value=0, max_value=99),
)
def test_value_keys_extend_their_attribute_prefix(relation, attribute, value):
    key = value_key(relation, attribute, value)
    assert key.text.startswith(key.attribute_prefix)
    assert key.at_attribute_level().text != key.text


# ---------------------------------------------------------------------------
# End-to-end equivalence on tiny random workloads
# ---------------------------------------------------------------------------
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=10, max_value=25),
)
def test_engine_matches_reference_on_random_workloads(seed, num_tuples):
    """RJoin delivers exactly the oracle's bag of answers (Theorems 1 and 2)."""
    rng = random.Random(seed)
    catalog = Catalog()
    catalog.add_relation("A", ["x", "y"])
    catalog.add_relation("B", ["x", "y"])
    catalog.add_relation("C", ["x", "y"])
    engine = RJoinEngine(RJoinConfig(num_nodes=12, seed=seed % 97), catalog=catalog)
    reference = ReferenceEngine(catalog)

    query = Query(
        select_items=(AttributeRef("A", "x"), AttributeRef("C", "y")),
        relations=("A", "B", "C"),
        join_predicates=(
            JoinPredicate(AttributeRef("A", "y"), AttributeRef("B", "x")),
            JoinPredicate(AttributeRef("B", "y"), AttributeRef("C", "x")),
        ),
    )
    handle = engine.submit(query)
    reference.submit(
        query, query_id=handle.query_id, insertion_time=handle.insertion_time
    )

    relations = ["A", "B", "C"]
    for _ in range(num_tuples):
        relation = rng.choice(relations)
        values = (rng.randint(0, 2), rng.randint(0, 2))
        tup = engine.publish(relation, values)
        reference.publish_tuple(tup)

    got = sorted(repr(v) for v in handle.values())
    expected = sorted(repr(v) for v in reference.answers(handle.query_id))
    assert got == expected


# ---------------------------------------------------------------------------
# Indexed node-local state vs naive scan semantics
# ---------------------------------------------------------------------------
_store_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "gc_time", "gc_seq", "lookup"]),
        st.integers(min_value=0, max_value=5),   # value / cutoff selector
        st.integers(min_value=0, max_value=30),  # clock component
    ),
    min_size=1,
    max_size=40,
)


@given(_store_ops)
def test_store_heap_expiry_matches_filter_semantics(ops):
    """Heap-based expiry removes exactly the records a full scan would."""
    from repro.data.store import TupleStore

    store = TupleStore()
    shadow = []  # (key, tuple) pairs still alive under naive filtering
    schema = _catalog.get("R")
    sequence = 0
    for op, value, clock in ops:
        if op == "add":
            sequence += 1
            tup = Tuple.from_schema(
                schema, (value, value), pub_time=float(clock), sequence=sequence
            )
            key = f"R\x1fa\x1f{value!r}"
            store.add(key, tup, now=float(clock))
            shadow.append((key, tup))
        elif op == "gc_time":
            cutoff = float(clock)
            expected = sum(1 for _, t in shadow if t.pub_time < cutoff)
            shadow = [(k, t) for k, t in shadow if t.pub_time >= cutoff]
            assert store.remove_published_before(cutoff) == expected
        elif op == "gc_seq":
            cutoff = value * 4
            expected = sum(1 for _, t in shadow if t.sequence < cutoff)
            shadow = [(k, t) for k, t in shadow if t.sequence >= cutoff]
            assert store.remove_sequenced_before(cutoff) == expected
        else:
            prefix = "R\x1fa\x1f"
            got = {t.identity for t in store.tuples_for_prefix(prefix)}
            expected_ids = {t.identity for _, t in shadow}
            assert got == expected_ids
        assert len(store) == len(shadow)
        assert store.distinct_tuples() == len({t.identity for _, t in shadow})


@given(
    st.lists(
        st.tuples(st.booleans(), st.floats(min_value=0, max_value=50)),
        min_size=1,
        max_size=40,
    ),
    st.floats(min_value=0.5, max_value=10),
)
def test_altt_heap_expiry_matches_filter_semantics(events, delta):
    """ALTT expiry drops exactly the entries older than Δ, in any add order."""
    from repro.core.altt import AttributeLevelTupleTable

    table = AttributeLevelTupleTable(delta=delta)
    shadow = []  # (key, received_at) of retained entries
    schema = _catalog.get("R")
    sequence = 0
    for is_expire, clock in events:
        if is_expire:
            cutoff = clock - delta
            expected = sum(1 for _, at in shadow if at < cutoff)
            shadow = [(k, at) for k, at in shadow if at >= cutoff]
            assert table.expire(now=clock) == expected
        else:
            sequence += 1
            tup = Tuple.from_schema(
                schema, (1, 1), pub_time=clock, sequence=sequence
            )
            key = f"R\x1fa{sequence % 3}"
            table.add(key, tup, now=clock)
            shadow.append((key, clock))
        assert len(table) == len(shadow)
