"""Query shapes: each is compiled once per engine, and the engine keeps few.

A :class:`~repro.core.rewriting.QueryShape` holds what every query of one
shape shares — a trigger plan per relation of FROM, a candidate plan and the
discriminator positions.  The engine hands every input query of one shape the
same object from a weak-valued registry of its own; every live rewrite gets
its plan's ``child_shape``.  So no (shape, relation) pair is compiled twice,
nothing is compiled or keyed on the publish path, and the registry holds one
entry per distinct shape of a live query.
"""

from __future__ import annotations

import gc

from repro.core import engine as engine_module
from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.rewriting import TriggerPlan
from repro.core.strategy import CandidatePlan
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

THREE_WAY = "SELECT R.a, T.f FROM R, S, T WHERE R.b = S.c AND S.d = T.e"


def three_way_engine(num_nodes=8):
    engine = RJoinEngine(RJoinConfig(num_nodes=num_nodes, seed=5))
    engine.register_relation("R", ["a", "b"])
    engine.register_relation("S", ["c", "d"])
    engine.register_relation("T", ["e", "f"])
    return engine


def reachable_shapes(engine):
    """Every shape the engine's input shapes lead to through their plans."""
    shapes, stack = [], list(engine._shapes.values())
    while stack:
        shape = stack.pop()
        shapes.append(shape)
        stack.extend(plan.child_shape for plan in shape.plans.values())
    return shapes


class TestShapeBound:
    def test_one_text_submitted_a_thousand_times_keeps_one_shape(self):
        engine = three_way_engine()
        handles = [engine.submit(THREE_WAY, process=False) for _ in range(1000)]
        engine.run()
        for values in range(3):
            engine.publish("R", (values, values))
            engine.publish("S", (values, values))
            engine.publish("T", (values, values))
        assert handles[0].values()
        (shape,) = engine._shapes.values()
        assert len(shape.plans) <= 3
        # At most one plan per FROM relation on every level below: 3 + 2 × 3
        # + 1 × 6 = 15 for a 3-way query.
        assert sum(len(each.plans) for each in reachable_shapes(engine)) <= 15
        engine.close()

    def test_the_registry_belongs_to_its_engine_and_empties_with_it(self):
        first, second = three_way_engine(), three_way_engine()
        handle = first.submit(THREE_WAY)
        second.submit(THREE_WAY)
        (mine,) = first._shapes.values()
        (theirs,) = second._shapes.values()
        assert mine is not theirs
        del mine, theirs
        first.remove_query(handle.query_id)
        gc.collect()
        assert len(first._shapes) == 0 and len(second._shapes) == 1
        first.close()
        second.close()


class TestCompileOnce:
    def test_every_shape_compiles_each_plan_once(self, monkeypatch):
        """6 nodes, 3 queries, 200 tuples: a plan built is a plan kept."""
        built = {TriggerPlan: [], CandidatePlan: []}
        for cls, made in built.items():
            def counting_init(self, *args, _init=cls.__init__, _made=made):
                _init(self, *args)
                _made.append(self)

            monkeypatch.setattr(cls, "__init__", counting_init)
        keyed = []
        shape_key = engine_module.shape_key
        monkeypatch.setattr(
            engine_module, "shape_key",
            lambda query: keyed.append(query) or shape_key(query),
        )
        generator = WorkloadGenerator(
            WorkloadSpec(num_relations=4, attributes_per_relation=3, value_domain=3,
                         join_arity=3, seed=11)
        )
        engine = RJoinEngine(RJoinConfig(num_nodes=6, seed=3))
        engine.register_catalog(generator.catalog)
        handles = [engine.submit(query) for query in generator.generate_queries(3)]
        assert len(keyed) == 3
        for generated in generator.generate_tuples(200):
            engine.publish(generated.relation, generated.values)
        assert len(keyed) == 3  # no shape key on the publish path
        assert sum(handle.count for handle in handles) > 0

        shapes = reachable_shapes(engine)
        kept_plans = [plan for shape in shapes for plan in shape.plans.values()]
        kept_candidates = [shape.candidates for shape in shapes if shape.candidates]
        assert built[TriggerPlan] and built[CandidatePlan]
        # Nothing built was dropped and built again: each (shape, relation)
        # pair built one trigger plan, each child shape one candidate plan.
        assert {id(plan) for plan in built[TriggerPlan]} == {
            id(plan) for plan in kept_plans
        }
        assert len(built[TriggerPlan]) == len(kept_plans)
        assert {id(plan) for plan in built[CandidatePlan]} == {
            id(plan) for plan in kept_candidates
        }
        assert len(built[CandidatePlan]) == len(kept_candidates)
        engine.close()
