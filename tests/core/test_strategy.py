"""Tests for candidate enumeration and the four indexing strategies."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.keys import attribute_key, value_key
from repro.core.strategy import (
    FirstCandidateStrategy,
    RJoinStrategy,
    RandomStrategy,
    WorstStrategy,
    available_strategies,
    input_query_candidates,
    make_strategy,
    rewritten_query_candidates,
)
from repro.errors import ConfigurationError
from repro.sql.parser import parse_query


def rng():
    return random.Random(0)


class TestInputCandidates:
    def test_candidates_cover_every_where_clause_pair(self):
        query = parse_query(
            "SELECT R.a FROM R, S, T WHERE R.a = S.b AND S.c = T.d", validate=False
        )
        candidates = input_query_candidates(query)
        assert attribute_key("R", "a") in candidates
        assert attribute_key("S", "b") in candidates
        assert attribute_key("S", "c") in candidates
        assert attribute_key("T", "d") in candidates
        assert all(not key.is_value_level for key in candidates)

    def test_selection_pairs_included(self):
        query = parse_query("SELECT R.a FROM R WHERE R.b = 5", validate=False)
        assert attribute_key("R", "b") in input_query_candidates(query)

    def test_fallback_to_select_list(self):
        query = parse_query("SELECT R.a FROM R")
        assert input_query_candidates(query) == [attribute_key("R", "a")]

    def test_no_duplicates(self):
        query = parse_query(
            "SELECT R.a FROM R, S WHERE R.a = S.b AND R.a = S.c", validate=False
        )
        candidates = input_query_candidates(query)
        assert len(candidates) == len(set(candidates))


class TestRewrittenCandidates:
    def test_value_level_from_explicit_and_implied_selections(self):
        query = parse_query(
            "SELECT S.a FROM S, T WHERE S.b = 3 AND S.c = T.d AND T.d = 7",
            validate=False,
        )
        candidates = rewritten_query_candidates(query, allow_attribute_level=False)
        assert value_key("S", "b", 3) in candidates
        assert value_key("T", "d", 7) in candidates
        # implied: S.c = 7 through S.c = T.d = 7
        assert value_key("S", "c", 7) in candidates
        assert all(key.is_value_level for key in candidates)

    def test_attribute_level_family_included_when_allowed(self):
        query = parse_query(
            "SELECT S.a FROM S, T WHERE S.b = 3 AND S.c = T.d", validate=False
        )
        with_attr = rewritten_query_candidates(query, allow_attribute_level=True)
        without = rewritten_query_candidates(query, allow_attribute_level=False)
        assert attribute_key("S", "c") in with_attr
        assert attribute_key("T", "d") in with_attr
        assert attribute_key("S", "c") not in without

    def test_value_candidates_only_for_remaining_relations(self):
        query = parse_query(
            "SELECT S.a FROM S WHERE S.b = 3", validate=False
        )
        candidates = rewritten_query_candidates(query)
        assert candidates == [value_key("S", "b", 3)]

    def test_fallback_when_no_selections(self):
        query = parse_query("SELECT S.a FROM S, T WHERE S.b = T.c", validate=False)
        candidates = rewritten_query_candidates(query, allow_attribute_level=False)
        assert candidates  # falls back to attribute-level pairs
        assert all(not key.is_value_level for key in candidates)


class TestStrategies:
    def setup_method(self):
        self.candidates = [
            attribute_key("R", "a"),
            value_key("S", "b", 1),
            value_key("T", "c", 2),
        ]
        self.rates = {
            self.candidates[0].text: 50.0,
            self.candidates[1].text: 5.0,
            self.candidates[2].text: 1.0,
        }

    def test_rjoin_picks_lowest_rate(self):
        assert (
            RJoinStrategy().choose(self.candidates, self.rates, rng())
            == self.candidates[2]
        )

    def test_rjoin_tie_break_prefers_value_level(self):
        rates = {key.text: 0.0 for key in self.candidates}
        chosen = RJoinStrategy().choose(self.candidates, rates, rng())
        assert chosen.is_value_level

    def test_worst_picks_highest_rate(self):
        assert (
            WorstStrategy().choose(self.candidates, self.rates, rng())
            == self.candidates[0]
        )

    def test_worst_tie_break_prefers_attribute_level(self):
        rates = {key.text: 0.0 for key in self.candidates}
        chosen = WorstStrategy().choose(self.candidates, rates, rng())
        assert not chosen.is_value_level

    def test_random_is_uniform_over_candidates(self):
        strategy = RandomStrategy()
        seen = {
            strategy.choose(self.candidates, {}, random.Random(i)).text
            for i in range(50)
        }
        assert len(seen) == len(self.candidates)

    def test_first_picks_document_order(self):
        assert (
            FirstCandidateStrategy().choose(self.candidates, self.rates, rng())
            == self.candidates[0]
        )

    def test_missing_rates_default_to_zero(self):
        chosen = RJoinStrategy().choose(self.candidates, {}, rng())
        assert chosen.is_value_level

    def test_empty_candidates_rejected(self):
        for strategy in (
            RJoinStrategy(),
            WorstStrategy(),
            RandomStrategy(),
            FirstCandidateStrategy(),
        ):
            with pytest.raises(ConfigurationError):
                strategy.choose([], {}, rng())

    def test_requires_ric_flags(self):
        assert RJoinStrategy().requires_ric
        assert not WorstStrategy().requires_ric
        assert WorstStrategy().uses_oracle
        assert not RandomStrategy().requires_ric
        assert not FirstCandidateStrategy().uses_oracle


# ---------------------------------------------------------------------------
# which questions are worth asking
# ---------------------------------------------------------------------------
_keys = st.builds(
    lambda relation, attribute, value: attribute_key(relation, attribute)
    if value is None
    else value_key(relation, attribute, value),
    st.sampled_from("RST"),
    st.sampled_from("abc"),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
)
#: Counts, never below zero; zero is what a quiet key reports, so it is common.
_rates = st.one_of(st.just(0.0), st.integers(min_value=0, max_value=5).map(float))


class TestWorthAsking:
    # Value level before attribute level, then by text: the tie-break order.
    low, high = value_key("S", "b", 5), value_key("S", "b", 6)
    level = attribute_key("R", "a")

    @given(
        candidates=st.lists(_keys, min_size=1, max_size=6, unique_by=lambda k: k.text),
        is_known=st.lists(st.booleans(), min_size=6, max_size=6),
        rate_of=st.lists(_rates, min_size=6, max_size=6),
    )
    def test_no_answer_of_a_spared_key_changes_the_choice(
        self, candidates, is_known, rate_of
    ):
        """Whatever every unknown key would have answered: ``choose`` on the
        known rates plus the answers of the keys worth asking — the spared
        ones absent — returns what it returns with every answer at hand."""
        strategy = RJoinStrategy()
        answers = {key.text: rate for key, rate in zip(candidates, rate_of)}
        known = {
            key.text: answers[key.text]
            for key, known in zip(candidates, is_known)
            if known
        }
        asked = strategy.worth_asking(candidates, known)
        assert all(key in candidates and key.text not in known for key in asked)
        gathered = {**known, **{key.text: answers[key.text] for key in asked}}
        assert strategy.choose(candidates, gathered, rng()) == strategy.choose(
            candidates, answers, rng()
        )

    def test_a_lone_candidate_is_no_question(self):
        assert RJoinStrategy().worth_asking([value_key("S", "b", 5)], {}) == []

    def test_with_nothing_known_or_a_busy_best_key_every_unknown_is_asked(self):
        low, high, level = self.low, self.high, self.level
        strategy = RJoinStrategy()
        assert strategy.worth_asking([low, high, level], {}) == [low, high, level]
        assert strategy.worth_asking([low, high, level], {high.text: 2.0}) == [
            low, level,
        ]

    def test_a_quiet_known_key_spares_what_cannot_win_the_tie(self):
        low, high, level = self.low, self.high, self.level
        # Only ``low`` can still beat ``high`` standing at 0.0.
        assert RJoinStrategy().worth_asking(
            [level, high, low], {high.text: 0.0}
        ) == [low]
        assert RJoinStrategy().worth_asking([level, low], {low.text: 0.0}) == []

    def test_a_strategy_that_says_nothing_about_its_choice_asks_everything(self):
        low, level = self.low, self.level
        assert WorstStrategy().worth_asking([low, level], {low.text: 0.0}) == [level]


class TestFactory:
    def test_make_strategy_by_name(self):
        assert isinstance(make_strategy("rjoin"), RJoinStrategy)
        assert isinstance(make_strategy("WORST"), WorstStrategy)
        assert isinstance(make_strategy("random"), RandomStrategy)
        assert isinstance(make_strategy("first"), FirstCandidateStrategy)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            make_strategy("optimal")

    def test_available_strategies(self):
        assert set(available_strategies()) == {"first", "random", "rjoin", "worst"}
