"""Seeded scenario, stream and attack builders (``repro.service.loadgen``)."""

import hashlib
import json

import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.rng import spawn_seeds
from repro.service.events import (
    AskSubmitted,
    ReferralEdge,
    Withdrawal,
    event_to_dict,
)
from repro.service.loadgen import (
    GRAPH_REGIMES,
    build_scenario,
    build_stream,
    scenario_event_stream,
)


def fingerprint(events):
    payload = json.dumps(
        [event_to_dict(event) for event in events],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestScenarioEventStream:
    def test_same_seed_same_stream(self):
        scenario = build_scenario(60, 3, 5, 1)
        assert scenario_event_stream(scenario, 7) == scenario_event_stream(
            scenario, 7
        )

    def test_different_seed_different_gaps(self):
        scenario = build_scenario(60, 3, 5, 1)
        a = scenario_event_stream(scenario, 7)
        b = scenario_event_stream(scenario, 8)
        assert [e.tick for e in a] != [e.tick for e in b]

    def test_referral_precedes_every_non_root_ask(self):
        scenario = build_scenario(60, 3, 5, 1)
        events = scenario_event_stream(scenario, 7)
        referred = set()
        for event in events:
            if isinstance(event, ReferralEdge):
                referred.add(event.child_id)
            elif isinstance(event, AskSubmitted):
                parent = scenario.tree.to_parent_map().get(event.user_id)
                if parent is not None and parent >= 0:
                    assert event.user_id in referred

    def test_ticks_non_decreasing(self):
        scenario = build_scenario(60, 3, 5, 1)
        events = scenario_event_stream(scenario, 7)
        ticks = [e.tick for e in events]
        assert ticks == sorted(ticks)

    def test_withdrawals_come_from_joined_users(self):
        scenario = build_scenario(60, 3, 5, 1)
        events = scenario_event_stream(scenario, 7, withdraw_fraction=0.2)
        joined = {e.user_id for e in events if isinstance(e, AskSubmitted)}
        leavers = [e.user_id for e in events if isinstance(e, Withdrawal)]
        assert leavers and set(leavers) <= joined
        assert len(set(leavers)) == len(leavers)  # without replacement

    def test_bad_withdraw_fraction_rejected(self):
        scenario = build_scenario(20, 2, 3, 1)
        with pytest.raises(ConfigurationError):
            scenario_event_stream(scenario, 7, withdraw_fraction=1.0)

    def test_bad_gap_rejected(self):
        scenario = build_scenario(20, 2, 3, 1)
        with pytest.raises(ConfigurationError):
            scenario_event_stream(scenario, 7, max_gap_ticks=-1)


class TestGraphRegimes:
    def test_cli_choices_match_the_registry(self):
        from repro.cli import _GRAPH_REGIME_NAMES

        assert set(_GRAPH_REGIME_NAMES) == set(GRAPH_REGIMES)

    def test_unknown_regime_rejected(self):
        with pytest.raises(ConfigurationError):
            build_scenario(60, 3, 5, 1, graph="bipartite")

    @pytest.mark.parametrize("graph", sorted(GRAPH_REGIMES))
    def test_regimes_are_deterministic(self, graph):
        a = build_scenario(60, 3, 5, 1, graph=graph)
        b = build_scenario(60, 3, 5, 1, graph=graph)
        assert a.tree.to_parent_map() == b.tree.to_parent_map()

    def test_regime_changes_forest_not_population(self):
        default = build_scenario(60, 3, 5, 1)
        rewired = build_scenario(60, 3, 5, 1, graph="watts-strogatz")
        # Same spawned user RNG stream: identical profiles either way.
        assert rewired.truthful_asks().keys() == default.truthful_asks().keys()
        assert {
            uid: default.population[uid].cost for uid in default.truthful_asks()
        } == {
            uid: rewired.population[uid].cost for uid in rewired.truthful_asks()
        }
        assert rewired.tree.to_parent_map() != default.tree.to_parent_map()

    def test_twitter_regime_is_the_historical_default(self):
        named = build_scenario(60, 3, 5, 1, graph="twitter")
        default = build_scenario(60, 3, 5, 1)
        assert named.tree.to_parent_map() == default.tree.to_parent_map()


class TestBuildStream:
    # Digests of the sentinel's clean-twitter stream, its sybil splice and
    # the ``rit serve --smoke`` stream: a change here moves the committed
    # ``sentinel``/``arena`` records and the serve smoke output with it.
    CLEAN_TWITTER_SHA = (
        "2715c52278fdc362bcb3eb39e734b126a83c5e679df9442b58c56e3845caeae9"
    )
    SYBIL_SHA = (
        "33531d185978beb88bd5673b2b74083f0005cbc27c6b375aec948998b4073604"
    )
    SERVE_SMOKE_SHA = (
        "39f87943b3604d757f51e3b9ea2cce85e95064f87d1ad91c3ecf9b9858299819"
    )
    SYBIL = {"kind": "sybil", "onset_epoch": 5, "epoch_max_events": 32,
             "seed": 101}

    def test_clean_twitter_sentinel_stream_is_pinned(self):
        job, clean, events, schedule = build_stream(5, 300, 3, 6)
        assert (len(clean), fingerprint(clean)) == (599, self.CLEAN_TWITTER_SHA)
        assert events is clean
        assert schedule is None
        assert job.counts == (6, 6, 6)

    def test_sybil_splice_is_pinned(self):
        _, clean, events, schedule = build_stream(
            5, 300, 3, 6, attack=self.SYBIL
        )
        assert fingerprint(clean) == self.CLEAN_TWITTER_SHA
        assert (len(events), fingerprint(events)) == (623, self.SYBIL_SHA)
        assert schedule["seed"] == 101
        assert schedule["victim"] == 46
        assert schedule["injected_events"] == 24

    def test_serve_smoke_stream_is_pinned(self):
        _, clean, _, _ = build_stream(0, 180, 3, 8, withdraw_fraction=0.05)
        assert (len(clean), fingerprint(clean)) == (368, self.SERVE_SMOKE_SHA)

    def test_matches_the_step_by_step_recipe(self):
        scenario_rng, stream_rng = spawn_seeds(3, 2)
        scenario = build_scenario(
            90, 2, 4, scenario_rng, graph="forest-fire"
        )
        expected = scenario_event_stream(
            scenario, stream_rng, withdraw_fraction=0.1
        )
        job, clean, _, _ = build_stream(
            3, 90, 2, 4, graph="forest-fire", withdraw_fraction=0.1
        )
        assert job == scenario.job
        assert clean == expected

    def test_rejects_non_positive_users(self):
        with pytest.raises(ConfigurationError):
            build_stream(0, 0, 3, 5)
