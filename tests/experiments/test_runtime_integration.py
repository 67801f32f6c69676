"""Parallel-vs-serial determinism and the cache-backed selections.

The acceptance bar for the runtime layer: fanning work out over a
process pool must not change a single byte of any result, and the
content-addressed cache must key on *all* selection options so that,
e.g., selections at different buffer widths can never alias.
"""

from __future__ import annotations

import copyreg
import pickle

import pytest

from repro.debug.campaign import ValidationCampaign
from repro.debug.casestudies import case_studies
from repro.debug.rootcause import root_cause_catalog
from repro.debug.session import DebugSession
from repro.experiments.bugsweep import bug_sweep, format_bug_sweep
from repro.experiments.common import (
    BUFFER_WIDTH,
    scenario_selection,
    selection_key,
    warm_cache,
)
from repro.core.interleave import InterleavedFlow
from repro.runtime.cache import ArtifactCache, default_cache, set_default_cache
from repro.selection.localization import PathLocalizer
from repro.selection.planner import format_plan, plan_buffer


class TestCacheBackedSelections:
    def test_key_includes_buffer_width(self):
        wide = scenario_selection(1)
        narrow = scenario_selection(1, buffer_width=16)
        assert wide.with_packing.buffer_width == BUFFER_WIDTH
        assert narrow.with_packing.buffer_width == 16
        # and the wide bundle is untouched by the narrow computation
        assert scenario_selection(1) is wide

    def test_key_includes_method(self):
        sc = scenario_selection(1).scenario
        exhaustive = selection_key(1, 1, 32, "exhaustive", sc)
        knapsack = selection_key(1, 1, 32, "knapsack", sc)
        assert exhaustive != knapsack

    def test_key_includes_instances(self):
        sc = scenario_selection(1).scenario
        assert selection_key(1, 1, 32, "exhaustive", sc) != \
            selection_key(1, 2, 32, "exhaustive", sc)

    def test_warm_cache_returns_all_numbers(self):
        bundles = warm_cache()
        assert set(bundles) == {1, 2, 3}

    def test_selection_artifacts_hit_cache(self):
        stats = default_cache().stats
        scenario_selection(2)
        hits_before = stats.hits
        scenario_selection(2)
        assert stats.hits == hits_before + 1


class _UntaggedProductPickler(pickle.Pickler):
    """Writes every interleaved product as a plain attribute dict -- an
    untagged layout, like entries cached before the state-code one."""

    def reducer_override(self, obj):
        if type(obj) is InterleavedFlow:
            state = {
                "components": obj.components,
                "states": obj.states,
                "initial": obj.initial,
                "stop": obj.stop,
                "transitions": obj.transitions,
            }
            return copyreg.__newobj__, (InterleavedFlow,), state
        return NotImplemented


class TestStaleProductEntry:
    def test_untagged_entry_is_discarded_and_recomputed(self, tmp_path):
        try:
            cold = ArtifactCache(tmp_path)
            set_default_cache(cold)
            bundle = scenario_selection(1)
            (entry,) = tmp_path.glob("*.pkl")
            with entry.open("wb") as stream:
                _UntaggedProductPickler(
                    stream, pickle.HIGHEST_PROTOCOL
                ).dump(bundle)

            stale = ArtifactCache(tmp_path)
            set_default_cache(stale)
            rebuilt = scenario_selection(1)
            assert stale.stats.load_errors == 1
            assert stale.stats.misses == 1
            interleaved = rebuilt.scenario.interleaved()
            assert interleaved.csr_adjacency() == (
                bundle.scenario.interleaved().csr_adjacency()
            )
            traced = rebuilt.with_packing.traced
            assert PathLocalizer(interleaved, traced).localize(
                []
            ).consistent_paths == interleaved.count_paths()

            warm = ArtifactCache(tmp_path)
            set_default_cache(warm)
            scenario_selection(1)
            assert warm.stats.disk_hits == 1
            assert warm.stats.load_errors == 0
        finally:
            set_default_cache(None)


class TestParallelDeterminism:
    def test_bug_sweep_parallel_matches_serial(self):
        serial = bug_sweep(jobs=1)
        parallel = bug_sweep(jobs=2)
        assert serial.entries == parallel.entries
        assert serial.dormant == parallel.dormant
        assert format_bug_sweep(serial) == format_bug_sweep(parallel)

    def test_campaign_parallel_matches_serial(self):
        bundle = scenario_selection(1)
        session = DebugSession(
            bundle.scenario,
            bundle.with_packing.traced,
            root_cause_catalog(1),
        )
        cs = case_studies()[1]
        campaign = ValidationCampaign(session)
        serial = campaign.run(cs.active_bug, seeds=range(6), jobs=1)
        parallel = campaign.run(cs.active_bug, seeds=range(6), jobs=2)
        assert serial.runs == parallel.runs
        assert serial.total_messages_investigated == \
            parallel.total_messages_investigated
        assert serial.pairs_investigated == parallel.pairs_investigated
        assert [c.cause_id for c in serial.plausible_causes] == \
            [c.cause_id for c in parallel.plausible_causes]
        assert serial.best_localization == parallel.best_localization

    def test_planner_parallel_matches_serial(self):
        bundle = scenario_selection(1)
        interleaved = bundle.scenario.interleaved()
        subgroups = bundle.scenario.subgroup_pool
        widths = (8, 16, 24, 32)
        serial = plan_buffer(
            interleaved, widths=widths, subgroups=subgroups, jobs=1
        )
        parallel = plan_buffer(
            interleaved, widths=widths, subgroups=subgroups, jobs=2
        )
        assert serial.points == parallel.points
        assert format_plan(serial) == format_plan(parallel)
