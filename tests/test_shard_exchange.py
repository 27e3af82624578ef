"""Differential suite for the cross-shard content-id exchange.

The exchange resolver (:mod:`repro.mem.shard`) is the piece that makes
sharded execution deterministic: canonical holders elected by minimal
``(shard, pfn)``, intents emitted in sorted order, stale tables dropped
before resolution.  This suite proves it three ways:

* unit coverage of the topology math and table canonicalization;
* hypothesis-randomized cross-shard duplicate layouts, where the
  resolver must agree with :func:`~repro.mem.shard.verify_exchange`'s
  structurally different reference derivation under any permutation of
  the input tables;
* a seeded-mutant meta-test: each defect this suite plants by wrapping
  the resolver (dropped intent, inverted tiebreak, stale admission)
  must be caught by the verifier, also when patched in under the
  ledger — so the audit demonstrably has teeth;
* one large round (20k+ rows, many duplicate digests) where resolver
  and verifier must still agree;
* the five fusion engines running a sharded scenario end to end
  through the serial reference executor, byte-identical across runs,
  with every exported table canonical.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.harness.shardfleet import run_sharded_serial
from repro.mem import shard as shard_module
from repro.harness.spec import FleetSpec, ScenarioSpec, ScheduleSpec
from repro.harness.scenario import SystemConfig
from repro.mem.shard import (
    ExchangeOutcome,
    MergeIntent,
    RemoteShareLedger,
    ShardContentTable,
    ShardExchangeError,
    ShardMap,
    resolve_exchange,
    verify_exchange,
)
from repro.params import MS, SECOND
from repro.runner import sanitize


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------
class TestShardMap:
    def test_frames_partition_evenly(self):
        shard_map = ShardMap(shards=4, frames=4096)
        assert shard_map.frames_per_shard == 1024
        assert shard_map.shard_of_frame(0) == 0
        assert shard_map.shard_of_frame(1023) == 0
        assert shard_map.shard_of_frame(1024) == 1
        assert shard_map.shard_of_frame(4095) == 3

    def test_global_local_round_trip(self):
        shard_map = ShardMap(shards=4, frames=4096)
        for pfn in (0, 1, 1023, 1024, 2049, 4095):
            shard, local = shard_map.local_pfn(pfn)
            assert shard_map.global_pfn(shard, local) == pfn

    def test_vms_deal_round_robin(self):
        shard_map = ShardMap(shards=3, frames=3072)
        assert [shard_map.shard_of_vm(i) for i in range(6)] == [
            0, 1, 2, 0, 1, 2]

    def test_rejects_uneven_split(self):
        with pytest.raises(ValueError, match="divide evenly"):
            ShardMap(shards=3, frames=4096)

    def test_rejects_out_of_range(self):
        shard_map = ShardMap(shards=2, frames=2048)
        with pytest.raises(ValueError, match="outside machine"):
            shard_map.shard_of_frame(2048)
        with pytest.raises(ValueError, match="outside shard range"):
            shard_map.global_pfn(0, 1024)
        with pytest.raises(ValueError, match="outside"):
            shard_map.global_pfn(2, 0)


class TestTableBuild:
    def test_canonical_regardless_of_row_order(self):
        rows = [(7, 30, 1), (3, 10, 2), (7, 20, 3)]
        for permuted in (rows, rows[::-1], [rows[2], rows[0], rows[1]]):
            table = ShardContentTable.build(
                shard=1, round_no=0, generation=5, rows=permuted)
            assert [(e.digest, e.pfn, e.holders) for e in table.entries] \
                == [(3, 10, 2), (7, 20, 4)]

    def test_empty_rows(self):
        table = ShardContentTable.build(shard=0, round_no=2, generation=1,
                                        rows=[])
        assert table.entries == ()


# ---------------------------------------------------------------------------
# Resolver semantics
# ---------------------------------------------------------------------------
def table(shard, rows, round_no=0, generation=1):
    return ShardContentTable.build(shard=shard, round_no=round_no,
                                   generation=generation, rows=rows)


class TestResolver:
    def test_min_shard_pfn_wins(self):
        tables = [
            table(0, [(9, 40, 2)]),
            table(1, [(9, 5, 1)]),
            table(2, [(9, 3, 4)]),
        ]
        outcome = resolve_exchange(tables, round_no=0)
        assert [i.order_key for i in outcome.intents] == [
            (0, 40, 1, 5), (0, 40, 2, 3)]
        assert outcome.remote_saved_frames == 2
        assert outcome.exchanged_cids == 3

    def test_single_holder_emits_nothing(self):
        outcome = resolve_exchange([table(0, [(1, 0, 1)]),
                                    table(1, [(2, 0, 1)])], round_no=0)
        assert outcome.intents == ()
        assert outcome.remote_saved_frames == 0

    def test_permutation_invariant(self):
        tables = [table(s, [(d, s * 10 + d, 1) for d in range(4)])
                  for s in range(3)]
        baseline = resolve_exchange(tables, round_no=1)
        assert resolve_exchange(tables[::-1], round_no=1) == baseline
        assert resolve_exchange([tables[1], tables[2], tables[0]],
                                round_no=1) == baseline

    def test_stale_tables_dropped_before_resolution(self):
        fresh = table(0, [(5, 1, 1)], generation=10)
        stale = table(1, [(5, 2, 1)], generation=3)
        outcome = resolve_exchange([fresh, stale], round_no=0,
                                   min_generations={1: 7})
        assert outcome.intents == ()
        assert outcome.stale_entries_dropped == 1
        assert outcome.exchanged_cids == 1

    def test_duplicate_posts_keep_freshest(self):
        old = table(0, [(5, 9, 1)], generation=2)
        new = table(0, [(5, 4, 1)], generation=8)
        other = table(1, [(5, 6, 1)], generation=8)
        outcome = resolve_exchange([old, new, other], round_no=0)
        assert outcome.stale_entries_dropped == 1
        assert outcome.intents[0].source_pfn == 4


class TestLedger:
    def test_floors_advance_and_block_stale_reposts(self):
        ledger = RemoteShareLedger()
        ledger.resolve_round([table(0, [(5, 1, 1)], generation=10),
                              table(1, [(5, 2, 1)], generation=10)],
                             round_no=0)
        assert ledger.generations() == {0: 10, 1: 10}
        assert ledger.owner(5) == (0, 1)
        # A crashed-and-retried worker re-posting an older export must
        # be dropped as stale, never rolling the exchange backwards.
        outcome = ledger.resolve_round(
            [table(0, [(5, 7, 1)], generation=4, round_no=1),
             table(1, [(5, 2, 1)], generation=12, round_no=1)],
            round_no=1)
        assert outcome.stale_entries_dropped == 1
        assert outcome.intents == ()
        assert ledger.generations() == {0: 10, 1: 12}


# ---------------------------------------------------------------------------
# Hypothesis differential: resolver vs the independent reference
# ---------------------------------------------------------------------------
layouts = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),      # shard
        st.integers(min_value=0, max_value=9),      # digest
        st.integers(min_value=0, max_value=63),     # pfn
        st.integers(min_value=1, max_value=4),      # holders
    ),
    min_size=0, max_size=40,
)
generations = st.dictionaries(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=6),
    max_size=6,
)


def tables_from_layout(layout):
    by_shard: dict[int, list] = {}
    for shard, digest, pfn, holders in layout:
        by_shard.setdefault(shard, []).append((digest, pfn, holders))
    return [table(shard, rows, generation=4)
            for shard, rows in sorted(by_shard.items())]


class TestDifferential:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(layout=layouts, floors=generations, seed=st.randoms())
    def test_resolver_agrees_with_reference(self, layout, floors, seed):
        tables_ = tables_from_layout(layout)
        outcome = resolve_exchange(tables_, round_no=0,
                                   min_generations=floors)
        # The verifier re-derives everything per-pair; any divergence
        # raises.  Shuffling the fabric's delivery order must not
        # change a single field either.
        verify_exchange(tables_, outcome, min_generations=floors)
        shuffled = list(tables_)
        seed.shuffle(shuffled)
        assert resolve_exchange(shuffled, round_no=0,
                                min_generations=floors) == outcome

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(layout=layouts)
    def test_canonical_holder_is_minimal(self, layout):
        tables_ = tables_from_layout(layout)
        outcome = resolve_exchange(tables_, round_no=0)
        holders_by_digest: dict[int, list] = {}
        for t in tables_:
            for entry in t.entries:
                holders_by_digest.setdefault(entry.digest, []).append(
                    (t.shard, entry.pfn))
        for intent in outcome.intents:
            assert (intent.source_shard, intent.source_pfn) \
                == min(holders_by_digest[intent.digest])
        assert list(outcome.intents) == sorted(
            outcome.intents, key=lambda i: i.order_key)


# ---------------------------------------------------------------------------
# Seeded mutants: the audit must have teeth
# ---------------------------------------------------------------------------
MUTANT_TABLES = [
    table(0, [(3, 8, 1), (5, 2, 2)], generation=9),
    table(1, [(3, 1, 1), (5, 6, 1)], generation=9),
    table(2, [(5, 0, 1)], generation=1),  # stale under a floor of 5
]
MUTANT_FLOORS = {2: 5}


def mutant_stale(tables, *, round_no, min_generations=None):
    """Seeded defect: the ledger's staleness floors are ignored."""
    return resolve_exchange(tables, round_no=round_no)


def mutant_drop_intent(tables, *, round_no, min_generations=None):
    """Seeded defect: the last intent (a lost interconnect message)."""
    outcome = resolve_exchange(tables, round_no=round_no,
                               min_generations=min_generations)
    return dataclasses.replace(outcome, intents=outcome.intents[:-1])


def mutant_tiebreak(tables, *, round_no, min_generations=None):
    """Seeded defect: the maximal ``(shard, pfn)`` holder wins."""
    outcome = resolve_exchange(tables, round_no=round_no,
                               min_generations=min_generations)
    holders = {(t.shard, e.pfn): e.holders
               for t in tables for e in t.entries}
    members: dict[int, set[tuple[int, int]]] = {}
    for intent in outcome.intents:
        group = members.setdefault(
            intent.digest, {(intent.source_shard, intent.source_pfn)})
        group.add((intent.target_shard, intent.target_pfn))
    intents = []
    for digest, group in members.items():
        (src_shard, src_pfn), *targets = sorted(group, reverse=True)
        intents.extend(
            MergeIntent(digest=digest, source_shard=src_shard,
                        source_pfn=src_pfn, target_shard=tgt_shard,
                        target_pfn=tgt_pfn,
                        holders=holders[(tgt_shard, tgt_pfn)])
            for tgt_shard, tgt_pfn in targets
        )
    intents.sort(key=lambda intent: intent.order_key)
    return dataclasses.replace(outcome, intents=tuple(intents))


MUTANT_RESOLVERS = {
    "drop-intent": mutant_drop_intent,
    "tiebreak": mutant_tiebreak,
    "stale": mutant_stale,
}


class TestSeededMutants:
    def test_layout_is_sensitive(self):
        # Sanity: the pristine resolver passes on this layout and
        # produces enough structure for every mutant to matter.
        outcome = resolve_exchange(MUTANT_TABLES, round_no=0,
                                   min_generations=MUTANT_FLOORS)
        verify_exchange(MUTANT_TABLES, outcome,
                        min_generations=MUTANT_FLOORS)
        assert len(outcome.intents) >= 2
        assert outcome.stale_entries_dropped == 1

    @pytest.mark.parametrize("mutant", ["drop-intent", "tiebreak", "stale"])
    def test_mutant_is_caught(self, mutant):
        outcome = MUTANT_RESOLVERS[mutant](MUTANT_TABLES, round_no=0,
                                           min_generations=MUTANT_FLOORS)
        with pytest.raises(ShardExchangeError):
            verify_exchange(MUTANT_TABLES, outcome,
                            min_generations=MUTANT_FLOORS)

    def test_mutants_change_the_outcome(self):
        # Each seeded defect really perturbs the exchange (no vacuous
        # catches): intents shrink, the tiebreak flips, stale admits.
        pristine = resolve_exchange(MUTANT_TABLES, round_no=0,
                                    min_generations=MUTANT_FLOORS)
        for mutant, resolver in MUTANT_RESOLVERS.items():
            mutated = resolver(MUTANT_TABLES, round_no=0,
                               min_generations=MUTANT_FLOORS)
            assert mutated != pristine, mutant

    @pytest.mark.parametrize("mutant", ["drop-intent", "tiebreak", "stale"])
    def test_ledger_audit_catches_patched_mutant(self, mutant, monkeypatch):
        # The production path: the ledger resolves through the module's
        # resolver and audits every round.  Round 0 raises shard 2's
        # floor to 5; round 1 replays MUTANT_TABLES against it.
        ledger = RemoteShareLedger()
        ledger.resolve_round([table(2, [], generation=5)], round_no=0)
        assert ledger.generations() == MUTANT_FLOORS
        monkeypatch.setattr(shard_module, "resolve_exchange",
                            MUTANT_RESOLVERS[mutant])
        with pytest.raises(ShardExchangeError):
            ledger.resolve_round(MUTANT_TABLES, round_no=1)


class TestLargeRound:
    def test_resolver_and_verifier_agree_on_large_round(self):
        """24k rows: 24 shards each advertise 1000 of 3000 digests, so
        each digest is one run of ~8 holders in the verifier's sort."""
        rng = random.Random(1017)
        tables_ = [
            table(shard, [(digest, rng.randrange(1 << 20), rng.randrange(1, 5))
                          for digest in rng.sample(range(3000), 1000)],
                  generation=3)
            for shard in range(24)
        ]
        rows = sum(len(t.entries) for t in tables_)
        assert rows == 24_000
        outcome = resolve_exchange(tables_, round_no=0)
        verify_exchange(tables_, outcome)
        assert outcome.exchanged_cids == rows
        shared = {e.digest for t in tables_ for e in t.entries}
        assert outcome.remote_saved_frames == rows - len(shared)
        assert len(outcome.intents) == outcome.remote_saved_frames


# ---------------------------------------------------------------------------
# All five engines, sharded, against the serial reference
# ---------------------------------------------------------------------------
ENGINE_CONFIGS = {
    "ksm": SystemConfig(label="KSM", engine="ksm"),
    "wpf": SystemConfig(label="WPF", engine="wpf", wpf_interval=100 * MS),
    "zeropage": SystemConfig(label="ZP", engine="zeropage"),
    "memory-combining": SystemConfig(label="MC", engine="memory-combining"),
    "vusion": SystemConfig(label="VUsion", engine="vusion"),
}


def sharded_spec(engine: str, shards: int = 2) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"xshard-{engine}",
        system=ENGINE_CONFIGS[engine],
        fleet=FleetSpec(vms=4, image_families=2, pages_per_vm=64,
                        max_resident=2, lifetime_ns=SECOND,
                        arrival_interval_ns=125 * MS),
        schedule=ScheduleSpec(settle_ns=SECOND),
        frames=2048 * shards,
        seed=1017,
        shards=shards,
    )


@pytest.mark.parametrize("engine", sorted(ENGINE_CONFIGS))
class TestEngineDifferential:
    def test_sharded_run_is_reproducible(self, engine):
        spec = sharded_spec(engine)
        first = run_sharded_serial(spec)
        second = run_sharded_serial(spec)
        assert json.dumps(sanitize(first.to_payload()), sort_keys=True) \
            == json.dumps(sanitize(second.to_payload()), sort_keys=True)
        exchange = first.totals["exchange"]
        assert exchange["rounds"] >= 1
        assert first.totals["shards"] == 2
        assert len(first.totals["per_shard"]) == 2
        assert sum(entry["booted_vms"]
                   for entry in first.totals["per_shard"]) == 4

    def test_exports_are_canonical(self, engine):
        # Every table an engine ships must already be in canonical
        # (digest-sorted, duplicate-free) form with pfns in-range.
        from repro.harness.shardfleet import run_one_shard

        spec = sharded_spec(engine)
        result = run_one_shard(spec, 0)
        for table_ in result.tables:
            digests = [entry.digest for entry in table_.entries]
            assert digests == sorted(digests)
            assert len(set(digests)) == len(digests)
            for entry in table_.entries:
                assert 0 <= entry.pfn < spec.frames // spec.shards
                assert entry.holders >= 1
