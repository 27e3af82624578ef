"""NUMA-style shard topology and the deterministic content-id exchange.

One big scenario is partitioned into ``shards`` NUMA-node-style shards:
each shard owns a contiguous range of the global frame space and a
round-robin slice of the VM plan, and runs its local scan passes with
the existing batch scan kernel, fully independently.  Once per scan
round every shard exports a compact :class:`ShardContentTable` — the
``(digest, canonical pfn, holders)`` rows its fusion engine is willing
to advertise cross-shard — and :func:`resolve_exchange` folds the
tables of one round into :class:`MergeIntent` messages.

Determinism contract (the scenario-level ``-j1 == -jN``): the resolver
is a pure function of the admitted tables.  Cross-shard duplicates
elect their canonical holder by **minimal (shard, pfn)**, intents are
emitted in sorted ``(source shard, source pfn, target shard, target
pfn)`` order, and stale tables (an older generation than the ledger has
already admitted for that shard) are dropped *before* resolution — so
any worker count, interleaving or retry history produces bit-identical
exchange outcomes.  :func:`verify_exchange` is an independent
re-derivation used by the differential suite and the global ledger
audit; ``tests/test_shard_exchange.py`` seeds the resolver defects it
must catch by patching the resolver there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError

#: Simulated interconnect service per exported table row (digest +
#: canonical pfn + holder count over the node fabric).  Charged to the
#: ``shardx`` daemon account off the critical path.
EXCHANGE_ENTRY_NS = 120
#: Simulated coordinator service per resolved merge intent.
RESOLVE_INTENT_NS = 400


class ShardExchangeError(ReproError):
    """A shard exchange violated the determinism/audit contract."""


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ShardMap:
    """Static partition of one machine into NUMA-node-style shards.

    Frames are split into ``shards`` equal contiguous ranges; VMs are
    dealt round-robin by plan index.  Both assignments are pure
    functions of the topology, so every worker derives the identical
    partition from the spec alone.
    """

    shards: int
    frames: int

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.frames < 1 or self.frames % self.shards != 0:
            raise ValueError(
                f"frames ({self.frames}) must divide evenly into "
                f"{self.shards} shard(s)"
            )

    @property
    def frames_per_shard(self) -> int:
        return self.frames // self.shards

    def shard_of_frame(self, pfn: int) -> int:
        """Owning shard of a *global* frame number."""
        if not 0 <= pfn < self.frames:
            raise ValueError(f"pfn {pfn} outside machine of {self.frames}")
        return pfn // self.frames_per_shard

    def shard_of_vm(self, plan_index: int) -> int:
        """Owning shard of a VM by its plan index (round-robin deal)."""
        return plan_index % self.shards

    def global_pfn(self, shard: int, local_pfn: int) -> int:
        """Translate a shard-local pfn into the global frame space."""
        self._check_shard(shard)
        if not 0 <= local_pfn < self.frames_per_shard:
            raise ValueError(f"local pfn {local_pfn} outside shard range")
        return shard * self.frames_per_shard + local_pfn

    def local_pfn(self, pfn: int) -> tuple[int, int]:
        """Translate a global pfn into ``(shard, local pfn)``."""
        shard = self.shard_of_frame(pfn)
        return shard, pfn - shard * self.frames_per_shard

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self.shards:
            raise ValueError(f"shard {shard} outside [0, {self.shards})")


# ---------------------------------------------------------------------------
# Export tables
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ShardExportEntry:
    """One advertised content: digest, canonical local pfn, holders."""

    digest: int
    pfn: int
    holders: int


@dataclass(frozen=True)
class ShardContentTable:
    """One shard's compact export for one exchange round."""

    shard: int
    round_no: int
    #: Monotonic per-shard freshness token (the shard clock at export).
    generation: int
    entries: tuple[ShardExportEntry, ...]

    @classmethod
    def build(cls, shard: int, round_no: int, generation: int,
              rows) -> "ShardContentTable":
        """Normalize raw ``(digest, pfn, holders)`` rows into a table.

        Duplicate digests collapse to their minimal pfn with holder
        counts summed; entries come out digest-sorted, so the table is
        canonical no matter what order the engine walked its frames.
        """
        merged: dict[int, tuple[int, int]] = {}
        for digest, pfn, holders in rows:
            if digest in merged:
                prev_pfn, prev_holders = merged[digest]
                merged[digest] = (min(prev_pfn, pfn), prev_holders + holders)
            else:
                merged[digest] = (pfn, holders)
        entries = tuple(
            ShardExportEntry(digest=digest, pfn=pfn, holders=holders)
            for digest, (pfn, holders) in sorted(merged.items())
        )
        return cls(shard=shard, round_no=round_no, generation=generation,
                   entries=entries)


# ---------------------------------------------------------------------------
# Exchange resolution
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MergeIntent:
    """One cross-shard merge message: fold target into source.

    ``source`` is the canonical holder (minimal ``(shard, pfn)`` among
    all shards advertising the digest); the target shard is asked to
    drop its local canonical copy in favour of a remote mapping.
    """

    digest: int
    source_shard: int
    source_pfn: int
    target_shard: int
    target_pfn: int
    holders: int

    @property
    def order_key(self) -> tuple[int, int, int, int]:
        return (self.source_shard, self.source_pfn,
                self.target_shard, self.target_pfn)


@dataclass(frozen=True)
class ExchangeOutcome:
    """Deterministic result of resolving one round's tables."""

    round_no: int
    intents: tuple[MergeIntent, ...]
    #: Total content ids shipped over the interconnect this round.
    exchanged_cids: int
    #: Frames the fabric could reclaim if every intent were applied:
    #: one per non-canonical shard per cross-shard digest.
    remote_saved_frames: int
    #: Entries dropped because their table was stale (old generation).
    stale_entries_dropped: int

    @property
    def applied(self) -> int:
        return len(self.intents)

    def charge_ns(self) -> int:
        """Simulated coordinator service for this round's resolution."""
        return RESOLVE_INTENT_NS * len(self.intents)


def _admit(tables, min_generations) -> tuple[list[ShardContentTable], int]:
    """Filter one round's tables: freshest per shard, no stale posts."""
    freshest: dict[int, ShardContentTable] = {}
    stale = 0
    for table in tables:
        floor = (min_generations or {}).get(table.shard, 0)
        if table.generation < floor:
            stale += len(table.entries)
            continue
        kept = freshest.get(table.shard)
        if kept is None or table.generation > kept.generation:
            if kept is not None:
                stale += len(kept.entries)
            freshest[table.shard] = table
        else:
            stale += len(table.entries)
    admitted = [freshest[shard] for shard in sorted(freshest)]
    return admitted, stale


def resolve_exchange(tables, *, round_no: int,
                     min_generations: dict[int, int] | None = None
                     ) -> ExchangeOutcome:
    """Resolve one round of shard exports into merge intents.

    Pure in the (admitted) tables: any permutation of ``tables`` yields
    the same outcome.  ``min_generations`` is the ledger's staleness
    floor per shard.
    """
    admitted, stale = _admit(tables, min_generations)
    exchanged = sum(len(table.entries) for table in admitted)
    by_digest: dict[int, list[tuple[int, int, int]]] = {}
    for table in admitted:
        for entry in table.entries:
            by_digest.setdefault(entry.digest, []).append(
                (table.shard, entry.pfn, entry.holders)
            )
    intents: list[MergeIntent] = []
    remote_saved = 0
    for digest in sorted(by_digest):
        holders = sorted(by_digest[digest])
        if len(holders) < 2:
            continue
        src_shard, src_pfn, _ = holders[0]
        remote_saved += len(holders) - 1
        for tgt_shard, tgt_pfn, tgt_holders in holders[1:]:
            intents.append(MergeIntent(
                digest=digest, source_shard=src_shard, source_pfn=src_pfn,
                target_shard=tgt_shard, target_pfn=tgt_pfn,
                holders=tgt_holders,
            ))
    intents.sort(key=lambda intent: intent.order_key)
    return ExchangeOutcome(
        round_no=round_no, intents=tuple(intents), exchanged_cids=exchanged,
        remote_saved_frames=remote_saved, stale_entries_dropped=stale,
    )


def verify_exchange(tables, outcome: ExchangeOutcome, *,
                    min_generations: dict[int, int] | None = None) -> None:
    """Independently re-derive the exchange and cross-check ``outcome``.

    This is the global ledger audit: a second, structurally different
    derivation (per-pair scan instead of group-by-digest) that must
    agree field for field.  Raises :class:`ShardExchangeError` on any
    divergence — including every seeded mutant of the resolver.
    """
    admitted, stale = _admit(tables, min_generations)
    if outcome.stale_entries_dropped != stale:
        raise ShardExchangeError(
            f"exchange round {outcome.round_no}: resolver admitted "
            f"{outcome.stale_entries_dropped} stale entries, audit "
            f"expected {stale}"
        )
    exchanged = sum(len(table.entries) for table in admitted)
    if outcome.exchanged_cids != exchanged:
        raise ShardExchangeError(
            f"exchange round {outcome.round_no}: exchanged_cids "
            f"{outcome.exchanged_cids} != audited {exchanged}"
        )
    # Reference derivation: one flat sort, so each digest's holders are
    # one contiguous, (shard, pfn)-ordered run; canonical = its first.
    flat = sorted(
        (entry.digest, table.shard, entry.pfn, entry.holders)
        for table in admitted for entry in table.entries
    )
    expected: list[MergeIntent] = []
    saved = 0
    index = 0
    while index < len(flat):
        digest = flat[index][0]
        end = index + 1
        while end < len(flat) and flat[end][0] == digest:
            end += 1
        group = flat[index:end]
        index = end
        if len(group) < 2:
            continue
        _, src_shard, src_pfn, _ = group[0]
        saved += len(group) - 1
        for _, tgt_shard, tgt_pfn, tgt_holders in group[1:]:
            expected.append(MergeIntent(
                digest=digest, source_shard=src_shard, source_pfn=src_pfn,
                target_shard=tgt_shard, target_pfn=tgt_pfn,
                holders=tgt_holders,
            ))
    expected.sort(key=lambda intent: intent.order_key)
    if list(outcome.intents) != expected:
        raise ShardExchangeError(
            f"exchange round {outcome.round_no}: intent stream diverges "
            f"from the (shard, pfn)-ordered reference "
            f"({len(outcome.intents)} vs {len(expected)} intents)"
        )
    if outcome.remote_saved_frames != saved:
        raise ShardExchangeError(
            f"exchange round {outcome.round_no}: remote_saved_frames "
            f"{outcome.remote_saved_frames} != audited {saved}"
        )


# ---------------------------------------------------------------------------
# Cross-round ledger
# ---------------------------------------------------------------------------
@dataclass
class RemoteShareLedger:
    """Coordinator-side memory of what the fabric has admitted.

    Tracks, per shard, the highest export generation admitted so far
    (the staleness floor for the next round) and, per digest, the
    current canonical owner.  A re-posted table from a crashed-and-
    retried worker therefore can never roll an exchange backwards.
    """

    _generations: dict[int, int] = field(default_factory=dict)
    _owners: dict[int, tuple[int, int]] = field(default_factory=dict)

    def generations(self) -> dict[int, int]:
        """Snapshot of the per-shard staleness floors."""
        return dict(self._generations)

    def owner(self, digest: int) -> tuple[int, int] | None:
        """Current canonical ``(shard, pfn)`` owner of a digest."""
        return self._owners.get(digest)

    def owners(self) -> dict[int, tuple[int, int]]:
        return dict(self._owners)

    def resolve_round(self, tables, *, round_no: int) -> ExchangeOutcome:
        """Resolve one round against the ledger and record it."""
        floors = self.generations()
        outcome = resolve_exchange(tables, round_no=round_no,
                                   min_generations=floors)
        verify_exchange(tables, outcome, min_generations=floors)
        admitted, _ = _admit(tables, floors)
        for table in admitted:
            previous = self._generations.get(table.shard, 0)
            self._generations[table.shard] = max(previous, table.generation)
        for intent in outcome.intents:
            self._owners[intent.digest] = (intent.source_shard,
                                           intent.source_pfn)
        return outcome
