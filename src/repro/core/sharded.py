"""Sharded bootstrap: one category, bounded memory, many processes.

:class:`ShardedBootstrapper` runs the Figure-1 loop over a
:class:`~repro.corpus.stream.PageSource` instead of a page list. The
full page set is never resident; the run is organized around three
facts about the monolithic pipeline:

1. **Page preparation is per-page.** Gating (minus cross-page dedup),
   tokenization and candidate discovery are pure functions of one
   page. Prep therefore fans shards out to worker processes, each
   writing its shard's tokenized sentences and table candidates to a
   compact gzip cache file, and returning lightweight per-page
   *outcomes*. The parent replays the outcomes **in shard order**
   against a global seen-id set, which reproduces exactly the ledger,
   repair counts and page drops the monolithic
   :class:`~repro.ingest.IngestGate` would have produced — a worker's
   shard-local decisions are always confirmed or overridden the same
   way the sequential gate would have decided (a worker only keeps a
   page its own prefix hasn't claimed; the parent re-checks against
   the global prefix).
2. **Tagging is per-sentence.** The trained model tags each shard's
   unlabeled sentences in a worker process; only span-bearing tagged
   sentences come back (every downstream consumer — candidate
   extraction, cleaning, folding — is a pure function of those), and
   concatenation in shard-index order reproduces the monolithic
   sentence order. Sharded output is therefore **bit-identical** to
   the monolithic path for any shard size and worker count.
3. **Reduction is cheap.** Seed building, cleaning and folding run in
   the parent on merged, already-small structures.

Resumability: with a checkpoint attached, each tag worker snapshots
its own shard (``shard_tag_IIII_SSSS.json.gz``, atomic, checksummed)
before returning; a killed run re-fans only the shards with no
snapshot. The per-iteration snapshot and resume semantics of the base
class are unchanged.

Prep caching: prep output is iteration-invariant and pure in the page
bytes and gate/tokenizer config, so (unless disabled via
``PipelineConfig.enable_prep_cache`` or bypassed because the fault
plan corrupts pages) each shard's artifacts are kept across runs in
:mod:`repro.perf.prep_cache` — checksummed gzip artifacts under
``<checkpoint>/prep_cache`` (or an explicit ``cache_dir``), a bounded
process-global memory tier otherwise. A cache hit replays the exact
recorded per-page outcomes through the same sequential merge, so
cached runs stay bit-identical to uncached ones.

Known (documented) divergences from the monolithic path:

* Shard workers gate with the counted wall-clock soft parse budget
  (``force_soft_budget``) instead of SIGALRM — a page that *exceeds*
  the budget is still rejected, but its ledger detail records the
  measured elapsed time rather than the budget, so a corpus containing
  budget-blowing pages is not bit-ledger-identical. Corpora that stay
  inside the budget (all shipped ones) are unaffected.
* Page-corruption fault hooks (``corrupt_pages``/``dirt``) fire inside
  shard prep workers with decisions derived from ``(plan seed, shard
  index)`` (see :meth:`~repro.runtime.faults.FaultPlan.
  corrupt_shard_pages`): deterministic for any worker count, but the
  set of corrupted pages differs from the monolithic draw, so a
  faulted streamed run is *equivalently* chaotic, not byte-identically
  chaotic. Stage-level fault hooks (including the per-shard
  ``shard_tag`` / ``shard_tag:NNNN`` hooks) match exactly.
"""

from __future__ import annotations

import gzip
import json
import os
import pathlib
import shutil
import tempfile
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from ..config import IngestConfig
from ..errors import PageQuarantinedError, PoisonedShardError, StorageError
from ..ingest import IngestGate, Quarantine, QuarantineEntry
from ..perf.cache import FeatureCache
from ..perf.prep_cache import (
    DiskPrepCache,
    PrepStore,
    memory_prep_cache,
    prep_cache_key,
    prep_digest,
)
from ..runtime.memory import MemoryGovernor
from ..runtime.trace import PipelineTrace
from ..types import ProductPage, Sentence, TaggedSentence, Token, Triple
from .bootstrap import (
    BootstrapResult,
    Bootstrapper,
    IterationResult,
    _IterationArtifacts,
    confidence_filtered_tag,
)
from .cleaning import extractions_from_tagged
from .preprocess import Seed
from .preprocess.candidate_discovery import RawCandidate
from .preprocess.training_set import (
    label_page,
    page_table_preferences,
    seed_matcher,
)
from .preprocess.value_cleaning import QueryLogLike
from .text import PageText, tokenize_page

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..corpus.stream import PageSource
    from ..embeddings import Word2Vec
    from ..runtime.checkpoint import CheckpointStore
    from ..runtime.faults import FaultPlan
    from ..runtime.pool import ShardFailure, ShardWorkerPool


# -- shard cache files ---------------------------------------------------
#
# One gzip-JSONL file per shard, one line per *kept* (possibly
# repaired) page:
#
#   {"pid": ..., "locale": ...,
#    "sents": [[index, [[text, pos], ...]], ...],
#    "cands": [[attribute, value_key], ...]}
#
# The cache holds everything every later stage needs — tokenized
# sentences for tagging/labeling/embeddings, candidates for the
# table-page split — so raw HTML is parsed exactly once per page.

#: gzip level for shard cache files. They are scratch written once and
#: re-read several times per run (material, corpus, every iteration's
#: tag pass); level 1 compresses several times faster than the default
#: (9) for a few percent more disk — the right trade for the prep hot
#: path.
_CACHE_GZIP_LEVEL = 1


def _cache_path(cache_dir: str, index: int) -> pathlib.Path:
    return pathlib.Path(cache_dir) / f"shard_{index:04d}.jsonl.gz"


def _sentences_from_record(record: dict) -> list[Sentence]:
    return [
        Sentence(
            product_id=record["pid"],
            index=index,
            tokens=tuple(Token(text, pos) for text, pos in tokens),
        )
        for index, tokens in record["sents"]
    ]


def _page_text_from_record(record: dict) -> PageText:
    return PageText(
        record["pid"],
        record["locale"],
        tuple(_sentences_from_record(record)),
    )


def _iter_cache(
    cache_dir: str, index: int, dropped: frozenset[str]
) -> Iterator[dict]:
    """One shard's cached page records, minus globally-dropped pages."""
    path = _cache_path(cache_dir, index)
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["pid"] not in dropped:
                yield record


# -- prep workers --------------------------------------------------------


@dataclass(frozen=True)
class _PrepContext:
    """Everything a prep worker needs (pickled once per chunk)."""

    source: "PageSource"
    ingest: IngestConfig | None
    cache_dir: str
    faults: "FaultPlan | None" = None


def _discover_page_candidates(page: ProductPage, root=None) -> list[list[str]]:
    """One page's dictionary-table rows as ``[attribute, value]``."""
    from .preprocess.candidate_discovery import discover_page_candidates

    return [
        [candidate.attribute, candidate.value_key]
        for candidate in discover_page_candidates(page, root)
    ]


def _corrupt_shard_records(
    records: list, faults: "FaultPlan", index: int
) -> tuple[list, dict, int]:
    """Run the page-corruption hook over one shard's records.

    Only :class:`~repro.types.ProductPage` records are corruptible;
    malformed-row :class:`QuarantineEntry` markers keep their relative
    positions. Pages a ``dirt`` fault *adds* land after the shard's
    original records.
    """
    page_slots = [
        slot
        for slot, record in enumerate(records)
        if not isinstance(record, QuarantineEntry)
    ]
    pages = [records[slot] for slot in page_slots]
    pages, injected, corrupted = faults.corrupt_shard_pages(pages, index)
    if len(page_slots) == len(records):
        return pages, injected, corrupted
    for slot, page in zip(page_slots, pages):
        records[slot] = page
    records.extend(pages[len(page_slots):])
    return records, injected, corrupted


def _prep_shard(context: _PrepContext, index: int):
    """Gate + tokenize + mine one shard (worker process).

    Writes the shard cache file atomically and returns
    ``(index, outcomes, warnings, fault_counts)`` where each outcome
    is, in shard page order, one of::

        ("row", entry_dict)                     # malformed JSONL row
        ("q",   entry_dict)                     # quarantined page
        ("k",   pid, locale, repairs, cands)    # kept page

    and ``fault_counts`` is ``None`` or the ``(injected, corrupted)``
    tallies of the page-corruption hook for the parent to absorb.

    The gate runs with a shard-local seen-id set and the wall-clock
    soft parse budget; the parent's merge replays the outcomes against
    the *global* seen-id set (see :meth:`ShardedBootstrapper._prep`).
    The html of each kept page is lexed and parsed exactly once: the
    gate's tree is reused for tokenization and candidate mining.
    """
    gate = (
        IngestGate(context.ingest, force_soft_budget=True)
        if context.ingest is not None
        else None
    )
    seen_ids: set[str] = set()
    warnings: dict[str, int] = {}
    outcomes: list[tuple] = []
    records = context.source.shard(index)
    fault_counts = None
    if context.faults is not None:
        records, injected, corrupted = _corrupt_shard_records(
            list(records), context.faults, index
        )
        fault_counts = (injected, corrupted)
    final = _cache_path(context.cache_dir, index)
    temp = final.parent / f".{final.name}.tmp"
    final.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(
        temp, "wt", encoding="utf-8", compresslevel=_CACHE_GZIP_LEVEL
    ) as cache:
        for record in records:
            if isinstance(record, QuarantineEntry):
                outcomes.append(("row", record.to_dict()))
                continue
            page = record
            repairs: list[str] = []
            root = None
            if gate is not None:
                entry, kept, repairs, root = gate.gate_page_prepared(
                    page, seen_ids, warnings
                )
                if entry is not None:
                    outcomes.append(("q", entry.to_dict()))
                    continue
                assert kept is not None
                seen_ids.add(kept.product_id)
                page = kept
            page_text = tokenize_page(page, root)
            candidates = _discover_page_candidates(page, root)
            outcomes.append(
                ("k", page.product_id, page.locale, repairs, candidates)
            )
            cache.write(
                json.dumps(
                    {
                        "pid": page.product_id,
                        "locale": page.locale,
                        "sents": [
                            [
                                sentence.index,
                                [[t.text, t.pos] for t in sentence.tokens],
                            ]
                            for sentence in page_text.sentences
                        ],
                        "cands": candidates,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )
    os.replace(temp, final)
    return index, outcomes, warnings, fault_counts


# -- tag workers ---------------------------------------------------------


@dataclass(frozen=True)
class _TagContext:
    """Everything a tag worker needs (pickled once per chunk)."""

    cache_dir: str
    checkpoint_dir: str | None
    iteration: int
    model: object
    min_confidence: float
    dropped: dict[int, frozenset[str]]
    faults: "FaultPlan | None"


def _span_bearing(tagged: Sequence[TaggedSentence]) -> list[TaggedSentence]:
    return [
        sentence
        for sentence in tagged
        if any(label != "O" for label in sentence.labels)
    ]


def _tag_shard(context: _TagContext, index: int):
    """Tag one shard's unlabeled sentences (worker process).

    Returns ``(index, span_bearing_tagged, sentence_count)``. With a
    checkpoint attached, a shard snapshot is loaded if present (so a
    retried chunk never re-tags a shard that completed before a pool
    fault) and written before returning otherwise.
    """
    if context.faults is not None:
        context.faults.fire("shard_tag", context.iteration)
        context.faults.fire(f"shard_tag:{index:04d}", context.iteration)
    store: "CheckpointStore | None" = None
    if context.checkpoint_dir is not None:
        from ..runtime.checkpoint import CheckpointStore

        store = CheckpointStore(context.checkpoint_dir)
        cached = store.load_shard_tags(context.iteration, index)
        if cached is not None:
            return index, cached[0], cached[1]
    dropped = context.dropped.get(index, frozenset())
    sentences: list[Sentence] = []
    for record in _iter_cache(context.cache_dir, index, dropped):
        if record["cands"]:
            continue  # table-bearing page: labelled, not tagged
        sentences.extend(_sentences_from_record(record))
    model = context.model
    if context.min_confidence > 0.0 and hasattr(
        model, "tag_with_confidence"
    ):
        tagged, _ = confidence_filtered_tag(
            model, sentences, context.min_confidence
        )
    else:
        tagged = model.tag(sentences)
    spans = _span_bearing(tagged)
    if store is not None:
        try:
            store.write_shard_tags(
                context.iteration, index, spans, len(sentences)
            )
        except (StorageError, OSError):
            # The shard snapshot is a resume optimization; on a full
            # or dying disk the tagged spans still flow back to the
            # parent — never fail the shard over it.
            pass
    return index, spans, len(sentences)


# -- merge structures ----------------------------------------------------


@dataclass
class _PrepSummary:
    """The parent-side reduction of every shard's prep outcomes."""

    candidates: list[RawCandidate]
    quarantine: Quarantine
    repaired: dict[str, int]
    dropped: dict[int, frozenset[str]]
    pages_kept: int
    locale: str | None
    soft_budget_trips: int
    row_errors: int
    #: Shards that exhausted their pool retry budget during prep and
    #: were quarantined as ``check="poisoned_shard"``; every later
    #: stage (material, corpus, tagging) skips them.
    poisoned: frozenset[int] = frozenset()


@dataclass(frozen=True)
class _StreamedMaterial:
    """Streamed stand-in for :class:`TrainingMaterial`."""

    seed_labeled: list[TaggedSentence]
    labeled_total: int
    text_triples: frozenset[Triple]
    unlabeled_pages: int


def _duplicate_entry(product_id: str) -> QuarantineEntry:
    """The exact entry the monolithic gate writes for a duplicate."""
    return QuarantineEntry(
        page_id=product_id,
        check="duplicate_id",
        error="duplicate_id",
        detail=(
            f"product id {product_id!r} already seen in this collection"
        ),
    )


# -- the sharded bootstrapper -------------------------------------------


class ShardedBootstrapper(Bootstrapper):
    """Figure-1 bootstrap over a streamed, sharded corpus.

    Args:
        config: pipeline configuration (as :class:`Bootstrapper`).
        attribute_subset: specialized-model restriction (as base).
        shard_workers: worker processes per fan-out. None picks
            :func:`~repro.runtime.runner.default_workers` (visible
            CPUs, ``REPRO_WORKERS``-aware); an explicit value is used
            as-is, so tests can force a real pool on a 1-CPU box.
            ``1`` runs shards inline (serial path = parallel path
            minus the pool).
    """

    def __init__(
        self,
        config=None,
        attribute_subset=None,
        *,
        shard_workers: int | None = None,
    ):
        super().__init__(config, attribute_subset)
        self.shard_workers = shard_workers

    def _workers(self, count: int) -> int:
        from ..runtime.runner import default_workers

        if self.shard_workers is not None:
            return max(1, self.shard_workers)
        if self.config.pool_workers is not None:
            return max(1, self.config.pool_workers)
        return default_workers(count)

    def run_source(
        self,
        source: "PageSource",
        query_log: QueryLogLike,
        trace: PipelineTrace | None = None,
        *,
        checkpoint: "CheckpointStore | None" = None,
        resume: bool = True,
        faults: "FaultPlan | None" = None,
        cache_dir: str | os.PathLike | None = None,
    ) -> BootstrapResult:
        """Execute the bootstrap over a shard source.

        Bit-identical to :meth:`Bootstrapper.run` on the materialized
        page list of the same source, for any shard size and worker
        count (see the module docstring for the two documented
        divergences). The returned result carries ``material=None`` —
        the training material is never materialized.

        Args:
            source: the category's page shards.
            query_log: search-log membership filter.
            trace: optional stage-timing sink.
            checkpoint: optional store; iteration snapshots work as in
                the base class, plus per-shard tag snapshots let a
                killed run resume mid-iteration without re-tagging
                completed shards.
            resume: with ``checkpoint``, False restarts from scratch.
            faults: optional fault plan (stage and page hooks).
            cache_dir: directory for the shard cache files — with the
                prep cache enabled this becomes a persistent prep
                artifact root (a keyed subdirectory holds the files).
                Defaults to ``<checkpoint>/prep_cache`` (retained
                across runs) with a checkpoint, or a self-cleaning
                temporary directory (backed by the process-global
                memory tier) without one.
        """
        trace = trace if trace is not None else PipelineTrace()
        self._checkpoint_disabled = False
        self._checkpoint_warning = None
        if checkpoint is not None and checkpoint.faults is None:
            checkpoint.faults = faults
        governor: MemoryGovernor | None = None
        if self.config.memory_budget_mb is not None or (
            faults is not None and faults.has_memory_faults()
        ):
            governor = MemoryGovernor(
                self.config.memory_budget_mb, faults=faults
            )
        # Page-corrupting fault plans poison prep output: never record
        # it as clean, never mask it with a clean artifact.
        use_cache = self.config.enable_prep_cache and not (
            faults is not None and faults.has_page_faults()
        )
        digest = prep_digest(
            self.config.ingest if self.config.ingest.enabled else None
        )
        key = prep_cache_key(source.fingerprint(), digest)
        prep_store: PrepStore | None = None
        owned_tmp: tempfile.TemporaryDirectory | None = None
        persistent_root: pathlib.Path | None = None
        disk: DiskPrepCache | None = None
        if cache_dir is not None:
            persistent_root = pathlib.Path(cache_dir)
        elif checkpoint is not None:
            persistent_root = (
                checkpoint.directory / "prep_cache"
                if use_cache
                else checkpoint.directory / "shard_cache"
            )
        if persistent_root is not None:
            persistent_root.mkdir(parents=True, exist_ok=True)
            if use_cache:
                disk = DiskPrepCache(persistent_root, key, faults=faults)
                if disk.contended:
                    # Another live run holds this cache directory's
                    # advisory lock. Sharing the keyed subdirectory
                    # would race its prune/seal cycle, so degrade to a
                    # private scratch directory: correct output, no
                    # cross-run artifact reuse this run.
                    disk.close()
                    disk = None
                    trace.count("prep_cache_contended", runs=1)
                    owned_tmp = tempfile.TemporaryDirectory(
                        prefix="repro_shard_scratch_"
                    )
                    cache = pathlib.Path(owned_tmp.name)
                else:
                    cache = disk.directory
                    prep_store = PrepStore(
                        cache_dir=str(cache),
                        source_fingerprint=source.fingerprint(),
                        digest=digest,
                        disk=disk,
                    )
            else:
                cache = persistent_root
        else:
            owned_tmp = tempfile.TemporaryDirectory(
                prefix="repro_shard_cache_"
            )
            cache = pathlib.Path(owned_tmp.name)
            if use_cache:
                prep_store = PrepStore(
                    cache_dir=str(cache),
                    source_fingerprint=source.fingerprint(),
                    digest=digest,
                    memory=memory_prep_cache(),
                )
        from ..runtime.pool import ShardWorkerPool

        pool = ShardWorkerPool(self._workers(source.shard_count))
        try:
            return self._run_source(
                source,
                query_log,
                trace,
                str(cache),
                checkpoint,
                resume,
                faults,
                prep_store,
                pool=pool,
                governor=governor,
            )
        finally:
            pool.close()
            if disk is not None:
                disk.close()
            if owned_tmp is not None:
                owned_tmp.cleanup()
            elif cache_dir is None and not use_cache:
                # Checkpoint-owned plain shard cache: scaffolding only
                # — prep rebuilds it deterministically on resume. The
                # prep-cache directory, by contrast, is the persistent
                # artifact store and is deliberately retained.
                shutil.rmtree(cache, ignore_errors=True)

    def _run_source(
        self,
        source: "PageSource",
        query_log: QueryLogLike,
        trace: PipelineTrace,
        cache: str,
        checkpoint: "CheckpointStore | None",
        resume: bool,
        faults: "FaultPlan | None",
        prep_store: PrepStore | None = None,
        *,
        pool: "ShardWorkerPool",
        governor: "MemoryGovernor | None" = None,
    ) -> BootstrapResult:
        prep = self._stage(
            trace, faults, "shard_prep", None,
            lambda stage: self._prep(
                stage, source, cache, trace, faults, prep_store,
                pool=pool, governor=governor,
            ),
        )
        stub_pages = (
            [ProductPage("", source.category, "", prep.locale)]
            if prep.locale is not None
            else []
        )
        seed = self._stage(
            trace, faults, "seed_build", None,
            lambda stage: self._build_seed(
                stage, stub_pages, query_log, prep.candidates
            ),
        )
        material = self._stage(
            trace, faults, "training_material", None,
            lambda stage: self._stream_material(
                stage, cache, source.shard_count, prep, seed
            ),
        )

        attributes = seed.attributes
        seed_triples = frozenset(seed.table_triples | material.text_triples)
        corpus = (
            self._collect_corpus(cache, source.shard_count, prep)
            if self.config.enable_semantic_cleaning
            else []
        )

        seed_labeled = material.seed_labeled
        dataset: list[TaggedSentence] = list(seed_labeled)
        cumulative: set[Triple] = set(seed_triples)
        iterations: list[IterationResult] = []
        feature_cache: FeatureCache | None = None
        if self.config.tagger in ("crf", "ensemble"):
            feature_cache = FeatureCache(window=self.config.crf.window)
        warm_models: list["Word2Vec | None"] = [None]
        start_iteration = 1
        if checkpoint is not None:
            try:
                restored = self._open_source_checkpoint(
                    checkpoint, resume, source, seed_triples, attributes
                )
            except StorageError as error:
                self._disable_checkpoint(trace, error)
                restored = None
            if restored is not None:
                iterations = list(restored.results)
                dataset = restored.dataset
                cumulative = set(iterations[-1].triples)
                start_iteration = len(iterations) + 1
                trace.count(
                    "checkpoint_resume",
                    iterations=restored.completed_iterations,
                )
            if self.config.ingest.enabled and not self._checkpoint_disabled:
                try:
                    checkpoint.record_quarantine(
                        prep.quarantine.to_payload()
                    )
                except StorageError as error:
                    self._disable_checkpoint(trace, error)
        halted_reason: str | None = None
        halted_at: int | None = None
        for iteration in range(
            start_iteration, self.config.iterations + 1
        ):
            result, artifacts = self._iterate_sharded(
                iteration,
                dataset,
                cache,
                source.shard_count,
                prep,
                corpus,
                cumulative,
                trace,
                faults,
                feature_cache=feature_cache,
                warm_models=warm_models,
                checkpoint=checkpoint,
                pool=pool,
                governor=governor,
            )
            halted_reason = self._health_trip(result, artifacts, iterations)
            if halted_reason is not None:
                halted_at = iteration
                trace.count(
                    "circuit_breaker", iteration, **{halted_reason: 1}
                )
                break
            iterations.append(result)
            dataset = self._stage(
                trace, faults, "fold_dataset", iteration,
                lambda stage: self._fold(stage, seed_labeled, artifacts),
            )
            if checkpoint is not None:
                self._stage(
                    trace, faults, "checkpoint_write", iteration,
                    lambda stage: self._snapshot(
                        stage, checkpoint, result, dataset
                    ),
                )
                if not self._checkpoint_disabled:
                    # The iteration snapshot supersedes its shard files.
                    checkpoint.clear_shard_tags(iteration)
        if feature_cache is not None:
            trace.count(
                "feature_cache",
                hits=feature_cache.hits,
                misses=feature_cache.misses,
            )
        if governor is not None and governor.samples:
            trace.count("memory_pressure", **governor.counters())
        self._record_peak_rss(trace)
        return BootstrapResult(
            seed=seed,
            material=None,
            seed_triples=seed_triples,
            iterations=tuple(iterations),
            attributes=attributes,
            quarantine=(
                prep.quarantine
                if self.config.ingest.enabled or len(prep.quarantine)
                else None
            ),
            halted_reason=halted_reason,
            halted_at_iteration=halted_at,
        )

    # -- prep + deterministic merge -------------------------------------

    def _prep(
        self,
        stage,
        source: "PageSource",
        cache: str,
        trace: PipelineTrace,
        faults: "FaultPlan | None" = None,
        prep_store: PrepStore | None = None,
        *,
        pool: "ShardWorkerPool",
        governor: "MemoryGovernor | None" = None,
    ) -> _PrepSummary:
        """Fan prep out per shard, then replay outcomes sequentially.

        The replay is the determinism keystone: outcomes are walked in
        shard order (= corpus order) against a global seen-id set, so
        cross-shard duplicates are quarantined exactly where the
        monolithic gate would have quarantined them, and the merged
        ledger/repair counts/page drops match bit-for-bit. Shards with
        a valid prep-cache artifact skip the fan-out and feed their
        recorded outcomes straight into the same replay — a cached run
        and an uncached run are indistinguishable past this point.
        """
        page_faults = faults is not None and faults.has_page_faults()
        context = _PrepContext(
            source=source,
            ingest=(
                self.config.ingest if self.config.ingest.enabled else None
            ),
            cache_dir=cache,
            faults=faults if page_faults else None,
        )
        indices = list(range(source.shard_count))
        shard_results: dict[int, tuple[list, dict]] = {}
        pending: list[int] = []
        for index in indices:
            if prep_store is not None:
                loaded = prep_store.load(index)
                if loaded is not None:
                    shard_results[index] = loaded
                    continue
            pending.append(index)
        dedup = self.config.ingest.enabled
        strict = dedup and self.config.ingest.policy == "strict"
        corrupted_pages = 0
        poisoned_failures: dict[int, "ShardFailure"] = {}
        if pending:
            max_workers = None
            if governor is not None and governor.under_pressure():
                max_workers = governor.throttle_workers(
                    self._workers(len(pending))
                )
                governor.relieve()
            results, failures, report = pool.run(
                _prep_shard,
                context,
                pending,
                stage="shard_prep",
                faults=faults,
                max_workers=max_workers,
            )
            for index, outcomes, warnings, fault_counts in results.values():
                shard_results[index] = (outcomes, warnings)
                if prep_store is not None:
                    prep_store.store(index, outcomes, warnings)
                if fault_counts is not None and faults is not None:
                    injected, corrupted = fault_counts
                    faults.absorb_injected(injected)
                    corrupted_pages += corrupted
            poisoned_failures = dict(failures)
            for index, failure in poisoned_failures.items():
                if strict:
                    raise PoisonedShardError(
                        "shard_prep", index, failure.attempts, failure.detail
                    )
                # A killed attempt may have sealed the atomic cache
                # write before dying; remove the artifact so material/
                # corpus streaming and tagging all see the same hole.
                cache_file = _cache_path(cache, index)
                cache_file.unlink(missing_ok=True)
                cache_file.with_name(
                    f"shard_{index:04d}.meta.json"
                ).unlink(missing_ok=True)
            counts = report.as_counts()
            if any(counts.values()):
                trace.count("pool_supervision", **counts)
        if corrupted_pages:
            trace.count("pages_corrupted", pages=corrupted_pages)
        seen: set[str] = set()
        ledger = Quarantine()
        repaired: dict[str, int] = {}
        dropped: dict[int, frozenset[str]] = {}
        candidates: list[RawCandidate] = []
        kept = 0
        locale: str | None = None
        soft_trips = 0
        row_errors = 0
        for index in indices:
            if index in poisoned_failures:
                failure = poisoned_failures[index]
                ledger.add(
                    QuarantineEntry(
                        page_id=f"shard-{index:04d}",
                        check="poisoned_shard",
                        error=failure.reason,
                        detail=(
                            f"prep shard {index} failed "
                            f"{failure.attempts} attempts: {failure.detail}"
                        ),
                        source="pool",
                    )
                )
                continue
            outcomes, warnings = shard_results[index]
            soft_trips += warnings.get("parse_budget_soft", 0)
            shard_drops: set[str] = set()
            for outcome in outcomes:
                kind = outcome[0]
                if kind == "row":
                    ledger.add(QuarantineEntry.from_dict(outcome[1]))
                    row_errors += 1
                    continue
                if kind == "q":
                    entry = QuarantineEntry.from_dict(outcome[1])
                    if (
                        dedup
                        and entry.check != "page_bytes"
                        and entry.page_id in seen
                    ):
                        # The sequential gate checks duplicate_id
                        # before every check but page_bytes; a worker
                        # can't see ids kept by earlier shards.
                        entry = _duplicate_entry(entry.page_id)
                    if strict:
                        raise PageQuarantinedError(
                            entry.page_id, entry.check, entry.detail
                        )
                    ledger.add(entry)
                    continue
                _, pid, page_locale, repairs, page_cands = outcome
                if dedup and pid in seen:
                    entry = _duplicate_entry(pid)
                    if strict:
                        raise PageQuarantinedError(
                            entry.page_id, entry.check, entry.detail
                        )
                    ledger.add(entry)
                    shard_drops.add(pid)
                    continue
                seen.add(pid)
                kept += 1
                if locale is None:
                    locale = page_locale
                for check in repairs:
                    repaired[check] = repaired.get(check, 0) + 1
                candidates.extend(
                    RawCandidate(pid, attribute, value)
                    for attribute, value in page_cands
                )
            if shard_drops:
                dropped[index] = frozenset(shard_drops)
        counts = ledger.counts_by_check()
        if counts:
            trace.count("quarantine", **counts)
        if repaired:
            trace.count("ingest_repair", **repaired)
        if soft_trips:
            trace.count("parse_budget_soft", trips=soft_trips)
        if prep_store is not None:
            trace.count(
                "prep_cache",
                hits=prep_store.hits,
                misses=prep_store.misses,
            )
            if prep_store.disabled:
                trace.count(
                    "prep_cache_disabled",
                    failures=prep_store.write_failures,
                )
        stage.add(
            pages_in=source.page_count,
            pages_kept=kept,
            quarantined=len(ledger),
            repaired=sum(repaired.values()),
            shards=source.shard_count,
            candidates=len(candidates),
            cached_shards=(
                prep_store.hits if prep_store is not None else 0
            ),
        )
        return _PrepSummary(
            candidates=candidates,
            quarantine=ledger,
            repaired=repaired,
            dropped=dropped,
            pages_kept=kept,
            locale=locale,
            soft_budget_trips=soft_trips,
            row_errors=row_errors,
            poisoned=frozenset(poisoned_failures),
        )

    # -- streamed material + corpus -------------------------------------

    def _stream_material(
        self,
        stage,
        cache: str,
        shard_count: int,
        prep: _PrepSummary,
        seed: Seed,
    ) -> _StreamedMaterial:
        """Seed-label table pages shard-by-shard; count the rest.

        Reproduces :func:`~repro.core.preprocess.training_set.
        build_training_material` over the cached corpus without holding
        it: pages stream through one shard at a time, labelled
        sentences accumulate only up to ``max_labeled_sentences``
        (text triples — the seed's "iteration 0" output — are always
        collected in full, exactly as the monolithic path does before
        the cap is applied).
        """
        matcher = seed_matcher(seed)
        preferences = page_table_preferences(prep.candidates, seed)
        cap = self.config.max_labeled_sentences
        labeled: list[TaggedSentence] = []
        labeled_total = 0
        unlabeled_pages = 0
        text_triples: set[Triple] = set()
        for index in range(shard_count):
            if index in prep.poisoned:
                continue
            for record in _iter_cache(
                cache, index, prep.dropped.get(index, frozenset())
            ):
                if not record["cands"]:
                    unlabeled_pages += 1
                    continue
                page_text = _page_text_from_record(record)
                page_labeled, page_triples = label_page(
                    page_text,
                    matcher,
                    preferences.get(page_text.product_id, {}),
                )
                text_triples.update(page_triples)
                labeled_total += len(page_labeled)
                if cap is None:
                    labeled.extend(page_labeled)
                elif len(labeled) < cap:
                    labeled.extend(page_labeled[: cap - len(labeled)])
        stage.add(
            labeled_sentences=labeled_total,
            unlabeled_pages=unlabeled_pages,
        )
        return _StreamedMaterial(
            seed_labeled=self._seed_labeled(labeled),
            labeled_total=labeled_total,
            text_triples=frozenset(text_triples),
            unlabeled_pages=unlabeled_pages,
        )

    def _collect_corpus(
        self, cache: str, shard_count: int, prep: _PrepSummary
    ) -> list[list[str]]:
        """All pages' token sentences (word2vec input), corpus order.

        Only built when semantic cleaning is enabled — it is the one
        remaining corpus-sized in-memory structure, so paper-scale runs
        should disable semantic cleaning or budget for it (see
        ``docs/architecture.md`` §12).
        """
        corpus: list[list[str]] = []
        for index in range(shard_count):
            if index in prep.poisoned:
                continue
            for record in _iter_cache(
                cache, index, prep.dropped.get(index, frozenset())
            ):
                for _, tokens in record["sents"]:
                    corpus.append([text for text, _ in tokens])
        return corpus

    # -- sharded iteration ----------------------------------------------

    def _iterate_sharded(
        self,
        iteration: int,
        dataset: list[TaggedSentence],
        cache: str,
        shard_count: int,
        prep: _PrepSummary,
        corpus: list[list[str]],
        cumulative: set[Triple],
        trace: PipelineTrace,
        faults: "FaultPlan | None",
        feature_cache: FeatureCache | None = None,
        warm_models: list["Word2Vec | None"] | None = None,
        checkpoint: "CheckpointStore | None" = None,
        *,
        pool: "ShardWorkerPool",
        governor: "MemoryGovernor | None" = None,
    ) -> tuple[IterationResult, _IterationArtifacts]:
        if self._checkpoint_disabled:
            checkpoint = None
        if not dataset:
            from ..errors import TrainingError

            raise TrainingError(
                "seed produced no labelled sentences; the category has "
                "no usable dictionary tables"
            )
        model = self._stage(
            trace, faults, "tagger_train", iteration,
            lambda stage: self._train(
                stage, iteration, dataset, feature_cache
            ),
        )
        self._count_trainer_warnings(model, iteration, trace)
        tagged, extractions = self._stage(
            trace, faults, "tagger_tag", iteration,
            lambda stage: self._tag_sharded(
                stage,
                model,
                iteration,
                cache,
                shard_count,
                prep,
                checkpoint,
                faults,
                trace,
                pool=pool,
                governor=governor,
            ),
        )
        return self._finish_iteration(
            iteration,
            dataset,
            tagged,
            extractions,
            corpus,
            cumulative,
            trace,
            faults,
            warm_models=warm_models,
        )

    def _tag_sharded(
        self,
        stage,
        model,
        iteration: int,
        cache: str,
        shard_count: int,
        prep: _PrepSummary,
        checkpoint: "CheckpointStore | None",
        faults: "FaultPlan | None",
        trace: PipelineTrace,
        *,
        pool: "ShardWorkerPool",
        governor: "MemoryGovernor | None" = None,
    ) -> tuple[list[TaggedSentence], list]:
        """Fan tagging out per shard; merge in shard-index order."""
        shard_results: list[tuple[list[TaggedSentence], int] | None] = [
            None
        ] * shard_count
        pending: list[int] = []
        resumed = 0
        for index in range(shard_count):
            if index in prep.poisoned:
                # Poisoned during prep: the shard has no cache file and
                # is already quarantined — tag nothing for it.
                shard_results[index] = ([], 0)
                continue
            if checkpoint is not None:
                cached = checkpoint.load_shard_tags(iteration, index)
                if cached is not None:
                    shard_results[index] = cached
                    resumed += 1
                    continue
            pending.append(index)
        strict = (
            self.config.ingest.enabled
            and self.config.ingest.policy == "strict"
        )
        if pending:
            max_workers = None
            if governor is not None and governor.under_pressure():
                max_workers = governor.throttle_workers(
                    self._workers(len(pending))
                )
                governor.relieve()
            context = _TagContext(
                cache_dir=cache,
                checkpoint_dir=(
                    str(checkpoint.directory)
                    if checkpoint is not None
                    else None
                ),
                iteration=iteration,
                model=model,
                min_confidence=self.config.min_confidence,
                dropped=prep.dropped,
                faults=faults,
            )
            results, failures, report = pool.run(
                _tag_shard,
                context,
                pending,
                stage="shard_tag",
                faults=faults,
                max_workers=max_workers,
            )
            for index, spans, count in results.values():
                shard_results[index] = (spans, count)
            if failures:
                poisoned = 0
                for index, failure in sorted(failures.items()):
                    if strict:
                        raise PoisonedShardError(
                            "shard_tag",
                            index,
                            failure.attempts,
                            failure.detail,
                        )
                    prep.quarantine.add(
                        QuarantineEntry(
                            page_id=f"shard-{index:04d}",
                            check="poisoned_shard",
                            error=failure.reason,
                            detail=(
                                f"tag shard {index} (iteration "
                                f"{iteration}) failed {failure.attempts} "
                                f"attempts: {failure.detail}"
                            ),
                            source="pool",
                        )
                    )
                    shard_results[index] = ([], 0)
                    poisoned += 1
                trace.count(
                    "quarantine", iteration, poisoned_shard=poisoned
                )
            counts = report.as_counts()
            if any(counts.values()):
                trace.count("pool_supervision", iteration, **counts)
        if resumed:
            trace.count("shard_resume", iteration, shards=resumed)
        merged: list[TaggedSentence] = []
        total_sentences = 0
        for entry in shard_results:
            assert entry is not None
            spans, count = entry
            merged.extend(spans)
            total_sentences += count
        extractions = extractions_from_tagged(merged)
        stage.add(
            sentences=total_sentences,
            extractions=len(extractions),
            shards=shard_count,
        )
        return merged, extractions

    # -- checkpoint identity --------------------------------------------

    def _open_source_checkpoint(
        self,
        checkpoint: "CheckpointStore",
        resume: bool,
        source: "PageSource",
        seed_triples: frozenset[Triple],
        attributes: tuple[str, ...],
    ):
        """Validate/create the store against the *source* identity."""
        from ..runtime.checkpoint import (
            seed_digest,
            source_run_fingerprint,
        )

        fingerprint = source_run_fingerprint(
            source.fingerprint(), self.config, self.attribute_subset
        )
        digest = seed_digest(seed_triples, attributes)
        if resume and checkpoint.has_run():
            checkpoint.validate(fingerprint, digest)
            return checkpoint.load_resume_state()
        checkpoint.begin(fingerprint, digest, self.config.iterations)
        return None
