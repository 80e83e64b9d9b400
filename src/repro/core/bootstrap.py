"""The bootstrap loop — Figure 1 of the paper.

Per iteration: train the tagger on the current labelled dataset, tag
the unlabeled pool, veto syntactically malformed extractions, filter
semantic drift, fold the surviving evidence back into the dataset, and
accumulate the surviving triples. The stopping criterion is a fixed
iteration count (the paper uses 5).

Resilience: every stage body runs through :meth:`Bootstrapper._stage`,
which retries a failed stage up to ``config.stage_retries`` times
(stage bodies are pure functions of their inputs, so a retry of a
transient fault reproduces the uninterrupted output bit-identically)
and records ``stage_retry`` / ``fault_injected`` counter events on the
trace. The optional cleaning stages degrade further: when their retries
are exhausted the stage is skipped with a ``stage_skip`` counter rather
than failing the run — cleaning refines output, it is not required for
one. With a ``checkpoint`` store attached, each completed iteration is
snapshotted and ``run()`` resumes from the last snapshot instead of
recomputing finished cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from ..config import PipelineConfig
from ..errors import FaultInjectionError, TrainingError
from ..types import (
    Extraction,
    ProductPage,
    Sentence,
    TaggedSentence,
    Triple,
)
from .cleaning import (
    SemanticCleaner,
    SemanticStats,
    VetoStats,
    apply_veto,
    extractions_from_tagged,
    rebuild_tagged,
)
from .preprocess import (
    Seed,
    build_seed,
    build_training_material,
    discover_candidates,
)
from .preprocess.aggregation import AttributeClusters
from .preprocess.training_set import TrainingMaterial
from .preprocess.value_cleaning import QueryLogLike
from ..ingest import IngestGate, IngestResult, Quarantine
from ..perf.cache import FeatureCache
from ..runtime.trace import PipelineTrace
from .tagger import make_tagger
from .text import PageText, corpus_token_sentences, tokenize_pages

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..embeddings import Word2Vec
    from ..runtime.checkpoint import CheckpointStore
    from ..runtime.faults import FaultPlan


@dataclass(frozen=True)
class IterationResult:
    """Observables of one Tagger–Cleaner cycle.

    Attributes:
        iteration: 1-based cycle number.
        triples: cumulative system output after this cycle (seed triples
            plus every surviving bootstrap extraction so far).
        new_triples: triples first contributed by this cycle.
        candidate_extractions: raw span count the tagger produced.
        veto_stats: per-rule discard counts (None with syntactic
            cleaning disabled).
        semantic_stats: drift-filter counts (None with semantic
            cleaning disabled).
        dataset_sentences: labelled sentences feeding the next cycle.
    """

    iteration: int
    triples: frozenset[Triple]
    new_triples: frozenset[Triple]
    candidate_extractions: int
    veto_stats: VetoStats | None
    semantic_stats: SemanticStats | None
    dataset_sentences: int


@dataclass(frozen=True)
class _IterationArtifacts:
    """Intermediate products one cycle hands to the next.

    Threaded through return values (never stashed on the bootstrapper)
    so ``Bootstrapper.run`` is re-entrant: two interleaved or
    concurrent runs of the same instance cannot observe each other's
    extractions.
    """

    kept_extractions: list[Extraction]
    tagged: list[TaggedSentence]


@dataclass(frozen=True)
class BootstrapResult:
    """Everything a bootstrap run produced.

    Attributes:
        seed: the assembled seed (pre-iteration state).
        material: initial training material (None on a slimmed result —
            see :meth:`slim`).
        seed_triples: triples known before any bootstrap cycle (table
            statements plus seed-tagged text), i.e. "iteration 0".
        iterations: one record per cycle, in order.
        attributes: canonical attribute names the run tagged.
        quarantine: the ingest gate's containment ledger (None when
            the gate was disabled).
        halted_reason: why the iteration-health circuit breaker
            stopped the run early (``"rejection_rate"`` or
            ``"yield_collapse"``), or None for a run that completed.
        halted_at_iteration: 1-based cycle the breaker tripped on; the
            run's output is the *previous* (last healthy) cycle's.
    """

    seed: Seed
    material: TrainingMaterial | None
    seed_triples: frozenset[Triple]
    iterations: tuple[IterationResult, ...]
    attributes: tuple[str, ...]
    quarantine: Quarantine | None = None
    halted_reason: str | None = None
    halted_at_iteration: int | None = None

    def slim(self) -> "BootstrapResult":
        """A copy without the training material.

        The material — every labelled sentence plus the tokenized
        unlabeled corpus — dwarfs the rest of the result; sweeps that
        only read triples and metrics should not pay to pickle it
        across a process boundary.
        """
        from dataclasses import replace

        return replace(self, material=None)

    @property
    def final_triples(self) -> frozenset[Triple]:
        """System output after the last cycle."""
        if not self.iterations:
            return self.seed_triples
        return self.iterations[-1].triples

    def triples_after(self, iteration: int) -> frozenset[Triple]:
        """Cumulative triples after ``iteration`` cycles (0 = seed)."""
        if iteration <= 0:
            return self.seed_triples
        if iteration > len(self.iterations):
            raise IndexError(
                f"run has {len(self.iterations)} iterations, "
                f"asked for {iteration}"
            )
        return self.iterations[iteration - 1].triples

    def covered_products(self, iteration: int | None = None) -> set[str]:
        """Products with at least one triple at the given point."""
        triples = (
            self.final_triples
            if iteration is None
            else self.triples_after(iteration)
        )
        return {triple.product_id for triple in triples}


def confidence_filtered_tag(
    model,
    unlabeled_sentences: Sequence[Sentence],
    threshold: float,
) -> tuple[list[TaggedSentence], list[Extraction]]:
    """Tag with posterior confidences, dropping low-scoring spans.

    Per-sentence independent (the model's confidence is a pure function
    of one sentence), so the sharded tag workers
    (:mod:`repro.core.sharded`) run it per shard and concatenation
    reproduces the monolithic output exactly.
    """
    tagged_out: list[TaggedSentence] = []
    extractions: list[Extraction] = []
    for tagged, confidences in model.tag_with_confidence(
        unlabeled_sentences
    ):
        sentence_extractions = extractions_from_tagged([tagged])
        kept = [
            extraction
            for extraction, confidence in zip(
                sentence_extractions, confidences
            )
            if confidence >= threshold
        ]
        if len(kept) != len(sentence_extractions):
            (tagged,) = rebuild_tagged(
                [tagged], kept, drop_unlabelled=False
            )
        tagged_out.append(tagged)
        extractions.extend(kept)
    return tagged_out, extractions


def restrict_to_attributes(
    tagged: Sequence[TaggedSentence], allowed: frozenset[str]
) -> list[TaggedSentence]:
    """Blank labels of attributes outside ``allowed`` (specialized models)."""
    restricted: list[TaggedSentence] = []
    for sentence in tagged:
        labels = tuple(
            label
            if label == "O" or label.partition("-")[2] in allowed
            else "O"
            for label in sentence.labels
        )
        restricted.append(sentence.with_labels(labels))
    return restricted


class Bootstrapper:
    """Runs the full algorithm of Figure 1 over one category.

    Args:
        config: pipeline configuration (tagger backend, cleaning
            switches, iteration count).
        attribute_subset: restrict the run to these canonical attribute
            names — the "specialized models" of Section VIII-D. None
            trains the single global model.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        attribute_subset: Sequence[str] | None = None,
    ):
        self.config = config or PipelineConfig()
        self.attribute_subset = (
            frozenset(attribute_subset)
            if attribute_subset is not None
            else None
        )
        # Flipped when checkpoint writes hit a classified environment
        # failure (disk full, I/O error) past the retry budget: the
        # run completes checkpoint-less instead of crashing.
        self._checkpoint_disabled = False
        self._checkpoint_warning: str | None = None

    def run(
        self,
        pages: Sequence[ProductPage],
        query_log: QueryLogLike,
        trace: PipelineTrace | None = None,
        *,
        checkpoint: "CheckpointStore | None" = None,
        resume: bool = True,
        faults: "FaultPlan | None" = None,
    ) -> BootstrapResult:
        """Execute seed construction plus N bootstrap cycles.

        The method is stateless: every intermediate artifact lives in
        locals or flows through return values, so one ``Bootstrapper``
        can serve sequential or concurrent runs without leakage.

        Args:
            pages: the category's product pages.
            query_log: search-log membership filter.
            trace: optional per-stage timing sink; a throwaway trace is
                used when None so the instrumented path is the only
                path.
            checkpoint: optional snapshot store; every completed
                iteration is written to it, and (with ``resume=True``)
                a run whose directory already holds snapshots continues
                from the last completed iteration instead of redoing
                them. The seed phase is recomputed — it is deterministic
                — and verified against the stored digest.
            resume: with ``checkpoint``, False discards any existing
                snapshots and starts over.
            faults: optional fault-injection plan; its hooks fire at
                the top of every stage body.
        """
        trace = trace if trace is not None else PipelineTrace()
        pages = list(pages)
        if faults is not None:
            pages = self._apply_page_faults(pages, faults, trace)
        ingest_result: IngestResult | None = None
        # The gate parses every admitted page while validating it;
        # keeping those DOM roots lets tokenization and candidate
        # discovery skip their own parse passes (single-pass prep —
        # output-identical, the root is the tree of the kept html).
        roots = None
        if self.config.ingest.enabled:
            ingest_result = self._stage(
                trace, faults, "ingest", None,
                lambda stage: self._ingest(stage, pages, trace),
            )
            pages = ingest_result.pages
            roots = ingest_result.roots
            # Detach the trees from the (long-lived) result so they
            # can be freed once discovery is done.
            object.__setattr__(ingest_result, "roots", None)
        page_texts = self._stage(
            trace, faults, "tokenize", None,
            lambda stage: self._tokenize(stage, pages, roots),
        )
        candidates = self._stage(
            trace, faults, "candidate_discovery", None,
            lambda stage: self._discover(stage, pages, roots),
        )
        roots = None  # free the trees before the long training phase
        seed = self._stage(
            trace, faults, "seed_build", None,
            lambda stage: self._build_seed(stage, pages, query_log,
                                           candidates),
        )
        material = self._stage(
            trace, faults, "training_material", None,
            lambda stage: self._build_material(stage, page_texts, seed,
                                               candidates),
        )

        attributes = seed.attributes
        seed_triples = frozenset(seed.table_triples | material.text_triples)
        corpus = corpus_token_sentences(page_texts)
        unlabeled_sentences = [
            sentence
            for page_text in material.unlabeled_pages
            for sentence in page_text.sentences
        ]

        seed_labeled = self._seed_labeled(material.labeled)
        dataset: list[TaggedSentence] = list(seed_labeled)
        cumulative: set[Triple] = set(seed_triples)
        iterations: list[IterationResult] = []
        # Per-run performance state, kept in locals for re-entrancy:
        # the feature cache makes iterations 2+ reuse iteration 1's
        # extraction work, and `warm_models` carries the previous
        # iteration's word2vec model when warm starts are enabled.
        feature_cache: FeatureCache | None = None
        if self.config.tagger in ("crf", "ensemble"):
            feature_cache = FeatureCache(window=self.config.crf.window)
        warm_models: list["Word2Vec | None"] = [None]
        start_iteration = 1
        if checkpoint is not None:
            from ..errors import StorageError

            restored = None
            try:
                restored = self._open_checkpoint(
                    checkpoint, resume, pages, seed_triples, attributes
                )
            except StorageError as error:
                self._disable_checkpoint(trace, error)
            if restored is not None:
                iterations = list(restored.results)
                dataset = restored.dataset
                cumulative = set(iterations[-1].triples)
                start_iteration = len(iterations) + 1
                trace.count(
                    "checkpoint_resume",
                    iterations=restored.completed_iterations,
                )
            if ingest_result is not None and not self._checkpoint_disabled:
                # The gate is deterministic, so a resumed run must
                # reproduce the stored ledger bit-for-bit; divergence
                # raises instead of splicing two different corpora.
                try:
                    checkpoint.record_quarantine(
                        ingest_result.quarantine.to_payload()
                    )
                except StorageError as error:
                    self._disable_checkpoint(trace, error)
        halted_reason: str | None = None
        halted_at: int | None = None
        for iteration in range(start_iteration, self.config.iterations + 1):
            result, artifacts = self._iterate(
                iteration,
                dataset,
                unlabeled_sentences,
                corpus,
                cumulative,
                trace,
                faults,
                feature_cache=feature_cache,
                warm_models=warm_models,
            )
            # Iteration-health circuit breaker: a collapsed yield or an
            # exploding cleaning-rejection rate means the model is
            # drifting into garbage; halt *before* folding this cycle
            # in, so the run's output is the last healthy iteration's.
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
        if feature_cache is not None:
            trace.count(
                "feature_cache",
                hits=feature_cache.hits,
                misses=feature_cache.misses,
            )
        self._record_peak_rss(trace)
        return BootstrapResult(
            seed=seed,
            material=material,
            seed_triples=seed_triples,
            iterations=tuple(iterations),
            attributes=attributes,
            quarantine=(
                ingest_result.quarantine
                if ingest_result is not None
                else None
            ),
            halted_reason=halted_reason,
            halted_at_iteration=halted_at,
        )

    # -- resilience machinery ------------------------------------------------

    def _stage(
        self,
        trace: PipelineTrace,
        faults: "FaultPlan | None",
        name: str,
        iteration: int | None,
        body: Callable,
    ):
        """Run one traced stage body with fault hooks and retries.

        The fault hook fires inside the stage timing context, so
        injected failures show up in the trace like real ones. Stage
        bodies are pure functions of their inputs; a retry therefore
        reproduces exactly what an untroubled first attempt would have
        produced. Failures beyond ``config.stage_retries`` propagate.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                with trace.stage(name, iteration) as stage:
                    if faults is not None:
                        faults.fire(name, iteration)
                    return body(stage)
            except Exception as error:  # noqa: BLE001 - retried or re-raised
                if isinstance(error, FaultInjectionError):
                    trace.count("fault_injected", iteration, **{name: 1})
                if attempt > self.config.stage_retries:
                    raise
                trace.count("stage_retry", iteration, **{name: 1})

    def _optional_stage(
        self,
        trace: PipelineTrace,
        faults: "FaultPlan | None",
        name: str,
        iteration: int | None,
        body: Callable,
    ):
        """A stage whose exhausted failure degrades to a counted skip.

        Used for the cleaning stages: they refine output but a run
        without them is still a valid (if noisier) run — "degrade,
        don't crash". Returns None when the stage was skipped.
        """
        try:
            return self._stage(trace, faults, name, iteration, body)
        except Exception:  # noqa: BLE001 - deliberate degradation
            trace.count("stage_skip", iteration, **{name: 1})
            return None

    def _apply_page_faults(
        self,
        pages: list[ProductPage],
        faults: "FaultPlan",
        trace: PipelineTrace,
    ) -> list[ProductPage]:
        corrupted_pages = faults.corrupt_pages(pages)
        corrupted = sum(
            1
            for before, after in zip(pages, corrupted_pages)
            if before.html != after.html
        )
        # "dirt" faults can *grow* the corpus (duplicate-id injection);
        # appended pages are corruption too, beyond what zip() sees.
        corrupted += max(len(corrupted_pages) - len(pages), 0)
        if corrupted:
            trace.count("pages_corrupted", pages=corrupted)
        return corrupted_pages

    def _health_trip(
        self,
        result: IterationResult,
        artifacts: _IterationArtifacts,
        previous: list[IterationResult],
    ) -> str | None:
        """Decide whether this cycle trips the health circuit breaker.

        A pure function of the cycle's observables and the previous
        records, so a checkpoint-resumed run re-derives the identical
        verdict. Two trip conditions (:class:`~repro.config.
        HealthConfig`):

        * ``"rejection_rate"`` — the cleaning stages rejected more than
          ``max_rejection_rate`` of a meaningful candidate sample: the
          tagger is emitting garbage faster than cleaning can absorb.
        * ``"yield_collapse"`` — candidate yield fell below
          ``yield_collapse_ratio`` of the previous cycle's meaningful
          sample: the model has collapsed.
        """
        health = self.config.health
        if not health.enable_circuit_breaker:
            return None
        candidates = result.candidate_extractions
        kept = len(artifacts.kept_extractions)
        if candidates >= health.min_rejection_sample:
            rejection = 1.0 - kept / candidates
            if rejection > health.max_rejection_rate:
                return "rejection_rate"
        if previous:
            prior = previous[-1].candidate_extractions
            if (
                prior >= health.min_yield_sample
                and candidates < prior * health.yield_collapse_ratio
            ):
                return "yield_collapse"
        return None

    def _open_checkpoint(
        self,
        checkpoint: "CheckpointStore",
        resume: bool,
        pages: list[ProductPage],
        seed_triples: frozenset[Triple],
        attributes: tuple[str, ...],
    ):
        """Validate/create the store; return restore state or None."""
        from ..runtime.checkpoint import run_fingerprint, seed_digest

        fingerprint = run_fingerprint(
            pages, self.config, self.attribute_subset
        )
        digest = seed_digest(seed_triples, attributes)
        if resume and checkpoint.has_run():
            checkpoint.validate(fingerprint, digest)
            return checkpoint.load_resume_state()
        checkpoint.begin(fingerprint, digest, self.config.iterations)
        return None

    # -- stage bodies --------------------------------------------------------

    def _ingest(
        self, stage, pages: list[ProductPage], trace: PipelineTrace
    ) -> IngestResult:
        gate = IngestGate(self.config.ingest)
        result = gate.process(pages, keep_roots=True)
        counts = result.quarantine.counts_by_check()
        if counts:
            trace.count("quarantine", **counts)
        if result.repaired:
            trace.count("ingest_repair", **result.repaired)
        stage.add(
            pages_in=result.pages_in,
            pages_kept=len(result.pages),
            quarantined=len(result.quarantine),
            repaired=result.repaired_total,
        )
        return result

    def _tokenize(
        self, stage, pages: list[ProductPage], roots=None
    ) -> list[PageText]:
        page_texts = tokenize_pages(pages, roots)
        stage.add(pages=len(pages))
        return page_texts

    def _discover(self, stage, pages: list[ProductPage], roots=None):
        candidates = discover_candidates(pages, roots)
        stage.add(candidates=len(candidates))
        return candidates

    def _build_seed(
        self, stage, pages: list[ProductPage], query_log, candidates
    ) -> Seed:
        seed = build_seed(
            pages,
            query_log,
            self.config.seed_config,
            enable_diversification=self.config.enable_diversification,
            candidates=candidates,
        )
        seed = self._restrict_seed(seed)
        stage.add(
            attributes=len(seed.attributes),
            seed_pairs=len(seed.pairs()),
        )
        return seed

    def _build_material(
        self, stage, page_texts, seed: Seed, candidates
    ) -> TrainingMaterial:
        material = build_training_material(page_texts, seed, candidates)
        stage.add(
            labeled_sentences=len(material.labeled),
            unlabeled_pages=len(material.unlabeled_pages),
        )
        return material

    def _fold(
        self, stage, seed_labeled: Sequence[TaggedSentence],
        artifacts: _IterationArtifacts,
    ) -> list[TaggedSentence]:
        dataset = self._next_dataset(seed_labeled, artifacts)
        stage.add(dataset_sentences=len(dataset))
        return dataset

    #: Attempts a snapshot write gets before checkpointing is disabled
    #: for the rest of the run.
    _SNAPSHOT_ATTEMPTS = 3

    def _snapshot(self, stage, checkpoint, result, dataset) -> None:
        """Write one iteration snapshot; degrade on storage failure.

        Classified environment failures (:class:`~repro.errors.
        StorageError`: disk full, I/O error) are retried with the
        deterministic job backoff; past the budget the run drops to
        checkpoint-less with a counted ``checkpoint_disabled`` warning
        — losing resumability must never lose the run itself.
        """
        if self._checkpoint_disabled:
            stage.add(skipped=1)
            return
        import time as _time

        from ..errors import StorageError
        from ..runtime.jobs import retry_backoff

        attempt = 0
        while True:
            attempt += 1
            try:
                checkpoint.write_iteration(result, dataset)
                stage.add(iterations=1)
                return
            except StorageError as error:
                if attempt < self._SNAPSHOT_ATTEMPTS:
                    _time.sleep(retry_backoff("checkpoint_write", attempt))
                    continue
                self._checkpoint_disabled = True
                self._checkpoint_warning = str(error)
                stage.add(checkpoint_disabled=1, write_failures=attempt)
                return

    def _disable_checkpoint(self, trace: PipelineTrace, error) -> None:
        """Degrade to checkpoint-less after a storage failure."""
        self._checkpoint_disabled = True
        self._checkpoint_warning = str(error)
        trace.count("checkpoint_disabled", failures=1)

    # -- internals -----------------------------------------------------------

    def _restrict_seed(self, seed: Seed) -> Seed:
        if self.attribute_subset is None:
            return seed
        values = {
            attribute: counter
            for attribute, counter in seed.values.items()
            if attribute in self.attribute_subset
        }
        table_triples = frozenset(
            triple
            for triple in seed.table_triples
            if triple.attribute in self.attribute_subset
        )
        # Clusters must shrink with the subset too: a specialized model
        # (Section VIII-D) told to exclude an attribute must not keep
        # that attribute's value clusters or surface-name aliases.
        canonical = {
            surface: name
            for surface, name in seed.clusters.canonical.items()
            if name in self.attribute_subset
        }
        clusters = AttributeClusters(
            canonical=canonical,
            page_support={
                surface: count
                for surface, count in seed.clusters.page_support.items()
                if surface in canonical
            },
        )
        return Seed(
            values=values,
            clusters=clusters,
            table_triples=table_triples,
            raw_candidate_count=seed.raw_candidate_count,
            cleaned_value_count=seed.cleaned_value_count,
        )

    def _iterate(
        self,
        iteration: int,
        dataset: list[TaggedSentence],
        unlabeled_sentences: list[Sentence],
        corpus: list[list[str]],
        cumulative: set[Triple],
        trace: PipelineTrace,
        faults: "FaultPlan | None" = None,
        feature_cache: FeatureCache | None = None,
        warm_models: list["Word2Vec | None"] | None = None,
    ) -> tuple[IterationResult, _IterationArtifacts]:
        if not dataset:
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
            lambda stage: self._tag(stage, model, unlabeled_sentences),
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

    def _count_trainer_warnings(
        self, model, iteration: int, trace: PipelineTrace
    ) -> None:
        # Non-fatal trainer warnings (e.g. an L-BFGS line-search abort
        # degraded to best-so-far weights) become counters so a run
        # that limped through training is auditable via
        # resilience_counters().
        warnings = getattr(model, "training_diagnostics", None)
        if warnings:
            trace.count("trainer_warning", iteration, **warnings)

    def _finish_iteration(
        self,
        iteration: int,
        dataset: list[TaggedSentence],
        tagged: list[TaggedSentence],
        extractions: list[Extraction],
        corpus: list[list[str]],
        cumulative: set[Triple],
        trace: PipelineTrace,
        faults: "FaultPlan | None" = None,
        warm_models: list["Word2Vec | None"] | None = None,
    ) -> tuple[IterationResult, _IterationArtifacts]:
        """Everything after tagging: cleaning, accumulation, records.

        Shared by the monolithic path and the sharded one
        (:mod:`repro.core.sharded`), which reaches this point with
        ``tagged`` merged from shard workers — identical inputs here
        guarantee identical iteration output.
        """
        candidate_count = len(extractions)

        veto_stats: VetoStats | None = None
        if self.config.enable_syntactic_cleaning:
            vetoed = self._optional_stage(
                trace, faults, "veto", iteration,
                lambda stage: self._veto(
                    stage, extractions, candidate_count
                ),
            )
            if vetoed is not None:
                extractions, veto_stats = vetoed

        semantic_stats: SemanticStats | None = None
        if self.config.enable_semantic_cleaning and extractions:
            cleaned = self._optional_stage(
                trace, faults, "semantic_clean", iteration,
                lambda stage: self._semantic_clean(
                    stage, iteration, extractions, corpus, warm_models
                ),
            )
            if cleaned is not None:
                extractions, semantic_stats = cleaned

        new_triples = frozenset(
            extraction.triple for extraction in extractions
        ) - frozenset(cumulative)
        cumulative.update(extraction.triple for extraction in extractions)
        result = IterationResult(
            iteration=iteration,
            triples=frozenset(cumulative),
            new_triples=new_triples,
            candidate_extractions=candidate_count,
            veto_stats=veto_stats,
            semantic_stats=semantic_stats,
            dataset_sentences=len(dataset),
        )
        artifacts = _IterationArtifacts(
            kept_extractions=extractions, tagged=tagged
        )
        return result, artifacts

    def _train(
        self,
        stage,
        iteration: int,
        dataset: list[TaggedSentence],
        feature_cache: FeatureCache | None = None,
    ):
        # The model is built inside the stage body so a retried stage
        # trains a fresh, identically-seeded tagger. The shared feature
        # cache holds only extracted feature strings (pure functions of
        # the sentences), so reuse across retries and iterations cannot
        # alter what a fresh model learns.
        model = make_tagger(self.config, iteration, feature_cache)
        model.train(dataset)
        stage.add(sentences=len(dataset))
        return model

    def _tag(
        self, stage, model, unlabeled_sentences: list[Sentence]
    ) -> tuple[list[TaggedSentence], list[Extraction]]:
        if (
            self.config.min_confidence > 0.0
            and hasattr(model, "tag_with_confidence")
        ):
            tagged, extractions = self._tag_with_confidence_filter(
                model, unlabeled_sentences
            )
        else:
            tagged = model.tag(unlabeled_sentences)
            extractions = extractions_from_tagged(tagged)
        stage.add(
            sentences=len(unlabeled_sentences),
            extractions=len(extractions),
        )
        return tagged, extractions

    def _veto(
        self, stage, extractions: list[Extraction], candidate_count: int
    ) -> tuple[list[Extraction], VetoStats]:
        kept, veto_stats = apply_veto(extractions, self.config.veto)
        stage.add(kept=len(kept), removed=candidate_count - len(kept))
        return kept, veto_stats

    def _semantic_clean(
        self,
        stage,
        iteration: int,
        extractions: list[Extraction],
        corpus: list[list[str]],
        warm_models: list["Word2Vec | None"] | None = None,
    ) -> tuple[list[Extraction], SemanticStats]:
        cleaner = SemanticCleaner(
            self.config.semantic,
            seed=self.config.seed + iteration,
        )
        donor = (
            warm_models[0]
            if warm_models is not None
            and self.config.semantic.warm_start_embeddings
            else None
        )
        kept, semantic_stats = cleaner.clean(
            extractions, corpus, warm_start_from=donor
        )
        if (
            warm_models is not None
            and self.config.semantic.warm_start_embeddings
            and cleaner.last_model is not None
        ):
            warm_models[0] = cleaner.last_model
        stage.add(kept=len(kept), removed=semantic_stats.values_removed)
        return kept, semantic_stats

    def _tag_with_confidence_filter(
        self,
        model,
        unlabeled_sentences: list[Sentence],
    ) -> tuple[list[TaggedSentence], list[Extraction]]:
        """Tag with posterior confidences, dropping low-scoring spans.

        The confidence-filter extension: spans whose posterior span
        confidence is below ``config.min_confidence`` never become
        candidates (so they also never reach the training set).
        """
        return confidence_filtered_tag(
            model, unlabeled_sentences, self.config.min_confidence
        )

    def _next_dataset(
        self,
        seed_labeled: Sequence[TaggedSentence],
        artifacts: _IterationArtifacts,
    ) -> list[TaggedSentence]:
        """Seed-labelled sentences plus this cycle's cleaned evidence."""
        cleaned = rebuild_tagged(
            artifacts.tagged, artifacts.kept_extractions
        )
        return list(seed_labeled) + cleaned

    def _seed_labeled(
        self, labeled: Sequence[TaggedSentence]
    ) -> list[TaggedSentence]:
        """The seed-labelled dataset slice, bounded by configuration.

        ``config.max_labeled_sentences`` keeps the first N sentences in
        corpus order — a deterministic prefix, so the monolithic and
        sharded paths (which both build ``labeled`` in global page
        order) cap to the identical dataset.
        """
        cap = self.config.max_labeled_sentences
        if cap is None or len(labeled) <= cap:
            return list(labeled)
        return list(labeled[:cap])

    def _record_peak_rss(self, trace: PipelineTrace) -> None:
        """Record the run-wide peak RSS (self + reaped workers)."""
        from ..runtime.memory import run_peak_rss_bytes

        peak = run_peak_rss_bytes()
        if peak:
            trace.count("peak_rss", bytes=peak)
