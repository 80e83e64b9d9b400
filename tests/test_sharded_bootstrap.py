"""Sharded bootstrap: bit-identity to the monolithic path + resume.

The acceptance contract of :mod:`repro.core.sharded`: for any shard
size and worker count, ``run_streamed`` produces **bit-identical**
output to ``run`` on the materialized page list — triples, seed,
per-iteration records, quarantine ledger — and a run killed mid-
iteration resumes from its per-shard tag snapshots without re-tagging
completed shards.
"""

import random

import pytest

from repro import IngestConfig, PAEPipeline, PipelineConfig
from repro.corpus import (
    GeneratedPageSource,
    Marketplace,
    MaterializedPageSource,
)
from repro.errors import FaultInjectionError, PageQuarantinedError
from repro.runtime import FaultPlan, FaultSpec, PipelineTrace
from repro.types import ProductPage

pytestmark = pytest.mark.usefixtures("watchdog")

CONFIG = PipelineConfig(iterations=2)


@pytest.fixture(scope="module")
def vacuum():
    return Marketplace(seed=7).generate("vacuum_cleaner", 40)


@pytest.fixture(scope="module")
def monolithic(vacuum):
    return PAEPipeline(CONFIG).run(
        vacuum.product_pages, vacuum.query_log
    )


def _assert_identical(streamed, monolithic):
    assert streamed.triples == monolithic.triples
    assert streamed.seed_triples == monolithic.seed_triples
    assert streamed.attributes == monolithic.attributes
    assert len(streamed.bootstrap.iterations) == len(
        monolithic.bootstrap.iterations
    )
    for mono_it, stream_it in zip(
        monolithic.bootstrap.iterations, streamed.bootstrap.iterations
    ):
        assert stream_it.new_triples == mono_it.new_triples
        assert stream_it.triples == mono_it.triples
        assert (
            stream_it.candidate_extractions
            == mono_it.candidate_extractions
        )
        assert stream_it.veto_stats == mono_it.veto_stats
        assert stream_it.semantic_stats == mono_it.semantic_stats
        assert stream_it.dataset_sentences == mono_it.dataset_sentences


# -- bit-identity across fan-out shapes ----------------------------------


@pytest.mark.parametrize("shard_size,workers", [(7, 1), (15, 2)])
def test_bit_identical_across_shard_and_worker_combos(
    vacuum, monolithic, shard_size, workers
):
    source = MaterializedPageSource(
        vacuum.product_pages, shard_size=shard_size
    )
    streamed = PAEPipeline(CONFIG).run_streamed(
        source, vacuum.query_log, shard_workers=workers
    )
    _assert_identical(streamed, monolithic)
    assert streamed.product_count == monolithic.product_count


def test_bit_identical_without_semantic_cleaning(vacuum):
    from dataclasses import replace

    config = replace(CONFIG, enable_semantic_cleaning=False)
    mono = PAEPipeline(config).run(
        vacuum.product_pages, vacuum.query_log
    )
    source = MaterializedPageSource(vacuum.product_pages, shard_size=9)
    streamed = PAEPipeline(config).run_streamed(
        source, vacuum.query_log
    )
    _assert_identical(streamed, mono)


def test_merge_survives_shuffled_completion_order(
    vacuum, monolithic, monkeypatch
):
    """Tag results arriving in any order must merge identically.

    ``parallel_map`` preserves item order; this test drops that
    guarantee for the tag fan-out (results come back shuffled, as if
    fast shards finished first) and asserts the index-addressed merge
    still reproduces the monolithic output.
    """
    from repro.core.sharded import _tag_shard
    from repro.runtime import runner

    real = runner.parallel_map
    rng = random.Random(11)

    def shuffled(func, items, workers=None, **kwargs):
        results = real(func, items, workers=workers, **kwargs)
        if getattr(func, "func", None) is _tag_shard:
            results = list(results)
            rng.shuffle(results)
        return results

    monkeypatch.setattr(runner, "parallel_map", shuffled)
    source = MaterializedPageSource(vacuum.product_pages, shard_size=6)
    streamed = PAEPipeline(CONFIG).run_streamed(
        source, vacuum.query_log
    )
    _assert_identical(streamed, monolithic)


def test_max_labeled_sentences_cap_parity(vacuum):
    from dataclasses import replace

    config = replace(CONFIG, max_labeled_sentences=40)
    mono = PAEPipeline(config).run(
        vacuum.product_pages, vacuum.query_log
    )
    source = MaterializedPageSource(vacuum.product_pages, shard_size=13)
    streamed = PAEPipeline(config).run_streamed(
        source, vacuum.query_log
    )
    _assert_identical(streamed, mono)


# -- dirty input: the sequential-gate replay -----------------------------


def _with_cross_shard_duplicates(pages):
    # Copies of early pages appended at the end: with shard_size=10
    # the duplicates land two shards away from their originals, so
    # only the parent's global replay can catch them.
    return list(pages) + [pages[0], pages[5]]


def test_cross_shard_duplicates_match_monolithic(vacuum):
    from dataclasses import replace

    config = replace(
        CONFIG, ingest=IngestConfig(enabled=True, policy="repair")
    )
    pages = _with_cross_shard_duplicates(vacuum.product_pages)
    mono = PAEPipeline(config).run(pages, vacuum.query_log)
    source = MaterializedPageSource(pages, shard_size=10)
    streamed = PAEPipeline(config).run_streamed(
        source, vacuum.query_log, shard_workers=2
    )
    _assert_identical(streamed, mono)
    assert mono.quarantine is not None
    assert streamed.quarantine is not None
    assert (
        streamed.quarantine.to_payload() == mono.quarantine.to_payload()
    )
    checks = streamed.quarantine.counts_by_check()
    assert checks.get("duplicate_id") == 2


def test_strict_cross_shard_duplicate_raises_like_monolithic(vacuum):
    from dataclasses import replace

    config = replace(
        CONFIG, ingest=IngestConfig(enabled=True, policy="strict")
    )
    pages = _with_cross_shard_duplicates(vacuum.product_pages)
    with pytest.raises(PageQuarantinedError) as mono_error:
        PAEPipeline(config).run(pages, vacuum.query_log)
    source = MaterializedPageSource(pages, shard_size=10)
    with pytest.raises(PageQuarantinedError) as stream_error:
        PAEPipeline(config).run_streamed(source, vacuum.query_log)
    assert stream_error.value.page_id == mono_error.value.page_id
    assert stream_error.value.check == "duplicate_id"
    assert stream_error.value.detail == mono_error.value.detail


# -- page-fault injection inside shard workers ---------------------------


def test_streamed_dirt_faults_populate_quarantine(vacuum):
    from dataclasses import replace

    config = replace(CONFIG, iterations=1)
    plan = FaultPlan(
        [FaultSpec(stage="corpus", kind="dirt", corrupt_fraction=0.25)],
        seed=5,
    )
    source = MaterializedPageSource(vacuum.product_pages, shard_size=10)
    result = PAEPipeline(config).run_streamed(
        source, vacuum.query_log, faults=plan, shard_workers=2
    )
    # Worker tallies were absorbed into the parent's plan...
    assert plan.injected.get(("corpus", "dirt_pages"), 0) > 0
    counters = result.resilience_counters()
    # ...the corruption count reached the trace...
    assert counters["pages_corrupted"] > 0
    # ...and the gate contained the damage (dirt is calibrated to trip
    # at least one repair or quarantine check).
    contained = sum(counters["quarantined"].values()) + sum(
        counters["repaired"].values()
    )
    assert contained > 0


def test_streamed_corrupt_pages_faults_absorbed(vacuum):
    from dataclasses import replace

    config = replace(CONFIG, iterations=1)
    plan = FaultPlan(
        [
            FaultSpec(
                stage="corpus",
                kind="corrupt_pages",
                corrupt_fraction=0.2,
                times=None,
            )
        ],
        seed=9,
    )
    source = MaterializedPageSource(vacuum.product_pages, shard_size=10)
    result = PAEPipeline(config).run_streamed(
        source, vacuum.query_log, faults=plan
    )
    assert plan.injected.get(("corpus", "pages"), 0) > 0
    assert result.resilience_counters()["pages_corrupted"] > 0
    # The run survives the tag soup end to end.
    assert len(result.triples) > 0


def test_streamed_page_faults_deterministic_across_worker_counts(vacuum):
    from dataclasses import replace

    config = replace(CONFIG, iterations=1)
    outputs = []
    for workers in (1, 2):
        plan = FaultPlan(
            [
                FaultSpec(
                    stage="corpus", kind="dirt", corrupt_fraction=0.25
                )
            ],
            seed=5,
        )
        source = MaterializedPageSource(
            vacuum.product_pages, shard_size=10
        )
        result = PAEPipeline(config).run_streamed(
            source, vacuum.query_log, faults=plan, shard_workers=workers
        )
        outputs.append((result, dict(plan.injected)))
    (first, first_injected), (second, second_injected) = outputs
    # Decisions derive from (plan seed, shard index), so the worker
    # count cannot change what was corrupted or what came out.
    assert first_injected == second_injected
    assert first.triples == second.triples
    assert (
        first.quarantine.to_payload() == second.quarantine.to_payload()
    )


# -- generated sources end to end ----------------------------------------


def test_generated_source_runs_end_to_end():
    source = GeneratedPageSource("tennis", 30, shard_size=10, seed=7)
    trace = PipelineTrace()
    result = PAEPipeline(CONFIG).run_streamed(
        source, source.build_query_log(), trace=trace
    )
    assert len(result.triples) > 0
    assert result.coverage() > 0.0
    assert result.product_count == 30
    stages = {event.stage for event in trace.events}
    assert "shard_prep" in stages
    assert "tagger_tag" in stages
    # Peak RSS lands on the trace and in the resilience counters.
    assert result.resilience_counters()["peak_rss_bytes"] > 0


def test_generated_source_is_shard_size_invariant():
    logs = []
    results = []
    for shard_size in (7, 30):
        source = GeneratedPageSource(
            "tennis", 30, shard_size=shard_size, seed=7
        )
        logs.append(source.build_query_log().counts)
        results.append(
            PAEPipeline(CONFIG).run_streamed(
                source, source.build_query_log()
            )
        )
    assert logs[0] == logs[1]
    assert results[0].triples == results[1].triples
    assert results[0].seed_triples == results[1].seed_triples


# -- kill-and-resume mid-iteration ---------------------------------------


def test_kill_mid_iteration_resumes_without_retagging(vacuum, tmp_path):
    from dataclasses import replace

    config = replace(CONFIG, stage_retries=0)
    source = MaterializedPageSource(vacuum.product_pages, shard_size=10)
    reference = PAEPipeline(config).run_streamed(
        source, vacuum.query_log
    )

    # Shards 0 and 1 snapshot, then the fault kills the run entering
    # shard 2 of iteration 1 (inline workers keep the plan's counter
    # in-process; zero stage retries lets the crash escalate).
    plan = FaultPlan([FaultSpec(stage="shard_tag:0002", iteration=1)])
    with pytest.raises(FaultInjectionError):
        PAEPipeline(config).run_streamed(
            source,
            vacuum.query_log,
            checkpoint_dir=str(tmp_path),
            faults=plan,
            shard_workers=1,
        )
    snapshots = sorted(
        path.name for path in tmp_path.glob("shard_tag_*.json.gz")
    )
    assert snapshots == [
        "shard_tag_0001_0000.json.gz",
        "shard_tag_0001_0001.json.gz",
    ]
    assert not list(tmp_path.glob("iteration_*.json.gz"))

    trace = PipelineTrace()
    resumed = PAEPipeline(config).run_streamed(
        source,
        vacuum.query_log,
        checkpoint_dir=str(tmp_path),
        trace=trace,
        shard_workers=1,
    )
    _assert_identical(resumed, reference)
    assert resumed.bootstrap.iterations == reference.bootstrap.iterations
    # The two completed shards were loaded, not re-tagged...
    assert trace.counter_totals("shard_resume") == {"shards": 2}
    # ...and the finished iterations cleaned their scaffolding up.
    assert not list(tmp_path.glob("shard_tag_*.json.gz"))
    assert len(list(tmp_path.glob("iteration_*.json.gz"))) == 2


def test_completed_checkpoint_resumes_without_work(vacuum, tmp_path):
    source = MaterializedPageSource(vacuum.product_pages, shard_size=10)
    first = PAEPipeline(CONFIG).run_streamed(
        source, vacuum.query_log, checkpoint_dir=str(tmp_path)
    )
    trace = PipelineTrace()
    second = PAEPipeline(CONFIG).run_streamed(
        source,
        vacuum.query_log,
        checkpoint_dir=str(tmp_path),
        trace=trace,
    )
    _assert_identical(second, first)
    assert trace.counter_totals("checkpoint_resume") == {"iterations": 2}
    assert not any(
        event.stage == "tagger_train" for event in trace.events
    )


def test_foreign_source_checkpoint_rejected(vacuum, tmp_path):
    from repro.errors import CheckpointError

    source = MaterializedPageSource(vacuum.product_pages, shard_size=10)
    PAEPipeline(CONFIG).run_streamed(
        source, vacuum.query_log, checkpoint_dir=str(tmp_path)
    )
    other = MaterializedPageSource(
        vacuum.product_pages[:30], shard_size=10
    )
    with pytest.raises(CheckpointError):
        PAEPipeline(CONFIG).run_streamed(
            other, vacuum.query_log, checkpoint_dir=str(tmp_path)
        )


# -- streamed result shape ----------------------------------------------


def test_streamed_result_has_no_material(vacuum, monolithic):
    source = MaterializedPageSource(vacuum.product_pages, shard_size=10)
    streamed = PAEPipeline(CONFIG).run_streamed(
        source, vacuum.query_log
    )
    assert streamed.bootstrap.material is None
    assert monolithic.bootstrap.material is not None
    # slim() (the sweep-worker pickle shrinker) stays usable.
    assert streamed.slim().triples == streamed.triples
