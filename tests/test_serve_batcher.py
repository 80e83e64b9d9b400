"""Tests for the serve micro-batcher and its per-request isolation."""

import threading
import time

import pytest

from repro.errors import JobTimeoutError, ModelError, WorkerDeathError
from repro.runtime.jobs import Deadline
from repro.serve.batcher import BatchJob, MicroBatcher
from repro.types import TaggedSentence

pytestmark = pytest.mark.usefixtures("watchdog")

POISON_ID = "poison"


class EchoTagger:
    """Tags every token O; raises on sentences from the poison product.

    Mimics the strict-decode contract of ``CrfTagger.tag``: one bad
    sentence raises ``ModelError`` for the whole call.
    """

    def __init__(self, error=ModelError):
        self.error = error
        self.calls = 0

    def tag(self, sentences):
        self.calls += 1
        tagged = []
        for sentence in sentences:
            if sentence.product_id == POISON_ID:
                raise self.error(
                    "CrfTagger.tag decoded no labels for non-empty "
                    f"sentence {sentence.product_id!r}"
                )
            tagged.append(TaggedSentence(sentence, ("O",) * len(sentence)))
        return tagged


class FakeBundle:
    def __init__(self, tagger):
        self.tagger = tagger
        self.version = "fake"


@pytest.fixture
def batcher():
    instance = MicroBatcher(max_size=8, max_wait_seconds=0.02)
    yield instance
    instance.close()


def _job(bundle, make_sentence, product_id="p0", budget=5.0):
    return BatchJob(
        bundle,
        [make_sentence("iro wa aka desu", product_id)],
        Deadline.after(budget),
    )


def test_jobs_resolve_with_results(batcher, make_sentence):
    bundle = FakeBundle(EchoTagger())
    jobs = [
        batcher.submit(_job(bundle, make_sentence, f"p{i}"))
        for i in range(4)
    ]
    for job in jobs:
        assert job.wait(5.0)
        assert job.error is None
        assert len(job.result) == 1
        assert job.result[0].labels == ("O",) * len(job.result[0].sentence)


def test_concurrent_jobs_share_batches(batcher, make_sentence):
    bundle = FakeBundle(EchoTagger())
    jobs = [_job(bundle, make_sentence, f"p{i}") for i in range(8)]
    for job in jobs:
        batcher.submit(job)
    for job in jobs:
        assert job.wait(5.0)
    # The gather window merged at least some of the burst: fewer
    # tagger calls than jobs.
    assert bundle.tagger.calls < len(jobs)
    assert batcher.batched_jobs == len(jobs)


def test_idle_batcher_tags_a_lone_job_at_once(make_sentence):
    """Default batcher: no linger, so a lone job on an idle worker is
    tagged immediately; jobs that queue behind a running tag() call
    still go out together in the next one."""
    release = threading.Event()
    first_call = threading.Event()

    class GatedTagger(EchoTagger):
        def __init__(self):
            super().__init__()
            self.batch_sizes = []

        def tag(self, sentences):
            self.batch_sizes.append(len(sentences))
            if len(self.batch_sizes) == 1:
                first_call.set()
                assert release.wait(5.0)
            return super().tag(sentences)

    batcher = MicroBatcher()
    assert batcher.max_wait_seconds == 0.0
    bundle = FakeBundle(GatedTagger())
    try:
        lead = batcher.submit(_job(bundle, make_sentence, "lead"))
        assert first_call.wait(5.0)
        queued = [
            batcher.submit(_job(bundle, make_sentence, f"q{i}"))
            for i in range(3)
        ]
        release.set()
        for job in (lead, *queued):
            assert job.wait(5.0)
            assert job.error is None
        assert bundle.tagger.batch_sizes == [1, 3]
        assert batcher.batches == 2
    finally:
        release.set()
        batcher.close()


def test_model_error_fails_only_the_poisoned_request(
    batcher, make_sentence
):
    """Satellite: a strict-decode ModelError on one request's sentence
    must fail that request alone, not its whole micro-batch."""
    bundle = FakeBundle(EchoTagger())
    good = [_job(bundle, make_sentence, f"good{i}") for i in range(3)]
    poisoned = _job(bundle, make_sentence, POISON_ID)
    # Submit as one burst so they share a batch.
    for job in (*good[:2], poisoned, good[2]):
        batcher.submit(job)
    for job in (*good, poisoned):
        assert job.wait(5.0)
    assert isinstance(poisoned.error, ModelError)
    for job in good:
        assert job.error is None, f"batch-mate failed: {job.error}"
        assert job.result is not None
    assert batcher.isolated_retries >= 1


def test_worker_death_is_isolated_the_same_way(batcher, make_sentence):
    bundle = FakeBundle(EchoTagger(error=lambda msg: WorkerDeathError("tag", msg)))
    good = _job(bundle, make_sentence, "good")
    dead = _job(bundle, make_sentence, POISON_ID)
    batcher.submit(good)
    batcher.submit(dead)
    assert good.wait(5.0) and dead.wait(5.0)
    assert isinstance(dead.error, WorkerDeathError)
    assert good.error is None


def test_expired_deadline_drops_before_model_work(batcher, make_sentence):
    bundle = FakeBundle(EchoTagger())
    job = BatchJob(
        bundle,
        [make_sentence("iro wa aka desu")],
        Deadline.after(-1.0),
    )
    batcher.submit(job)
    assert job.wait(5.0)
    assert isinstance(job.error, JobTimeoutError)
    assert batcher.deadline_drops == 1
    # The tagger never ran for the dropped job.
    assert bundle.tagger.calls == 0


def test_different_bundles_never_share_a_batch(batcher, make_sentence):
    first = FakeBundle(EchoTagger())
    second = FakeBundle(EchoTagger())
    jobs = [
        batcher.submit(_job(first, make_sentence, "a")),
        batcher.submit(_job(second, make_sentence, "b")),
    ]
    for job in jobs:
        assert job.wait(5.0)
        assert job.error is None
    assert first.tagger.calls == 1
    assert second.tagger.calls == 1


def test_close_resolves_pending_jobs(make_sentence):
    class SlowTagger(EchoTagger):
        def tag(self, sentences):
            time.sleep(0.1)
            return super().tag(sentences)

    batcher = MicroBatcher(max_size=2, max_wait_seconds=0.0)
    bundle = FakeBundle(SlowTagger())
    jobs = [_job(bundle, make_sentence, f"p{i}") for i in range(6)]
    for job in jobs:
        batcher.submit(job)
    batcher.close()
    for job in jobs:
        assert job.wait(5.0), "close() left a job unresolved"
    # After close, new submissions fail fast instead of hanging.
    late = batcher.submit(_job(bundle, make_sentence, "late"))
    assert late.wait(1.0)
    assert late.error is not None


def test_submissions_from_many_threads(batcher, make_sentence):
    bundle = FakeBundle(EchoTagger())
    jobs = []
    lock = threading.Lock()

    def submit_some(prefix):
        for i in range(10):
            job = _job(bundle, make_sentence, f"{prefix}-{i}")
            batcher.submit(job)
            with lock:
                jobs.append(job)

    threads = [
        threading.Thread(target=submit_some, args=(f"t{t}",))
        for t in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for job in jobs:
        assert job.wait(5.0)
        assert job.error is None
    assert batcher.batched_jobs == 40
