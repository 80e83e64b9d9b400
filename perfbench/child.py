"""Child-process entry points of the benchmark.

Every measured step runs here, in a fresh interpreter started by
``run.py`` with ``PYTHONHASHSEED`` fixed and ``src`` on the path:

* ``gen-loop``   — write a batch workload's corpus, query log and truth;
* ``loop``       — one ``PAEPipeline.run_streamed`` over that corpus (or
  a one-iteration run that only fills the prep cache);
* ``serve-prep`` — train and publish the serve bundle, build the request
  bodies and their oracle responses;
* ``daemon``     — the serve daemon (stops when its stdin closes);
* ``load``       — the open-loop HTTP load generator.

Each mode writes its result as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from common import response_key, triples_digest

#: Every catalog is generated from one fixed seed, so its content (and
#: the damaged pages of the dirty one) is the same on every run: the
#: loop's output and cost depend on page order, so a reshuffled catalog
#: would be a different workload. The workload seed shapes how the
#: batch catalogs are serialized (key order, escaping, separators) and
#: the serve traffic.
CATALOG_SEED = 7

#: Batch catalogs: category, pages, pages per shard, dirty share.
LOOP_CORPORA = {
    "loop-warm": ("vacuum_cleaner", 200, 25, 0.0),
    "loop-cold": ("garden_de", 500, 50, 0.10),
}

#: The serve catalog holds pages of the bundle's category that the
#: bundle never trained on; each is sent once as HTML and once as text.
SERVE_BUNDLE = ("vacuum_cleaner", 120)
#: Share of requests carrying dirty HTML (the strict gate rejects each).
SERVE_DIRTY_SHARE = 0.05
SERVE_DIRT = ("truncate", "unclosed_tags", "entity_garbage", "mojibake")


def _write_json(path: str, payload) -> None:
    pathlib.Path(path).write_text(
        json.dumps(payload, ensure_ascii=False), encoding="utf-8"
    )


def _truth(generated, category: str) -> dict:
    """Generator truth of ``generated`` pages, as written to disk."""
    correct, incorrect = [], []
    for page in generated:
        for rows, triples in (
            (correct, page.correct_triples),
            (incorrect, page.incorrect_triples),
        ):
            rows.extend(
                [t.product_id, t.attribute, t.value] for t in triples
            )
    return {
        "correct": correct,
        "incorrect": incorrect,
        "alias_map": _alias_map(category),
    }


def _truth_sample(truth: dict):
    """The written truth file as a :class:`TruthSample`."""
    from repro.evaluation.truth import TruthSample
    from repro.types import Triple

    return TruthSample(
        correct=frozenset(Triple(*row) for row in truth["correct"]),
        incorrect=frozenset(Triple(*row) for row in truth["incorrect"]),
        alias_map=truth["alias_map"],
    )


def _alias_map(category: str) -> dict[str, str]:
    from repro.corpus.categories import get_schema

    return {
        name: attribute.name
        for attribute in get_schema(category).attributes
        for name in attribute.all_names()
    }


# -- batch workloads -------------------------------------------------------


def gen_loop(args) -> None:
    import random

    from repro.corpus.dirt import dirty_pages
    from repro.corpus.stream import GeneratedPageSource

    category, pages, shard_size, dirt = LOOP_CORPORA[args.workload]
    out = pathlib.Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    source = GeneratedPageSource(
        category, pages, shard_size=shard_size, seed=CATALOG_SEED
    )
    generated = list(source.iter_generated())
    page_list = [item.page for item in generated]
    expected = {}
    if dirt:
        page_list, report = dirty_pages(page_list, dirt, seed=CATALOG_SEED)
        expected = report.expected_checks()
    rng = random.Random(f"serialization:{args.seed}")
    with open(out / "pages.jsonl", "w", encoding="utf-8") as handle:
        for page in page_list:
            fields = [
                ("product_id", page.product_id),
                ("category", page.category),
                ("html", page.html),
                ("locale", page.locale),
            ]
            rng.shuffle(fields)
            handle.write(json.dumps(
                dict(fields),
                ensure_ascii=rng.random() < 0.5,
                separators=rng.choice(((",", ":"), (", ", ": "))),
            ) + "\n")
    _write_json(out / "querylog.json", dict(source.build_query_log().counts))
    _write_json(out / "truth.json", _truth(generated, category))
    _write_json(out / "meta.json", {
        "category": category,
        "locale": source.locale,
        "shard_size": shard_size,
        "pages": len(page_list),
        "dirt_expected_checks": expected,
    })


def run_loop(args) -> None:
    from repro import PAEPipeline, PipelineConfig, PipelineTrace
    from repro.corpus.stream import JsonlPageSource

    corpus = pathlib.Path(args.dir)
    meta = json.loads((corpus / "meta.json").read_text())
    source = JsonlPageSource(
        corpus, shard_size=meta["shard_size"], locale=meta["locale"],
        category=meta["category"],
    )
    query_log = source.query_log()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        _write_json(args.out, {"setup_s": setup_s})
        return

    import spans

    tracer = spans.Tracer(args.spool)
    waves: list[dict] = []
    if args.spool:
        spans.install(tracer)
    else:
        spans.count_pool_waves(waves)
    # The prep cache is keyed by the ingest config alone, so a one-
    # iteration run fills it as well as the full loop would.
    config = (
        PipelineConfig(iterations=1, enable_semantic_cleaning=False)
        if args.fill else PipelineConfig()
    )
    trace = PipelineTrace()
    started = time.perf_counter()
    result = PAEPipeline(config).run_streamed(
        source,
        query_log,
        trace=trace,
        cache_dir=args.cache,
        checkpoint_dir=args.checkpoint,
    )
    wall = time.perf_counter() - started

    from repro.evaluation.metrics import precision

    sample = _truth_sample(json.loads((corpus / "truth.json").read_text()))
    counters = result.resilience_counters()
    payload = {
        "setup_s": setup_s,
        "wall_s": wall,
        "pages": source.page_count,
        "triples": len(result.triples),
        "digest": triples_digest(
            (t.product_id, t.attribute, t.value) for t in result.triples
        ),
        "precision": precision(result.triples, sample).precision,
        "coverage": result.coverage(),
        "quarantined": counters["quarantined"],
        "repaired": counters["repaired"],
        "stage_totals": trace.stage_totals(),
        "prep_cache": result.perf_counters()["prep_cache"],
        "waves": waves,
    }
    if args.spool:
        payload["spool_files"] = tracer.merge_spool()
        payload["spans"] = tracer.snapshot()
    _write_json(args.out, payload)


# -- serve workload --------------------------------------------------------


def serve_prep(args) -> None:
    import random

    from repro.config import ServeConfig
    from repro.corpus.dirt import dirty_pages
    from repro.corpus.stream import GeneratedPageSource
    from repro.html import extract_text_blocks, parse_html
    from repro.serve import ExtractionService, ModelRegistry, train_and_publish

    out = pathlib.Path(args.dir)
    registry_dir = out / "registry"
    category, products = SERVE_BUNDLE
    train_and_publish(registry_dir, category, products)

    dirty_count = round(args.count * SERVE_DIRTY_SHARE)
    clean_count = args.count - dirty_count
    source = GeneratedPageSource(
        category, -(-clean_count // 2), shard_size=clean_count,
        seed=CATALOG_SEED,
    )
    generated = list(source.iter_generated())
    pages = [item.page for item in generated]
    rng = random.Random(f"serve-traffic:{args.seed}")
    mix = [(page, kind) for page in pages for kind in ("html", "text")]
    mix = mix[:clean_count] + [
        (rng.choice(pages), "dirty") for _ in range(dirty_count)
    ]
    rng.shuffle(mix)
    requests = []
    for number, (page, kind) in enumerate(mix):
        request_id = f"{page.product_id}.r{number}"
        if kind == "html":
            body = {"html": page.html}
        elif kind == "text":
            blocks = extract_text_blocks(parse_html(page.html))
            body = {"text": "\n".join(blocks)}
        else:
            dirty, _ = dirty_pages(
                [page], 1.0, seed=rng.randrange(1 << 30), kinds=SERVE_DIRT
            )
            body = {"html": dirty[0].html}
        body.update(product_id=request_id, locale=page.locale)
        requests.append({
            "id": request_id,
            "product": page.product_id,
            "kind": kind,
            "body": json.dumps(body, ensure_ascii=False),
        })

    # The oracle: the same bodies through a separate in-process service.
    registry = ModelRegistry(registry_dir)
    registry.activate_latest()
    # No batching wait: requests come one at a time, so lingering for
    # batch-mates would only idle. Tags must not depend on batching; the
    # response check against this oracle would catch it if they did.
    service = ExtractionService(
        registry, ServeConfig(batch_max_wait_seconds=0.0)
    )
    try:
        for request in requests:
            status, payload, _ = service.handle_extract(
                request["body"].encode("utf-8")
            )
            request["expect"] = response_key(status, payload)
    finally:
        service.close()
    _write_json(out / "requests.json", {
        "requests": requests,
        "truth": _truth(generated, category),
    })


def run_daemon(args) -> None:
    """Serve until stdin closes; writes span totals on the way out."""
    from repro.config import ServeConfig
    from repro.serve import ExtractionService, ModelRegistry, start_server

    import spans

    tracer = spans.Tracer(None)
    if args.trace:
        spans.install(tracer)
    registry = ModelRegistry(args.registry)
    registry.activate_latest()
    service = ExtractionService(registry, ServeConfig(port=0))
    server, thread = start_server(service, "127.0.0.1", 0)
    print(server.server_address[1], flush=True)
    sys.stdin.read()
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=5.0)
    if args.out:
        _write_json(args.out, tracer.snapshot())


def run_load(args) -> None:
    import loadgen

    plan = json.loads(pathlib.Path(args.plan).read_text())
    data = json.loads((pathlib.Path(args.dir) / "requests.json").read_text())
    result = loadgen.run_plan(
        "127.0.0.1", args.port, plan, data["requests"], args.connections
    )
    served = [row for step in result["steps"] for row in step.pop("served")]
    result["quality"] = served_quality(served, data["truth"])
    _write_json(args.out, result)


def served_quality(served: list, truth: dict) -> dict:
    """Precision and coverage of the triples served for clean requests."""
    from repro.evaluation.metrics import precision
    from repro.types import Triple

    sample = _truth_sample(truth)
    triples = {
        Triple(product, attribute, value)
        for product, rows in served
        for attribute, value in rows
    }
    covered = sum(1 for _, rows in served if rows)
    return {
        "precision": precision(triples, sample).precision,
        "coverage": covered / len(served) if served else 0.0,
        "responses": len(served),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=(
        "gen-loop", "loop", "serve-prep", "daemon", "load"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir")
    parser.add_argument("--cache")
    parser.add_argument("--checkpoint")
    parser.add_argument("--spool")
    parser.add_argument("--t0", type=float, default=0.0)
    parser.add_argument("--out")
    parser.add_argument("--count", type=int)
    parser.add_argument("--registry")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--fill", action="store_true")
    parser.add_argument("--plan")
    parser.add_argument("--port", type=int)
    parser.add_argument("--connections", type=int, default=1)
    args = parser.parse_args(argv)
    handler = {
        "gen-loop": gen_loop,
        "loop": run_loop,
        "serve-prep": serve_prep,
        "daemon": run_daemon,
        "load": run_load,
    }[args.mode]
    handler(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
