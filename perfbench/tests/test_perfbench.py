"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import json
import multiprocessing
import pathlib
import re
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

BENCH = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _declared() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_names_and_units_are_well_formed():
    names = (
        list(run.WORKLOADS) + list(run.END_TO_END) + list(run.PER_LAYER)
    )
    assert len(names) == len(set(names))
    for name in names:
        assert common.NAME_RE.match(name), name
    for unit, *_ in list(run.END_TO_END.values()) + list(
        run.PER_LAYER.values()
    ):
        assert UNIT_RE.match(unit), unit
    for _unit, better, bound in run.END_TO_END.values():
        assert better in ("higher", "lower")
        assert 0 < bound <= 0.25
    for why in run.WORKLOADS.values():
        assert "\n" not in why and len(why) <= 200


def test_benchmark_json_declares_exactly_what_run_emits():
    doc = _declared()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in doc["per_layer"]} == run.PER_LAYER
    assert run.END_TO_END["setup_s"][:2] == ("s", "lower")
    assert run.END_TO_END["setup_s"][2] == max(
        bound for _, _, bound in run.END_TO_END.values()
    )
    assert set(run.layer_metrics(
        {"totals": {}, "counts": {}, "samples": {}}, {}
    )) | {"trace.overhead"} == set(run.PER_LAYER)


def test_arrival_schedule_is_identical_for_a_seed():
    first = common.arrival_schedule(30, 200, seed=7)
    assert first == common.arrival_schedule(30, 200, seed=7)
    assert first != common.arrival_schedule(30, 200, seed=8)
    assert len(first) == 200
    assert first == sorted(first)
    assert 0 <= first[0] and first[-1] <= 200 / 30


def test_serve_plan_is_identical_for_a_seed():
    assert run.serve_plan(3, False) == run.serve_plan(3, False)
    plan = run.serve_plan(3, False)
    assert [step["rate"] for step in plan["steps"]] == [10, 30, 60, 120]
    assert all(step["count"] >= 200 for step in plan["steps"])
    assert plan["steps"][0]["count"] == run.REFERENCE_REQUESTS


def test_tail_percentile_keeps_ten_samples_beyond():
    assert common.tail_percentile(list(range(200))) == (95.0, 189)
    assert common.tail_percentile(list(range(400))) == (97.5, 389)
    assert common.tail_percentile(list(range(100)))[0] == 90.0
    assert common.tail_percentile(list(range(19)))[0] == 50.0
    assert common.percentile(list(range(200)), 95) == 189


class _FakeDaemon(BaseHTTPRequestHandler):
    """Answers every /extract; corrupts the triples of product ``bad``
    and the whole body of product ``junk``."""

    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def do_POST(self):  # noqa: N802 - stdlib casing
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        value = "wrong" if body["product_id"] == "bad" else "red"
        payload = json.dumps({
            "status": "ok",
            "triples": [{"attribute": "color", "value": value}],
        }).encode()
        if body["product_id"] == "junk":
            payload = b"{not json"
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


def test_corrupted_serve_response_counts_as_failed():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FakeDaemon)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    expected = [200, None, [["color", "red"]]]
    requests = [
        {"id": pid, "product": pid, "kind": "text", "expect": expected,
         "body": json.dumps({"product_id": pid, "text": "x"})}
        for pid in ("good", "bad", "junk", "good")
    ]
    try:
        summary = loadgen.run_step(
            "127.0.0.1", server.server_address[1], [0.0, 0.01, 0.02, 0.03],
            requests, connections=2, grace_s=5.0,
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert summary["sent"] == 4
    assert summary["ok"] == 2
    assert summary["failed"] == 2
    bad, junk = summary["failures"]
    assert bad["id"] == "bad"
    assert bad["got"] == [200, None, [["color", "wrong"]]]
    assert junk["id"] == "junk" and junk["error"] == "JSONDecodeError"


def test_missing_layer_span_fails_the_traced_run():
    totals = {"crf.tag": [3, 0.1, 0.1], "serve.handle": [3, 0.2, 0.1]}
    missing = spans.missing_layers(totals, ("crf.tag", "serve", "ingest"))
    assert missing == ["ingest"]
    report = {"problems": [], "missing_layers": missing}
    assert run.verdict(report) is False
    report["missing_layers"] = []
    assert run.verdict(report) is True


def _traced_call(value):
    return value * 2


def _worker(fn) -> None:
    fn(1)
    fn(2)


def test_worker_spans_reach_the_parent(tmp_path):
    tracer = spans.Tracer(str(tmp_path))
    multiprocessing.util.register_after_fork(tracer, spans.Tracer._after_fork)
    traced = spans._span(tracer, _traced_call, "probe.call")
    traced(0)
    process = multiprocessing.get_context("fork").Process(
        target=_worker, args=(traced,)
    )
    process.start()
    process.join(timeout=30)
    assert process.exitcode == 0
    assert tracer.merge_spool() == 1
    assert tracer.calls("probe.call") == 3


def test_nested_spans_split_self_time():
    tracer = spans.Tracer()
    inner = spans._span(tracer, lambda: None, "inner")
    outer = spans._span(tracer, lambda: inner(), "outer")
    same = spans._span(tracer, lambda: outer(), "outer")
    same()
    calls, inclusive, own = tracer.totals["outer"]
    assert calls == 1
    assert tracer.calls("inner") == 1
    assert own <= inclusive
    assert abs(inclusive - own - tracer.seconds("inner")) < 1e-9
