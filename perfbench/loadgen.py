"""Open-loop HTTP load generator for the serve workload.

One process drives the daemon over a few persistent HTTP/1.1
connections. Requests are released on a seeded arrival schedule
whether or not earlier ones have finished, and each is timed from the
moment it was due, so a stalled server shows as queueing delay on the
requests behind the stall. A request waiting for a busy connection is
waiting on the server; only the dispatcher's own wake-up delay counts
as generator lateness.

A step that falls behind is cut off ``grace_s`` after its last due
time: connections are closed and every request not answered by then
counts as missing the latency limit.
"""

from __future__ import annotations

import http.client
import json
import math
import queue
import socket
import threading
import time

from common import (
    arrival_schedule,
    median,
    percentile,
    response_key,
    tail_percentile,
)

#: Latency limit behind goodput, milliseconds.
LATENCY_LIMIT_MS = 100.0
#: Share of sent requests that must succeed within the latency limit
#: for a step to pass.
MIN_SUCCESS_SHARE = 0.99
#: Generator p99 wake-up delay above which a step is invalid, ms.
MAX_LATENESS_P99_MS = 10.0


class _Record:
    __slots__ = ("due", "sent", "done", "key", "error")

    def __init__(self, due: float):
        self.due = due
        self.sent = self.done = math.nan
        self.key = None
        self.error = None


def classify(record: _Record, expected: list) -> str:
    """``ok`` | ``failed`` (a program failure) | ``missed`` (cut off)."""
    if record.error == "cutoff":
        return "missed"
    if record.error is not None:
        return "failed"
    if math.isnan(record.done):
        return "missed"
    return "ok" if record.key == expected else "failed"


def run_step(
    host: str,
    port: int,
    due: list[float],
    requests: list[dict],
    connections: int,
    grace_s: float,
) -> dict:
    """Send ``requests`` on the ``due`` schedule; summarise the step."""
    records = [_Record(offset) for offset in due]
    work: queue.Queue = queue.Queue()
    conns = [
        http.client.HTTPConnection(host, port, timeout=60)
        for _ in range(connections)
    ]
    for conn in conns:
        conn.connect()
    start = time.perf_counter() + 0.05
    cutoff = start + (due[-1] if due else 0.0) + grace_s

    def sender(conn: http.client.HTTPConnection) -> None:
        while True:
            index = work.get()
            if index is None:
                return
            record = records[index]
            if time.perf_counter() > cutoff:
                record.error = "cutoff"
                continue
            body = requests[index]["body"].encode("utf-8")
            record.sent = time.perf_counter()
            try:
                conn.request(
                    "POST", "/extract", body,
                    {"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                record.key = response_key(
                    response.status, json.loads(response.read())
                )
            except Exception as error:  # noqa: BLE001 - recorded as failed
                # The sender must outlive any one bad response: a broken
                # connection or malformed body fails this request only.
                record.error = (
                    "cutoff" if time.perf_counter() > cutoff
                    else type(error).__name__
                )
                conn.close()
                continue
            record.done = time.perf_counter()

    threads = [
        threading.Thread(target=sender, args=(conn,), daemon=True)
        for conn in conns
    ]
    for thread in threads:
        thread.start()
    lateness = []
    for index, offset in enumerate(due):
        target = start + offset
        pause = target - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        lateness.append(max(0.0, time.perf_counter() - target))
        records[index].due = target
        work.put(index)
    for _ in threads:
        work.put(None)
    for thread in threads:
        thread.join(timeout=max(0.0, cutoff - time.perf_counter()))
    for conn in conns:  # cut off whatever is still in flight
        if conn.sock is not None:
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        conn.close()
    for thread in threads:
        thread.join(timeout=10.0)
    return summarise(records, requests, lateness, start)


def summarise(records, requests, lateness, start) -> dict:
    outcomes = [
        classify(record, request["expect"])
        for record, request in zip(records, requests)
    ]
    latency_ms = [
        1000 * (record.done - record.due) if outcome == "ok" else math.inf
        for record, outcome in zip(records, outcomes)
    ]
    sent = len(records)
    ok = outcomes.count("ok")
    p_tail, tail_ms = tail_percentile(latency_ms)
    quarter = max(1, sent // 4)
    head, tail = median(latency_ms[:quarter]), median(latency_ms[-quarter:])
    growing = tail > 2 * head + 20.0
    done = [record.done for record in records if not math.isnan(record.done)]
    span = max(done + [records[-1].due]) - start if records else 1.0
    good = sum(1 for ms in latency_ms if ms <= LATENCY_LIMIT_MS)
    lateness_ms = [1000 * value for value in lateness]
    valid = percentile(lateness_ms, 99) <= MAX_LATENESS_P99_MS
    passed = (
        tail_ms <= LATENCY_LIMIT_MS
        and good >= MIN_SUCCESS_SHARE * sent
        and not growing
    )
    return {
        "sent": sent,
        "ok": ok,
        "failed": outcomes.count("failed"),
        "missed": outcomes.count("missed"),
        "p50_ms": percentile(latency_ms, 50),
        "tail_p": p_tail,
        "tail_ms": tail_ms,
        "backlog_growing": growing,
        "passed": passed,
        "goodput_rps": good / span,
        "completed_rps": len(done) / span,
        "lateness_p99_ms": percentile(lateness_ms, 99),
        "lateness_max_ms": max(lateness_ms, default=0.0),
        "generator_valid": valid,
        "failures": [
            {"id": request["id"], "error": record.error,
             "got": record.key, "expected": request["expect"]}
            for record, request, outcome in zip(records, requests, outcomes)
            if outcome == "failed"
        ][:5],
        "client_ms": {
            request["id"]: 1000 * (record.done - record.sent)
            for record, request, outcome in zip(records, requests, outcomes)
            if outcome == "ok"
        },
        "served": [
            [request["product"], record.key[2]]
            for record, request, outcome in zip(records, requests, outcomes)
            if outcome == "ok" and request["kind"] != "dirty"
        ],
    }


def server_stats(host: str, port: int) -> dict:
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", "/stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def wait_idle(host: str, port: int, timeout: float = 15.0) -> None:
    """Let requests cut off by the previous step drain out of the daemon."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stats = server_stats(host, port)
        if (
            stats["admission"]["in_flight"] == 0
            and stats["batcher"]["queued"] == 0
        ):
            return
        time.sleep(0.05)


def run_plan(host, port, plan, requests, connections) -> dict:
    """Run every step of ``plan``; a step whose generator fell behind is
    re-run once, and the ladder stops at a step still invalid."""
    steps = []
    cursor = 0
    for step in plan["steps"]:
        count = step["count"]
        batch = [
            requests[(cursor + offset) % len(requests)]
            for offset in range(count)
        ]
        cursor += count
        due = arrival_schedule(step["rate"], count, step["seed"])
        for _attempt in range(2):
            summary = run_step(
                host, port, due, batch, connections, plan["grace_s"]
            )
            wait_idle(host, port)
            if summary["generator_valid"]:
                break
        summary["rate"] = step["rate"]
        steps.append(summary)
        if not summary["generator_valid"]:
            break
    return {"steps": steps, "stats": server_stats(host, port)}
