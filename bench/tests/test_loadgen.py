"""The ladder rule, the tail rule and the open loop's due-time clock."""

import time

from bench.loadgen import (
    Phase,
    closed_loop,
    open_loop,
    percentiles,
    rung_result,
    side_by_side,
    sustained_rate,
)


def rung(rate: float, latency_ms: float, sent_share: float = 1.0, failed: int = 0) -> dict:
    count = int(rate * sent_share)
    phase = Phase(latencies_ms=[latency_ms] * (count - failed) + [None] * failed,
                  replies=[0] * count, elapsed_s=1.0)
    return rung_result(rate, phase, 1.0)


def test_ladder_picks_the_last_rung_of_the_unbroken_passing_run():
    rungs = [rung(1000, 1.0), rung(2000, 2.0), rung(3000, 7.0), rung(4000, 1.0)]
    assert [r["passed"] for r in rungs] == [True, True, False, True]
    assert sustained_rate(rungs) == 2000.0


def test_ladder_is_zero_when_the_first_rung_misses():
    assert sustained_rate([rung(1000, 9.0), rung(2000, 1.0)]) == 0.0


def test_a_rung_misses_on_backlog_or_failures_even_with_a_fast_tail():
    assert not rung(2000, 1.0, sent_share=0.9)["passed"]  # achieved < 0.97 x offered
    assert not rung(2000, 1.0, failed=60)["passed"]  # < 99 % succeeded
    assert rung(2000, 1.0, failed=10)["passed"]


def test_tail_is_p95_below_a_thousand_samples():
    assert percentiles(list(range(999)))["tail"] == "p95"
    assert percentiles(list(range(1000)))["tail"] == "p99"
    assert percentiles([])["samples"] == 0


def test_open_loop_times_from_the_due_time_so_a_stall_is_charged_to_later_requests():
    calls = []

    def send(op):
        calls.append(op)
        if op == 0:
            time.sleep(0.05)  # one stall, five request intervals long
        return op

    phase = open_loop(list(range(20)), send, rate=100.0, seconds=0.2,
                      start_at=time.perf_counter())
    assert phase.attempted == 20 and phase.failed == 0
    assert phase.latencies_ms[0] >= 50.0
    assert phase.latencies_ms[1] >= 35.0  # due at 10 ms, sent after the stall
    assert phase.latencies_ms[-1] < 10.0  # the backlog has drained
    assert max(phase.late_ms) >= 35.0


def test_closed_loop_counts_a_raised_request_as_failed_and_goes_on():
    def send(op):
        if op == 1:
            raise ConnectionError("refused")
        return op

    phase = closed_loop([0, 1, 2], send, seconds=5.0)
    assert (phase.attempted, phase.failed, phase.succeeded) == (3, 1, 2)
    assert phase.replies == [0, None, 2]


def test_the_generator_refuses_a_third_thread():
    try:
        side_by_side([lambda: 1, lambda: 2, lambda: 3])
    except ValueError:
        return
    raise AssertionError("three generator threads were allowed")
