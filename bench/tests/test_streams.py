"""Streams are a function of the seed alone."""

import pytest

from bench import streams


def everything(seed: int) -> list:
    truth = streams.Truth(seed)
    lists = streams.hot_lists(seed).tolist()
    return [
        streams.ingest_observes(seed, truth, 400, 0, "A"),
        streams.ingest_predicts(seed, truth, 50),
        lists,
        streams.rank_observes(seed, truth, "rank_hot", 100, 0, "P"),
        streams.rank_observes(seed, truth, "rank_wide", 100, 7, "P"),
        streams.rank_predicts(seed, truth, "rank_hot", 50, "C"),
        streams.rank_predicts(seed, truth, "rank_wide", 50, "L1000"),
        streams.churn_observes(seed, truth, 300, 0)[0],
        streams.churn_predicts(seed, truth, 50, 2_000, 512),
        streams.owned_observes(seed, truth, "replay_on", "W", range(500), 2_000, 100, 0),
        streams.owned_predicts(seed, truth, "cluster_prequential", "E0", [3, 5, 8], 1_000, 50),
    ]


def test_equal_seeds_give_byte_identical_streams():
    assert streams.digest(everything(3)) == streams.digest(everything(3))


def test_seeds_differ():
    first, second = everything(3), everything(4)
    for a, b in zip(first, second):
        assert streams.digest(a) != streams.digest(b)


def test_resends_repeat_an_earlier_request_byte_for_byte():
    truth = streams.Truth(0)
    ops, resend = streams.ingest_observes(0, truth, 5_000, 0, "A")
    assert 20 <= sum(resend) <= 100  # about 1 %
    for index, flag in enumerate(resend):
        if flag:
            assert ops[index] in ops[:index]
    keys = [op[4] for op, flag in zip(ops, resend) if not flag]
    assert len(set(keys)) == len(keys)


def test_values_stay_inside_the_model_range():
    truth = streams.Truth(1)
    ops, _ = streams.ingest_observes(1, truth, 2_000, 0, "A")
    assert all(streams.VALUE_MIN <= op[3] <= streams.VALUE_MAX for op in ops)


def test_hot_lists_hold_forty_distinct_services():
    lists = streams.hot_lists(0)
    assert lists.shape == (streams.HOT_USERS, streams.HOT_LIST)
    assert all(len(set(row)) == streams.HOT_LIST for row in lists.tolist())


@pytest.mark.parametrize("workload", ["rank_hot", "rank_wide"])
def test_rank_queries_name_twenty_candidates(workload):
    truth = streams.Truth(0)
    for user, service_ids, actual in streams.rank_predicts(0, truth, workload, 20, "C"):
        assert len(service_ids) == streams.CANDIDATES and actual > 0 and user >= 0


def test_churn_introduces_users_in_order_and_revisits_known_ones():
    truth = streams.Truth(0)
    ops, introduced = streams.churn_observes(0, truth, 1_000, 0)
    for op, known in zip(ops, introduced):
        assert 0 <= op[1] < known
    assert 400 <= introduced[-1] <= 600  # half the requests are new users
