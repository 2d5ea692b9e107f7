"""``PlacementTable.owner_of`` remembers what it hashed.

The router asks for the owner of every candidate of every ranking; a table
is immutable, so the answer is computed once per ``(kind, id)`` and kept on
the instance.  These tests pin that the remembered answer *is* the
rendezvous argmax, that a derived table starts from nothing, and that the
memo is bounded.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PlacementTable, ShardSpec
from repro.cluster import placement
from repro.cluster.placement import rendezvous_score

shard_sets = st.lists(
    st.tuples(st.sampled_from("abcdefgh"), st.booleans()),
    min_size=1, max_size=6, unique_by=lambda pair: pair[0],
).filter(lambda pairs: not all(draining for __, draining in pairs))
ids = st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=30)


def argmax_owner(table, kind, ext_id):
    """The definition, spelled out: highest score among the shards that are
    not draining, name as the tie-break."""
    return max(
        (shard for shard in table.shards if not shard.draining),
        key=lambda shard: (rendezvous_score(kind, ext_id, shard.name), shard.name),
    )


@given(shards=shard_sets, ext_ids=ids, kind=st.sampled_from(["user", "service"]))
@settings(max_examples=150, deadline=None)
def test_remembered_owner_is_the_rendezvous_argmax(shards, ext_ids, kind):
    table = PlacementTable(
        [ShardSpec(name=name, draining=draining) for name, draining in shards]
    )
    for ext_id in ext_ids + ext_ids:  # second pass answers from the memo
        assert table.owner_of(kind, ext_id) is argmax_owner(table, kind, ext_id)
    assert len(table._owners) == len(set(ext_ids))


@given(ext_ids=ids)
@settings(max_examples=50, deadline=None)
def test_a_derived_table_never_sees_its_parents_memo(ext_ids):
    table = PlacementTable([ShardSpec(name=name) for name in "abc"])
    for ext_id in ext_ids:
        table.owner_of("user", ext_id)
    for derived in (
        table.with_shard(ShardSpec(name="d")),
        table.without_shard("a"),
        table.draining_shard("b"),
    ):
        assert derived._owners == {}
        for ext_id in ext_ids:
            assert derived.owner_of("user", ext_id) is argmax_owner(
                derived, "user", ext_id
            )
    # ... and the parent still answers for itself.
    for ext_id in ext_ids:
        assert table.owner_of("user", ext_id) is argmax_owner(table, "user", ext_id)


def test_memo_stays_under_its_cap(monkeypatch):
    monkeypatch.setattr(placement, "_OWNER_MEMO_CAP", 64)
    table = PlacementTable([ShardSpec(name=name) for name in "abc"])
    for ext_id in range(10 * 64):
        owner = table.owner_of("service", ext_id)
        assert len(table._owners) <= 64
        assert owner is argmax_owner(table, "service", ext_id)


def test_an_unknown_kind_is_rejected_and_not_remembered():
    table = PlacementTable([ShardSpec(name="a")])
    for __ in range(2):
        with pytest.raises(ValueError, match="kind"):
            table.owner_of("shard", 1)
    assert table._owners == {}
