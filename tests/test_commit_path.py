"""State is a fold of one ``_apply`` over the log — for every caller.

The live server, crash recovery and a standby are three suppliers of the
same entries to the same transition function.  The machine below drives a
durable primary through every entry kind and, after each step, opens a
second server on a copy of its data directory and catches a standby up
over an in-process link: all three must agree on every part of the PR 16
oracle, and the standby's log must be the primary's, byte for byte.  The
structural guard pins what makes that cheap to keep true: one append site,
one failed-append handler, no per-caller flag.

``_commit`` takes a *group* of entries — an observe with its revive events,
a standby's pulled batch — and makes it durable with one fsync before any
of it is applied; ``TestOneRequestOneGroup`` counts the fsyncs, checks the
three suppliers after groups of one, two and three, and fails the fsync to
show none of a group reaches ``_apply``.

A read is no entry at all.  The machine's read rules ask all three servers
the same ranking, single predictions and credence — of hot, spilled and
unknown parties — and require equal answers and an unmoved snapshot, log
and fsync count on each; the second structural guard pins why: nothing the
read handlers can reach commits, takes the ingest lock or writes a spill
row.
"""

import ast
import contextlib
import errno
import json
import os
import pathlib
import shutil
import tempfile

import pytest
from hypothesis import seed, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.lifecycle import LifecycleConfig
from repro.robustness import GateConfig
from repro.server import PredictionServer, ReplicationConfig
from repro.server.http import ServiceError
from repro.simulation.drills import diff_state, snapshot
from tests.conftest import wal_counts

REPO = pathlib.Path(__file__).resolve().parent.parent
NODE_ARGS = dict(
    rng=0,
    background_replay=False,
    binary_port=None,
    checkpoint_interval=10_000,  # checkpoints happen when the machine says so
    gate=GateConfig(warmup=2),  # short runs must reach clip and quarantine
    lifecycle=LifecycleConfig(hot_users=3, hot_services=3),
)


class _InProcessLink:
    """``HttpReplicaLink.fetch`` without the socket: the primary's shipping
    handler, through the JSON the wire would carry."""

    def __init__(self, primary: PredictionServer) -> None:
        self.primary = primary

    def fetch(self, after_seq: int, limit: int) -> dict:
        batch = self.primary._handle_replication_wal(
            {"after_seq": [str(after_seq)], "limit": [str(limit)]}
        )
        return json.loads(json.dumps(batch))


def _segments(data_dir: pathlib.Path) -> dict:
    return {
        path.name: path.read_bytes() for path in sorted(data_dir.glob("wal-*.jsonl"))
    }


def _fleet(root: pathlib.Path) -> "tuple[PredictionServer, PredictionServer]":
    """A durable primary and a standby that pulls from it in-process."""
    store = str(root / "epoch.json")
    primary = PredictionServer(
        data_dir=str(root / "primary"),
        replication=ReplicationConfig(store, role="primary", node_id="p"),
        **NODE_ARGS,
    )
    standby = PredictionServer(
        data_dir=str(root / "standby"),
        replication=ReplicationConfig(
            store, role="standby", primary_address=("127.0.0.1", 1), node_id="s"
        ),
        replication_link=_InProcessLink(primary),
        **NODE_ARGS,
    )
    return primary, standby


@contextlib.contextmanager
def _recovered(root: pathlib.Path):
    """A server recovered from a copy of the primary's data directory."""
    copy = root / "copy"
    shutil.copytree(root / "primary", copy)
    recovered = PredictionServer(data_dir=str(copy), **NODE_ARGS)
    try:
        yield recovered
    finally:
        recovered.kill()
        shutil.rmtree(copy)


def _assert_three_suppliers_agree(root: pathlib.Path, primary, standby) -> None:
    """The standby (caught up) and a server recovered from a copy of the
    primary's data dir hold the live primary's state, part for part."""
    live = snapshot(primary)

    while standby._replicator.poll_once():
        pass
    assert diff_state(live, snapshot(standby)) == []
    assert standby._migration_status() == primary._migration_status()
    assert standby._latest_ingest_ts == primary._latest_ingest_ts
    assert _segments(root / "standby") == _segments(root / "primary")

    with _recovered(root) as recovered:
        # The drift window only covers what a process ingested live.
        assert diff_state(live, snapshot(recovered), ignore=("drift",)) == []
        assert recovered._migration_status() == primary._migration_status()
        assert recovered._latest_ingest_ts == primary._latest_ingest_ts


CANDIDATES = list(range(7))  # services 5 and 6 are never observed


def _read(server: PredictionServer, user: int) -> list:
    """Everything a client can read about ``user`` — a ranking of
    :data:`CANDIDATES`, each single prediction with its expected error, the
    candidates' credence — as ``[prediction, expected_error, credence]``
    rows, ``None`` where the fallback chain answered (its means belong to
    the process, not the log).  The read must move nothing: not the
    oracle's snapshot, not the log, not the fsync count."""
    before = snapshot(server), server.wal_last_seq, wal_counts()
    values, sources = server._predict_batch(user, CANDIDATES)
    singles = [server._predict_one(user, service) for service in CANDIDATES]
    credence = server._credence(CANDIDATES)
    assert (server.wal_last_seq, wal_counts()) == before[1:]
    assert diff_state(before[0], snapshot(server)) == []
    for value, source, single in zip(values, sources, singles):
        if source == "model":  # the ranking is the single GET, candidate by candidate
            assert single["source"] == "model"
            assert value == pytest.approx(single["prediction"], rel=1e-9, abs=0.0)
    return [
        [single["prediction"], single["expected_error"], error]
        if single["source"] == "model"
        else None
        for single, error in zip(singles, credence)
    ]


def _assert_same_answers(ours: list, theirs: list) -> None:
    """Prediction to the fused kernel's tolerance (its summation order
    depends on who else missed the cache), errors exactly."""
    assert [row is None for row in ours] == [row is None for row in theirs]
    for mine, wanted in zip(ours, theirs):
        if mine is not None:
            assert mine[0] == pytest.approx(wanted[0], rel=1e-9, abs=0.0)
            assert mine[1:] == wanted[1:]



@seed(17)
class ThreeCallersMachine(RuleBasedStateMachine):
    USERS = st.integers(0, 5)
    SERVICES = st.integers(0, 4)
    PICK = st.integers(0, 1000)

    def __init__(self):
        super().__init__()
        self.root = pathlib.Path(tempfile.mkdtemp(prefix="commit-path-"))
        self.primary, self.standby = _fleet(self.root)
        self.clock = 0.0
        self.keyed: list[dict] = []  # every keyed observation sent so far
        self.exported: list[list] = []  # [kind, id, payload] taken off the primary
        self.batches = 0

    def teardown(self):
        self.primary.kill()
        self.standby.kill()
        shutil.rmtree(self.root, ignore_errors=True)

    def _held(self, kind):
        return self.primary.model.with_model(lambda m: m.entity_ids(kind))

    def _cold_users(self):
        return self.primary.model.with_model(lambda m: sorted(m._spilled_users))

    def _hot_users(self):
        return self.primary.model.with_model(lambda m: sorted(m._u_slot_of))

    @initialize(warm=st.booleans())
    def start(self, warm):
        """Half the walks start on a tier that has already spilled users and
        services, so the read and migration rules meet cold parties from
        their first step rather than once in a dozen walks."""
        for k in range(6 if warm else 0):
            self.clock += 1.0
            self.primary._handle_observation(
                {"timestamp": self.clock, "user_id": k, "service_id": k % 5,
                 "value": 1.0 + k}
            )

    # -- the five live mutation paths, dedup, and the checkpoint ------------------
    @rule(burst=st.lists(
        st.tuples(USERS, SERVICES, st.floats(0.05, 50.0), st.booleans()),
        min_size=1, max_size=5,
    ))
    def observe(self, burst):
        for user, service, value, keyed in burst:
            self.clock += 1.0
            body = {"timestamp": self.clock, "user_id": user, "service_id": service,
                    "value": value}
            if keyed:
                body["idempotency_key"] = f"k:{len(self.keyed)}"
                self.keyed.append(body)
            assert self.primary._handle_observation(body)["action"] != "deduplicated"

    @precondition(lambda self: self.keyed)
    @rule(pick=PICK)
    def resend_a_key(self, pick):
        before = self.primary.wal_last_seq
        reply = self.primary._handle_observation(self.keyed[pick % len(self.keyed)])
        assert reply == {"sample_error": None, "action": "deduplicated"}
        assert self.primary.wal_last_seq == before

    # -- reads: the same answers from all three, and nothing moved on any ---------
    def _read_everywhere(self, user):
        live = _read(self.primary, user)
        while self.standby._replicator.poll_once():
            pass
        _assert_same_answers(_read(self.standby, user), live)
        with _recovered(self.root) as recovered:
            _assert_same_answers(_read(recovered, user), live)
        return live

    @precondition(lambda self: self._cold_users())
    @rule(pick=PICK)
    def read_a_cold_user(self, pick):
        cold = self._cold_users()
        user = cold[pick % len(cold)]
        answers = self._read_everywhere(user)
        held = set(self._held("service"))
        assert [row is not None for row in answers] == [s in held for s in CANDIDATES]
        assert self._cold_users() == cold  # answered from his stored row

    @precondition(lambda self: self._hot_users())
    @rule(pick=PICK)
    def read_a_hot_user(self, pick):
        hot = self._hot_users()
        self._read_everywhere(hot[pick % len(hot)])

    @rule()
    def read_an_unknown_user(self):
        assert self._read_everywhere(6) == [None] * len(CANDIDATES)

    @rule(hot_users=st.integers(2, 3), hot_services=st.integers(2, 3),
          level=st.sampled_from(["tighten", "critical"]))
    def pressure(self, hot_users, hot_services, level):
        self.primary._apply_pressure(hot_users, hot_services, level)

    @rule(kind=st.sampled_from(["user", "service"]), pick=PICK)
    def migrate_out(self, kind, pick):
        held = self._held(kind)
        if not held:
            return
        entity = [kind, held[pick % len(held)]]
        reply = self.primary._handle_migration_export({"entities": [entity]})
        self.exported.extend(reply["entities"])
        delete = self.primary._handle_migration_delete
        assert delete({"entities": [entity]}) == {"removed": 1}
        assert delete({"entities": [entity]}) == {"removed": 0}  # a retry logs nothing

    @precondition(lambda self: self.exported)
    @rule()
    def migrate_in(self):
        self.batches += 1
        batch = {"mid": "m", "seq": self.batches, "entities": self.exported}
        self.exported = []
        reply = self.primary._handle_migration_import(batch)
        assert reply == {"applied": True, "imported": len(batch["entities"])}
        retry = self.primary._handle_migration_import(batch)
        assert retry == {"applied": False, "imported": 0, "reason": "duplicate"}

    @rule()
    def checkpoint(self):
        self.primary.checkpoint()

    # -- the other two callers must have folded the same log to the same state ----
    @invariant()
    def recovery_and_standby_agree_with_the_live_server(self):
        _assert_three_suppliers_agree(self.root, self.primary, self.standby)


TestThreeCallers = ThreeCallersMachine.TestCase
TestThreeCallers.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None
)


# -- one request, one commit group ------------------------------------------------


@pytest.fixture
def cold_pair(tmp_path):
    """A primary (and its standby) on which user 0 and service 0 are both
    spilled: ``(root, primary, standby, body)`` where ``body`` is an observe
    that names the two."""
    primary, standby = _fleet(tmp_path)
    for k in range(4):  # the fourth user and service push the first out of 3 x 3
        primary._handle_observation(
            {"timestamp": float(k), "user_id": k, "service_id": k, "value": 1.0}
        )
    body = {"timestamp": 9.0, "user_id": 0, "service_id": 0, "value": 2.0}
    pending = primary.model.with_model(lambda m: m.pending_revivals(0, 0))
    assert pending == [("user", 0), ("service", 0)]
    yield tmp_path, primary, standby, body
    primary.kill()
    standby.kill()


class TestOneRequestOneGroup:
    def test_an_observe_and_its_revives_share_one_fsync(self, cold_pair):
        root, primary, standby, body = cold_pair
        fsyncs, appends = wal_counts()
        last_seq = primary.wal_last_seq
        assert primary._handle_observation(body)["action"] == "admit"
        assert wal_counts() == (fsyncs + 1, appends + 3)
        assert primary.wal_last_seq == last_seq + 3
        kinds = [entry[2] for entry in primary._wal.replay_entries(last_seq)]
        assert kinds[:2] == ["revive_user", "revive_service"]
        _assert_three_suppliers_agree(root, primary, standby)

        # One cold party: two entries, one fsync.  None: one and one.
        cold = primary.model.with_model(lambda m: sorted(m._spilled_users))[0]
        for user, expected in ((cold, 2), (0, 1)):
            fsyncs, appends = wal_counts()
            primary._handle_observation({**body, "timestamp": 10.0, "user_id": user})
            assert wal_counts() == (fsyncs + 1, appends + expected)
        _assert_three_suppliers_agree(root, primary, standby)

    def test_a_read_is_no_group_at_all(self, cold_pair):
        __, primary, __, __ = cold_pair
        counts = wal_counts()
        assert primary._predict_one(0, 0)["source"] == "model"
        assert primary._predict_batch(0, [2, 3])[1] == ["model"] * 2
        assert wal_counts() == counts
        pending = primary.model.with_model(lambda m: m.pending_revivals(0, 0))
        assert pending == [("user", 0), ("service", 0)]

    def test_a_failed_fsync_applies_none_of_the_group(self, cold_pair, monkeypatch):
        """The group's lines may have reached the file, but nothing of it
        reached ``_apply``: both parties are still cold, the log has not
        moved, and the server is read-only with the 507 it has always
        returned."""
        __, primary, __, body = cold_pair
        before = snapshot(primary)
        last_seq = primary.wal_last_seq

        def failing(fd):
            raise OSError(errno.EIO, "Input/output error")

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", failing)
            with pytest.raises(ServiceError) as excinfo:
                primary._handle_observation(body)
        assert (excinfo.value.status, excinfo.value.code) == (507, "insufficient_storage")
        assert "observation not accepted" in str(excinfo.value)
        assert primary.wal_last_seq == last_seq and not primary._wal.writable
        assert diff_state(before, snapshot(primary)) == []
        with pytest.raises(ServiceError) as excinfo:  # sticky, disk or no disk
            primary._handle_observation({**body, "user_id": 3, "service_id": 3})
        assert excinfo.value.status == 507
        assert primary._predict_one(3, 3)["source"] == "model"  # reads still serve
        assert primary._handle_status()["durability"]["read_only"] is not None


# -- structural guard -------------------------------------------------------------


def _functions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_the_log_is_appended_to_and_its_failure_handled_in_commit_only():
    """In ``server/app.py`` a ``self._wal.append*`` call and an ``except
    WalAppendError`` each occur once, inside ``_commit`` — and no function
    is told which caller it serves."""
    tree = ast.parse((REPO / "src" / "repro" / "server" / "app.py").read_text())
    appends, handlers = [], []
    for function in _functions(tree):
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("append")
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "_wal"
            ):
                appends.append(function.name)
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                if "WalAppendError" in ast.unparse(node.type):
                    handlers.append(function.name)
        parameters = function.args.args + function.args.kwonlyargs
        names = [parameter.arg for parameter in parameters]
        assert "replicated" not in names, function.name
    assert appends == ["_commit"]
    assert handlers == ["_commit"]


def _methods(path: pathlib.Path, class_name: str) -> dict:
    """``{method name: FunctionDef}`` of one class in one source file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return {item.name: item for item in node.body
                    if isinstance(item, ast.FunctionDef)}
    raise AssertionError(f"no class {class_name} in {path}")


def _attributes_of(function: ast.AST, *owners: str) -> set:
    """Every ``owner.name`` the function's body mentions, for the given
    owner expressions (``"self"``, ``"self.model"``, ``"m"``, ...)."""
    return {
        node.attr
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in owners
    }


def _reachable(methods: dict, roots, *owners: str) -> set:
    """The methods of one class reachable from ``roots`` through
    ``owner.method`` mentions (calls, or handlers handed to a wrapper)."""
    seen, frontier = set(), [root for root in roots if root in methods]
    while frontier:
        name = frontier.pop()
        if name not in seen:
            seen.add(name)
            frontier.extend(_attributes_of(methods[name], *owners) & methods.keys())
    return seen


def test_no_read_handler_can_reach_a_write():
    """Reads never write, structurally: from the prediction and credence
    handlers of both transports nothing reaches ``_commit`` or the ingest
    lock in ``server/app.py``, and the model calls they make reach no
    ``SpillStore.put`` / ``delete`` and no slot change in
    ``lifecycle/tiered.py``."""
    source = REPO / "src" / "repro"
    server = _methods(source / "server" / "app.py", "PredictionServer")
    handlers = _reachable(
        server,
        ["_handle_prediction", "_handle_prediction_batch", "_handle_credence",
         "_frame_predict_batch", "_credence"],
        "self",
    )
    assert {"_predict_one", "_predict_batch"} <= handlers
    for name in handlers:
        mentioned = _attributes_of(server[name], "self")
        assert not mentioned & {
            "_commit", "_acquire_ingest_lock", "_ingest_lock", "_wal", "_spill",
            "_tiered", "_ingest_one", "_revive_entries",
        }, name

    # What those handlers ask of the model: facade methods, and whatever a
    # ``with_model(lambda m: ...)`` calls on the raw model.
    asked = set().union(
        *(_attributes_of(server[name], "self.model", "m") for name in handlers)
    )
    facade = _methods(source / "core" / "daemon.py", "ConcurrentModel")
    on_the_model = asked - facade.keys()
    for name in asked & facade.keys() - {"with_model"}:
        on_the_model |= _attributes_of(facade[name], "self._model", "model")
    tiered = _methods(source / "lifecycle" / "tiered.py", "TieredAMF")
    assert {"predict_for_user", "expected_error", "holds_user"} <= on_the_model
    reads = _reachable(tiered, on_the_model | {"predict_normalized"}, "self")
    assert "_read_through" in reads
    assert not reads & {
        "_occupy", "_vacate", "_ensure", "_forget", "apply_revive", "apply_event",
        "_enforce_capacity", "_demote_overflow", "_restore_entity", "observe",
    }
    for name in reads:
        calls = {ast.unparse(node.func) for node in ast.walk(tiered[name])
                 if isinstance(node, ast.Call)}
        assert not calls & {"self._spill.put", "self._spill.delete"}, name
