"""State is a fold of one ``_apply`` over the log — for every caller.

The live server, crash recovery and a standby are three suppliers of the
same entries to the same transition function.  The machine below drives a
durable primary through every entry kind and, after each step, opens a
second server on a copy of its data directory and catches a standby up
over an in-process link: all three must agree on every part of the PR 16
oracle, and the standby's log must be the primary's, byte for byte.  The
structural guard pins what makes that cheap to keep true: one append site,
one failed-append handler, no per-caller flag.
"""

import ast
import json
import pathlib
import shutil
import tempfile

from hypothesis import seed, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.lifecycle import LifecycleConfig
from repro.robustness import GateConfig
from repro.server import PredictionServer, ReplicationConfig
from repro.simulation.drills import diff_state, snapshot

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


@seed(17)
class ThreeCallersMachine(RuleBasedStateMachine):
    USERS = st.integers(0, 5)
    SERVICES = st.integers(0, 4)
    PICK = st.integers(0, 1000)

    def __init__(self):
        super().__init__()
        self.root = pathlib.Path(tempfile.mkdtemp(prefix="commit-path-"))
        store = str(self.root / "epoch.json")
        self.primary = PredictionServer(
            data_dir=str(self.root / "primary"),
            replication=ReplicationConfig(store, role="primary", node_id="p"),
            **NODE_ARGS,
        )
        self.standby = PredictionServer(
            data_dir=str(self.root / "standby"),
            replication=ReplicationConfig(
                store, role="standby", primary_address=("127.0.0.1", 1), node_id="s"
            ),
            replication_link=_InProcessLink(self.primary),
            **NODE_ARGS,
        )
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

    @precondition(lambda self: self._cold_users())
    @rule(pick=PICK, service=SERVICES)
    def read_a_cold_user(self, pick, service):
        cold = self._cold_users()
        user = cold[pick % len(cold)]
        before = self.primary.wal_last_seq
        self.primary._predict_one(user, service)
        assert self.primary.wal_last_seq > before  # the revive is a log entry
        assert self.primary.model.with_model(lambda m: m.knows_user(user))

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
        primary = self.primary
        live = snapshot(primary)

        while self.standby._replicator.poll_once():
            pass
        assert diff_state(live, snapshot(self.standby)) == []
        assert self.standby._migration_status() == primary._migration_status()
        assert self.standby._latest_ingest_ts == primary._latest_ingest_ts
        assert _segments(self.root / "standby") == _segments(self.root / "primary")

        copy = self.root / "copy"
        shutil.copytree(self.root / "primary", copy)
        recovered = PredictionServer(data_dir=str(copy), **NODE_ARGS)
        try:
            # The drift window only covers what a process ingested live.
            assert diff_state(live, snapshot(recovered), ignore=("drift",)) == []
            assert recovered._migration_status() == primary._migration_status()
            assert recovered._latest_ingest_ts == primary._latest_ingest_ts
        finally:
            recovered.kill()
            shutil.rmtree(copy)


TestThreeCallers = ThreeCallersMachine.TestCase
TestThreeCallers.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None
)


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
