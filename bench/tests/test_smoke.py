"""The command itself, at 1/20 scale: names printed, checks, time, hygiene."""

import json
import subprocess
import sys
import time

from bench.spec import OUT, ROOT, load_spec


def run_bench(*args: str) -> tuple[subprocess.CompletedProcess, float]:
    began = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "bench.run", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    return done, time.perf_counter() - began


def shard_processes() -> str:
    """Pids whose command line names a server or a keep-awake spinner; tests
    compare before and after, so an unrelated match does not fail them."""
    return subprocess.run(["pgrep", "-f", "repro.cluster.shard|bench.router_proc|os.sched_yield"],
                          capture_output=True, text=True).stdout


def test_smoke_runs_all_six_workloads_in_under_thirty_seconds(tmp_path):
    spec = load_spec()
    before = shard_processes()
    out = tmp_path / "smoke.json"
    done, seconds = run_bench("--smoke", "--out", str(out), "--workdir", str(tmp_path / "w"))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert seconds < 30.0
    runs = json.loads(out.read_text())["runs"]
    assert [run["workload"] for run in runs] == [w["name"] for w in spec["workloads"]]
    names = {metric["name"] for metric in spec["end_to_end"]}
    for run in runs:
        assert set(run["metrics"]) == names
        assert all(metric["value"] > 0 for metric in run["metrics"].values()), run["workload"]
        assert run["failed"] == 0 and run["correct"]
    assert set(json.loads(done.stdout.splitlines()[-1])) == {
        "correct", "attempted", "failed", "metrics"}
    assert shard_processes() == before
    assert not any((tmp_path / "w").iterdir())


def test_traced_run_prints_the_per_layer_names_and_writes_its_spans(tmp_path):
    spec = load_spec()
    before = shard_processes()
    done, _ = run_bench("--workload", "ingest_flat", "--seed", "1", "--seconds", "1",
                        "--trace", "1", "--out", str(tmp_path / "t.json"),
                        "--workdir", str(tmp_path / "w"))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last["metrics"]) == {metric["name"] for metric in spec["per_layer"]}
    for name in ("server.wal.append_us", "core.amf.observe_us", "server.app.stop_s",
                 "server.binary.ping_rtt_us", "robustness.dedup.deduped"):
        assert last["metrics"][name]["value"] > 0, name
    spans = [json.loads(line) for line in (OUT / "trace-ingest_flat.jsonl").open()]
    assert {"wire.observe", "direct.observe", "server.wal.append"} <= {s["name"] for s in spans}
    assert shard_processes() == before


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "ingest_flat", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0 and done.stdout == ""
