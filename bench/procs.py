"""Server processes of the system under test, each in its own process group.

Servers are started from the checkout's ``src/`` with the shipped
defaults (real fsync, ``checkpoint_interval=1000``).  A :class:`Fleet`
owns every process it starts and kills all of them on exit or exception,
so no run leaves a server behind.  SIGKILL is the normal way down — a
graceful stop costs the known 5 s accept-thread join — and
:meth:`Server.terminate` exists to measure exactly that cost.

Each server process is pinned to one core, the way a GIL-bound Python
server is deployed (one process per core), and the generator runs on the
cores left over.  Unpinned, the kernel spreads one server's threads over
both cores and the interpreter-lock handoff between them — not the
program — decides the numbers: with the trainer on, the same shard served
10 to 220 observes/s from run to run unpinned and 530 to 570 pinned.

While requests are sent, each core also runs a ``SCHED_IDLE`` process that
does nothing but yield (:meth:`Fleet.wake`).  In a request/reply ping-pong
one side is always asleep; a guest's idle virtual CPU is halted, and how
long the host takes to wake it depends on the host's other tenants.  That
wake-up — not the program — was the run-to-run noise of the
single-connection workloads: over ten seeds their latency medians spread
0.10 to 0.39 of the median without it and 0.03 to 0.09 with it, while the
workloads that keep both cores busy never showed the noise.  It is not used
when the servers occupy every core, nor while processes start (set-up,
restart), which it slows.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time

from bench.spec import ROOT, SRC

READY_TIMEOUT_S = 60.0
# Runs only when a core has nothing else to do, and asks the scheduler for
# something else to run on every turn.
KEEP_AWAKE = "import os\nwhile True:\n    os.sched_yield()\n"


class Server:
    """One server process, ready when it has printed its JSON ready line."""

    def __init__(self, argv: list[str], log_path: str, core: int) -> None:
        env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{ROOT}")
        self.started = time.perf_counter()
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, *argv],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            cwd=str(ROOT),
            start_new_session=True,
        )
        os.sched_setaffinity(self.proc.pid, {core})
        self.info: dict = {}

    def wait_ready(self) -> dict:
        """Block until the ready line arrives; raises if the process dies
        or stays silent past :data:`READY_TIMEOUT_S`."""
        if self.info:
            return self.info
        deadline = self.started + READY_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        buffer = b""
        while b"\n" not in buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise RuntimeError("server printed no ready line in time")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError(
                    f"server exited with code {self.proc.wait()} before it was ready"
                )
            buffer += chunk
        self.info = json.loads(buffer.split(b"\n", 1)[0])
        if not self.info.get("ready"):
            raise RuntimeError(f"server failed to start: {self.info}")
        return self.info

    @property
    def address(self) -> tuple[str, int]:
        return self.info["address"][0], int(self.info["address"][1])

    @property
    def binary_address(self) -> tuple[str, int]:
        return self.info["binary_address"][0], int(self.info["binary_address"][1])

    def peak_rss_mb(self) -> float:
        """Peak resident set (``VmHWM``) of the process, from ``/proc``."""
        with open(f"/proc/{self.proc.pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in /proc status")

    def kill(self) -> None:
        """SIGKILL the whole process group and reap it."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()

    def terminate(self) -> float:
        """SIGTERM, wait for a graceful exit, return the seconds it took."""
        started = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            pass
        elapsed = time.perf_counter() - started
        self.kill()
        return elapsed


class Fleet:
    """Every server process of one run; all are killed when the block ends."""

    def __init__(self, workdir: str, server_names: list[str]) -> None:
        self.workdir = workdir
        self.servers: list[Server] = []
        self._spinners: list[subprocess.Popen] = []
        self._allowed = os.sched_getaffinity(0)
        cores = sorted(self._allowed)
        self._core_of = {
            name: cores[index % len(cores)] for index, name in enumerate(server_names)
        }

    def __enter__(self) -> "Fleet":
        os.makedirs(self.workdir, exist_ok=True)
        free = self._allowed - set(self._core_of.values())
        os.sched_setaffinity(0, free or self._allowed)
        return self

    def __exit__(self, *exc_info) -> None:
        for server in self.servers:
            server.kill()
        self.rest()
        os.sched_setaffinity(0, self._allowed)

    def wake(self) -> None:
        """Keep every core awake (see the module docstring) until
        :meth:`rest` — unless the servers leave no core free, in which case
        the cores are busy anyway."""
        if self._spinners or len(set(self._core_of.values())) >= len(self._allowed):
            return
        for core in sorted(self._allowed):
            spinner = subprocess.Popen([sys.executable, "-c", KEEP_AWAKE])
            self._spinners.append(spinner)
            os.sched_setaffinity(spinner.pid, {core})
            os.sched_setscheduler(spinner.pid, os.SCHED_IDLE, os.sched_param(0))

    def rest(self) -> None:
        for spinner in self._spinners:
            spinner.kill()
            spinner.wait()
        self._spinners = []

    def _start(self, name: str, argv: list[str]) -> Server:
        server = Server(argv, os.path.join(self.workdir, "servers.log"), self._core_of[name])
        self.servers.append(server)
        return server

    def shard(self, name: str, data_dir: str, *flags: str) -> Server:
        """Start ``python -m repro.cluster.shard`` with the shipped defaults
        plus ``flags``; the caller waits for readiness."""
        return self._start(
            name,
            ["-m", "repro.cluster.shard", "--name", name, "--data-dir", data_dir, *flags],
        )

    def router(self, shards: list[Server], metrics_out: str) -> Server:
        """Start ``python -m bench.router_proc`` over ``shards``; on SIGTERM
        it leaves its own metrics in ``metrics_out``."""
        argv = ["-m", "bench.router_proc", "--metrics-out", metrics_out]
        for shard in shards:
            host, port = shard.address
            argv += ["--shard", f"{shard.info['name']}={host}:{port}"]
        server = self._start("router", argv)
        server.metrics_out = metrics_out
        return server

    def peak_rss_mb(self) -> float:
        return sum(
            server.peak_rss_mb() for server in self.servers
            if server.proc.poll() is None
        )
