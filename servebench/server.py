"""The ``repro serve`` process: spawn, readiness, memory, clean shutdown.

The server runs in its own process (and session), apart from the load
generator, so the two never share an interpreter lock.  Shutdown sends
SIGTERM, which makes the server drain (a final durability barrier on
durable stores) and exit; the benchmark then reaps it and checks that none
of its descendants and no ``/dev/shm`` segment it created outlives it.
"""

from __future__ import annotations

import os
import selectors
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Structure, shard count, block size and seed of every served store.
STRUCTURE = "b-treap"
SHARDS = 4
BLOCK_SIZE = 64
STORE_SEED = 20160626

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
SHM_DIR = "/dev/shm"


def serve_command(workload, workers: int,
                  durability_dir: Optional[str],
                  telemetry: bool = False) -> List[str]:
    command = [sys.executable, "-m", "repro", "serve",
               "--structure", STRUCTURE, "--shards", str(SHARDS),
               "--block", str(BLOCK_SIZE), "--seed", str(STORE_SEED),
               "--parallel", "process", "--max-workers", str(workers),
               "--replication", str(workload.replication),
               "--read-policy", workload.read_policy, "--port", "0"]
    if workload.durability_mode is not None:
        command += ["--durability-dir", durability_dir,
                    "--durability-mode", workload.durability_mode]
    if telemetry:
        command.append("--telemetry")
    return command


def _stat_fields(pid: int) -> Optional[Tuple[str, int, int, int]]:
    """``(state, ppid, starttime, cpu ticks)`` of a process, else
    ``None``."""
    try:
        with open("/proc/%d/stat" % pid, encoding="ascii") as handle:
            text = handle.read()
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None
    fields = text[text.rindex(")") + 2:].split()
    return (fields[0], int(fields[1]), int(fields[19]),
            int(fields[11]) + int(fields[12]))


def descendants(root: int) -> Dict[int, int]:
    """Every live descendant of ``root``: pid -> start time."""
    parents: Dict[int, List[int]] = {}
    starts: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is None or fields[0] == "Z":
            continue
        parents.setdefault(fields[1], []).append(int(entry))
        starts[int(entry)] = fields[2]
    found: Dict[int, int] = {}
    frontier = [root]
    while frontier:
        for child in parents.get(frontier.pop(), ()):
            if child not in found:
                found[child] = starts[child]
                frontier.append(child)
    return found


def still_alive(processes: Dict[int, int]) -> List[int]:
    """The pids of ``processes`` that still run (same start time, not a
    zombie)."""
    alive = []
    for pid, started in processes.items():
        fields = _stat_fields(pid)
        if fields is not None and fields[0] != "Z" and fields[2] == started:
            alive.append(pid)
    return alive


def rss_bytes(pid: int) -> int:
    try:
        with open("/proc/%d/status" % pid, encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


def shm_segments() -> Set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except FileNotFoundError:
        return set()


class ServerProcess:
    """One ``repro serve`` child process."""

    def __init__(self, command: Sequence[str], root: str) -> None:
        self.command = list(command)
        self.root = root
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.problems: List[str] = []

    def start(self) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env.pop("REPRO_TRACE", None)
        self.process = subprocess.Popen(
            self.command, cwd=self.root, env=env, stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL, start_new_session=True)
        line = self._read_line(READY_TIMEOUT_S)
        if not line.startswith("listening on "):
            self.kill()
            raise RuntimeError("server did not come up: %r" % line)
        self.port = int(line.rsplit(":", 1)[1])
        return self

    def _read_line(self, timeout: float) -> str:
        stream = self.process.stdout
        with selectors.DefaultSelector() as selector:
            selector.register(stream, selectors.EVENT_READ)
            if not selector.select(timeout):
                return ""
        return stream.readline().decode("utf-8", "replace").strip()

    def rss_mb(self) -> float:
        """Summed resident memory of the server and its descendants."""
        pids = [self.process.pid] + list(descendants(self.process.pid))
        return sum(rss_bytes(pid) for pid in pids) / 2 ** 20

    def cpu_seconds(self) -> float:
        """User plus system CPU time of the server and its live
        descendants so far."""
        ticks = 0
        for pid in [self.process.pid] + list(descendants(self.process.pid)):
            fields = _stat_fields(pid)
            if fields is not None:
                ticks += fields[3]
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> bool:
        """SIGTERM, wait for the drain, reap; ``True`` when nothing of the
        server is left and it exited cleanly."""
        process = self.process
        if process is None:
            return True
        family = descendants(process.pid)
        process.send_signal(signal.SIGTERM)
        try:
            output, _ = process.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.problems.append("server did not drain within %gs"
                                 % STOP_TIMEOUT_S)
            self.kill()
            return False
        self.process = None
        if process.returncode != 0 or b"drained" not in output:
            self.problems.append("server exited with %r: %r"
                                 % (process.returncode, output[-200:]))
        deadline = time.monotonic() + 10.0
        while still_alive(family) and time.monotonic() < deadline:
            time.sleep(0.05)
        leftover = still_alive(family)
        if leftover:
            self.problems.append("processes outlived the server: %s"
                                 % leftover)
            _kill_group(process.pid, family)
        return not self.problems

    def kill(self) -> None:
        """Hard stop for error paths: kill the whole session and reap."""
        process = self.process
        if process is None:
            return
        family = descendants(process.pid)
        _kill_group(process.pid, family)
        process.wait()
        if process.stdout is not None:
            process.stdout.close()
        self.process = None


def _kill_group(pgid: int, family: Dict[int, int]) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    for pid in still_alive(family):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    while still_alive(family) and time.monotonic() < deadline:
        time.sleep(0.05)
