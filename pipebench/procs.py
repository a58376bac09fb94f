"""The server subprocess and the ``/proc`` readings taken from outside it."""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

_HERE = Path(__file__).resolve().parent
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: Seconds allowed for the server to build, and later to stop.
START_TIMEOUT = 120.0
STOP_TIMEOUT = 60.0


def cpu_seconds(pid: int, reaped_children: bool = False) -> float:
    """User+system CPU of ``pid`` (plus its waited-for children)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields after the command name start at field 3 (state).
    ticks = int(fields[11]) + int(fields[12])
    if reaped_children:
        ticks += int(fields[13]) + int(fields[14])
    return ticks / _CLOCK_TICKS


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of ``pid`` (this process when ``None``), in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


class ServerProcess:
    """``server.py`` in its own process, driven over stdin/stdout."""

    def __init__(
        self,
        workload: str,
        setup_repeats: int,
        spans: Optional[Path] = None,
        max_inflight_records: Optional[int] = None,
    ):
        command = [
            sys.executable,
            str(_HERE / "server.py"),
            "--workload", workload,
            "--setup-repeats", str(setup_repeats),
        ]
        if spans is not None:
            command += ["--spans", str(spans)]
        if max_inflight_records is not None:
            command += ["--max-inflight-records", str(max_inflight_records)]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.ready: Dict[str, Any] = {}
        #: The set-up samples the server takes after it has stopped.
        self.final: Dict[str, Any] = {}

    def __enter__(self) -> "ServerProcess":
        stdout = self.process.stdout
        ready, _, _ = select.select([stdout], [], [], START_TIMEOUT)
        line = stdout.readline() if ready else ""
        if not line:
            self.stop()
            raise RuntimeError("server process did not finish set-up")
        self.ready = json.loads(line)
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def port(self) -> int:
        return self.ready["port"]

    @property
    def worker_pids(self) -> List[int]:
        return self.ready["worker_pids"]

    def tree_cpu_seconds(self) -> float:
        """CPU of the server, its reaped children and live workers."""
        total = cpu_seconds(self.pid, reaped_children=True)
        for pid in self.worker_pids:
            try:
                total += cpu_seconds(pid)
            except FileNotFoundError:
                pass  # already reaped: counted in the server's children
        return total

    def workers_peak_rss_mb(self) -> Tuple[float, int]:
        """Summed ``VmHWM`` of the shard workers still alive, and how
        many of the set-up workers are gone (a restarted shard)."""
        total, gone = 0.0, 0
        for pid in self.worker_pids:
            try:
                total += peak_rss_mb(pid)
            except FileNotFoundError:
                gone += 1
        return total, gone

    def stop(self) -> None:
        """Ask the server to stop and wait for it (kill on timeout)."""
        if self.process.poll() is None:
            try:
                self.process.stdin.write("stop\n")
                self.process.stdin.close()
            except BrokenPipeError:
                pass
            stdout = self.process.stdout
            ready, _, _ = select.select([stdout], [], [], STOP_TIMEOUT)
            line = stdout.readline() if ready else ""
            if line:
                self.final = json.loads(line)
            try:
                self.process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
