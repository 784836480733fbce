"""Host readings: load, CPU steal, memory, disk.

This benchmark runs on shared virtual machines, where the hypervisor
gives a vCPU's time to other tenants ("steal", the 8th field of the
``cpu`` line in ``/proc/stat``).  Stolen time stretches wall-clock
timings by amounts unrelated to the code under test.  Every time the
benchmark reports is therefore *steal-adjusted*:

    adjusted = wall * busy / (busy + steal)

where ``busy`` (user + nice + system + irq + softirq) and ``steal`` are
the machine's CPU seconds over the same window: the share of runnable CPU
time the hypervisor took is taken out of the wall time.  On a host
without steal it is the wall time.  Raw walls and steal shares are
reported beside the adjusted values.
"""

from __future__ import annotations

import os
import time


def vm_cpu_s() -> tuple[float, float]:
    """(busy, steal) CPU seconds of this machine since boot, all CPUs."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    hz = os.sysconf("SC_CLK_TCK")
    return (v[0] + v[1] + v[2] + v[5] + v[6]) / hz, v[7] / hz


class Window:
    """Wall clock plus the machine's busy and steal CPU time since
    construction (or the last ``restart``)."""

    def __init__(self):
        self.restart()

    def restart(self) -> None:
        self._t = time.perf_counter()
        self._cpu = vm_cpu_s()

    def read(self) -> tuple[float, float, float]:
        """(wall, busy, steal) seconds so far."""
        wall = time.perf_counter() - self._t
        busy, steal = vm_cpu_s()
        return wall, busy - self._cpu[0], steal - self._cpu[1]


def steal_factor(busy: float, steal: float) -> float:
    """Share of runnable CPU time not stolen: busy / (busy + steal)."""
    return busy / (busy + steal) if busy + steal > 0 else 1.0


def loadavg_1m() -> float:
    return os.getloadavg()[0]


def du(path: str) -> int:
    total = 0
    for d, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(d, f))
    return total


def peak_rss_mb(pids: list[int]) -> float:
    """Summed peak resident set (VmHWM) of the given processes."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except FileNotFoundError:
            pass
    return total_kb / 1024


def pids_with_title(prefix: bytes) -> list[int]:
    """Processes whose command line starts with ``prefix`` (Ray names an
    actor's worker process ``ray::<Class>``)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                cmd = f.read()
        except OSError:
            continue
        if cmd.startswith(prefix):
            pids.append(int(entry))
    return pids
