"""Run one command and print its wall time and resource usage as JSON.

    python3 bench/spawn.py LOG [--probe CPU] -- COMMAND...

The benchmark starts every timed process through this small interpreter
rather than from its own.  Linux counts the pages a child inherits between
fork and exec in its ru_maxrss, so a child forked from the benchmark
process, which holds inputs and parsed outputs, would report that memory
as its own peak.  Forked from here it inherits only a bare interpreter.

With --probe CPU this process and the command are pinned to that CPU, and
while the command runs this process times a short pure-Python reference
loop every PROBE_GAP_S seconds, on the same CPU.  On a host shared with
other machines the speed of one core swings by up to 2x within seconds;
the loop's mean time over the command's life is the speed the command ran
at, so the benchmark can scale the command's times to a fixed speed
(scaled()).  The loop takes about a tenth of the CPU.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time

# One reference loop takes about this long on the build host (Intel Xeon,
# Python 3.11) at its usual speed.  Scaled times read as seconds at that speed.
REFERENCE_LOOP_S = 0.0025
PROBE_GAP_S = 0.025
# Campaign times follow the loop's time to this power, not in proportion:
# fitted over 460 campaigns of the three workloads on the build host
# (log-log slope 0.70 to 1.01 per workload, median 0.86; r = 0.95 to 0.98).
# hsograph is heavier on memory than the loop, so it gains less from a
# fast core.
SPEED_EXPONENT = 0.85


def reference_loop() -> int:
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return s


def scaled(seconds: float, loop_s: float) -> float:
    """seconds, taken while the reference loop took loop_s, at the reference speed."""
    return seconds * (REFERENCE_LOOP_S / loop_s) ** SPEED_EXPONENT


def probe_until_exit(pid: int) -> list[float]:
    """Time the reference loop, at least once, until process pid exits."""
    loops = []
    fd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        while True:
            start = time.perf_counter()
            reference_loop()
            loops.append(time.perf_counter() - start)
            if poller.poll(PROBE_GAP_S * 1000):
                break
    finally:
        os.close(fd)
    return loops


def main(argv: list[str]) -> int:
    log, *rest = argv
    cpu = None
    if rest[:1] == ["--probe"] and len(rest) > 1:
        cpu, rest = int(rest[1]), rest[2:]
    sep, *cmd = rest or [None]
    if sep != "--" or not cmd:
        raise SystemExit("usage: spawn.py LOG [--probe CPU] -- COMMAND...")
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
        reference_loop()  # warm, untimed
    loops = []
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT)
        if cpu is not None:
            loops = probe_until_exit(proc.pid)
        # wait4 gives the child's usage plus that of the children it reaped
        # (pool workers): CPU time is their sum, ru_maxrss their maximum.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    # Tell Popen the child is reaped, so it does not wait for it again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                      "maxrss_kb": usage.ru_maxrss, "returncode": proc.returncode,
                      "probe_s": statistics.fmean(loops) if loops else None}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
