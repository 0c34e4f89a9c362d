"""Host-speed probe: CPU time of a fixed unit of Fraction and list work.

    python3 perfbench/probe.py <cpu> <period_s>

Pins itself to <cpu>, times one unit every <period_s> seconds until its
stdin closes, then prints one "<monotonic start> <cpu seconds>" line per
unit.  On a shared host the unit's CPU time rises and falls with the load
that other tenants put on the same physical core.
"""

import os
import select
import sys
import time
from fractions import Fraction


def unit():
    f, recent = Fraction(1, 3), []
    for i in range(300):
        f = (f * Fraction(7, 5) + Fraction(i, 11)) / 3
        recent.append([i, f.numerator & 255])
        if len(recent) > 50:
            del recent[:25]
    return f


def main():
    cpu, period = int(sys.argv[1]), float(sys.argv[2])
    os.sched_setaffinity(0, {cpu})
    samples = []
    while True:
        start, cpu0 = time.monotonic(), time.thread_time()
        unit()
        samples.append((start, time.thread_time() - cpu0))
        if select.select([sys.stdin], [], [], period)[0]:
            break
    sys.stdout.write("".join(f"{t!r} {d!r}\n" for t, d in samples))


if __name__ == "__main__":
    main()
