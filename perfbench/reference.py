"""The reference computation the benchmark times next to every command.

On a shared host the speed of the machine itself swings: on the 2-vCPU
virtual machine the baseline was measured on, a fixed piece of Python work
took anywhere from 1x to 2x its fastest time, in phases of seconds to
minutes, and every sosforge command slowed down with it. Timing this fixed
work right before and right after a command measures the machine's speed at
that moment. The benchmark reports each command's time scaled by
REF_SECONDS / (reference time), that is, the time the command would take on
a machine that runs the reference in REF_SECONDS. sosforge never runs this
code: a change to sosforge moves the command's time and not the reference's.
"""

from __future__ import annotations

import time

REF_SECONDS = 0.001   # the reference's nominal time; about its fastest time on that machine
REF_LOOPS = 3000


def reference() -> int:
    """Interpreter-bound work of the kind sosforge does: tuples, dicts, strings."""
    table: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(REF_LOOPS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
        total += len(str(i))
    return total


def time_reference() -> float:
    """Seconds one run of the reference takes now."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def scale(seconds: float, ref_before: float, ref_after: float) -> float:
    """`seconds` at the nominal reference speed, taking the machine's speed
    as the geometric mean of the reference times around the measurement."""
    return seconds * REF_SECONDS / (ref_before * ref_after) ** 0.5
