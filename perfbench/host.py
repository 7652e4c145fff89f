"""Fixed reference computations that track the host's speed.

The benchmark's host is a shared virtual machine whose CPU speed changes by
up to 2x, for seconds or minutes at a time (see README.md).  A run times a
reference in the gaps between the operations it measures, never beside
them, and scales each end-to-end time by ``nominal / reference time``, which
gives seconds on a host that runs the reference in exactly its nominal time.
The program never runs while a reference does, so a change to the program
moves its times and not the reference's, and shows in full.

Two references, one for each kind of operation:

* processes (a CLI call, a set-up) are paired with a reference *process*
  run just before each of them: a fresh interpreter importing standard
  modules, which pays what the program's processes pay (interpreter start,
  unmarshalling, extension loading, page faults);
* library calls, microseconds long, are scaled by an in-process loop of the
  kind of interpreter work the kernels do.

Never change either: their times are the units the end-to-end times are
expressed in.
"""

from __future__ import annotations

import math
import time

import procs

PROCESS_NOMINAL_S = 0.1
REFERENCE_IMPORTS = ("import argparse, asyncio, csv, decimal, email.parser, http.client, "
                     "json, logging, unittest, xml.etree.ElementTree")
LOOP_NOMINAL_S = 1e-3


def process_factor() -> float:
    """``PROCESS_NOMINAL_S`` over the CPU time (user + system) of one
    reference process; multiply the next process's CPU time by it."""
    return PROCESS_NOMINAL_S / procs.python_snippet(REFERENCE_IMPORTS).cpu_s


def reference() -> float:
    """Interpreter work of the kind the kernels do: float arithmetic, calls,
    small tuples, a dict and float formatting."""
    total = 0.0
    table = {}
    for i in range(1200):
        x = math.sqrt(i * 0.5 + 1.0)
        total += x / (1.0 + x)
        table[i & 63] = (x, repr(total))
    return total


class Speed:
    """In-process reference times sampled through one library run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        reference()  # warm: the first call pays for cold caches

    def sample(self) -> None:
        """CPU time of one reference run on this thread, so steal is not counted."""
        t0 = time.thread_time()
        reference()
        self.samples.append(time.thread_time() - t0)

    def per_fastest(self) -> float:
        """Factor for times summarised by a minimum."""
        return LOOP_NOMINAL_S / min(self.samples)
