"""A fixed interpreter-bound loop that measures how fast the host runs now.

On a shared host the speed available to one process drifts by 10-20%
within seconds and between runs, and every repeat of the program drifts
with it.  ``calibration_ms`` runs the same pure-Python work each time:
tokenizing this file, a line diff, rational arithmetic and a small
generator-driven event loop, none of it from the program under test.
Timing it right before a repeat and dividing the repeat's time by it
removes most of the host's drift while keeping every change to the
program.  The garbage collector is paused during the loop so its cost
does not depend on how much the program left on the heap.
"""

import difflib
import fractions
import gc
import heapq
import io
import time
import tokenize

with open(__file__, encoding="utf-8") as _fh:
    _SOURCE = _fh.read()
_LINES = _SOURCE.splitlines()
_EDITED = [
    line.replace("e", "3") if i % 5 == 0 else line
    for i, line in enumerate(_LINES)
]


def _event_loop(processes: int) -> int:
    def process(k):
        for step in range(5):
            yield (k * 31 + step) % 17 + 1

    queue = [(0, k, process(k)) for k in range(processes)]
    heapq.heapify(queue)
    finished = 0
    while queue:
        now, k, proc = heapq.heappop(queue)
        try:
            delay = next(proc)
        except StopIteration:
            finished += 1
            continue
        heapq.heappush(queue, (now + delay, k, proc))
    return finished


def _work() -> None:
    for _ in range(9):
        list(tokenize.generate_tokens(io.StringIO(_SOURCE).readline))
    difflib.SequenceMatcher(None, _LINES * 3, _EDITED * 3).ratio()
    total = fractions.Fraction(0)
    for k in range(1, 400):
        total += fractions.Fraction(1, k)
    _event_loop(4000)


def calibration_ms() -> float:
    """Milliseconds the fixed loop takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return (time.perf_counter() - start) * 1000.0
    finally:
        if enabled:
            gc.enable()
