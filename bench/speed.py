"""Speed probe: the machine's speed, sampled while a pass runs.

On a shared host the speed of a core moves by up to a factor of two within
seconds (other tenants' load on its hyperthread sibling and on the socket's
clock), and a pass's wall and CPU seconds move with it, so two runs of the
same code minutes apart can differ by a third.  The probe interrupts the
pass every `INTERVAL` seconds of wall time (SIGALRM; the handler runs in
the main thread between bytecodes) and times one call of `kernel`, so its
samples spread over the pass as evenly as the program's own work.  A pass
measured in kernel units,

    (pass seconds - probe seconds) / mean CPU seconds of a probe sample,

no longer moves with the load of the host, while a change to the program
still moves it in full: the kernel is the benchmark's own code and calls
nothing of the package.  It does what the package's inner loops do:
truncated products of power series whose coefficients are slotted objects
holding residues mod p^k, with a cache of prime powers.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL = 0.01  # seconds of wall time between samples
_P, _K, _N = 7, 12, 16
_PPOW: dict[tuple[int, int], int] = {}


class _Residue:
    __slots__ = ("residue", "known")

    def __init__(self, residue: int, known: int):
        m = _PPOW.get((_P, known))
        if m is None:
            m = _PPOW[(_P, known)] = _P ** known
        self.known = known
        self.residue = residue % m

    def __add__(self, other):
        return _Residue(self.residue + other.residue, min(self.known, other.known))

    def __mul__(self, other):
        return _Residue(self.residue * other.residue, min(self.known, other.known))


def kernel() -> int:
    """One truncated product of two series of _N terms; 0.3-0.45 ms on a
    2-core Xeon VM with Python 3.11."""
    a = [_Residue(3 * i + 1, _K) for i in range(_N)]
    b = [_Residue(5 * i + 2, _K) for i in range(_N)]
    c = [_Residue(0, _K) for _ in range(_N)]
    for i, x in enumerate(a):
        for j in range(_N - i):
            c[i + j] = c[i + j] + x * b[j]
    return c[-1].residue


class SpeedProbe:
    """Context manager that samples `kernel` every INTERVAL seconds while
    the block runs.  `wall` and `cpu` hold the seconds of each sample."""

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        self.cpu.append(time.process_time() - c0)
        self.wall.append(time.perf_counter() - w0)

    def __enter__(self) -> "SpeedProbe":
        self.wall.clear()
        self.cpu.clear()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def in_kernels(self, wall: float, cpu: float) -> tuple[float, float]:
        """Wall and CPU seconds of the block, less the probe's own, in
        units of the mean CPU seconds of a sample.  Both share the CPU
        divisor, since a sample's wall time also takes in any wait for
        the core; wall minus CPU is then the pass's wait in kernel units."""
        if len(self.cpu) < 10:
            raise RuntimeError(f"only {len(self.cpu)} speed samples; the pass is too short")
        unit = statistics.fmean(self.cpu)
        return (wall - sum(self.wall)) / unit, (cpu - sum(self.cpu)) / unit
