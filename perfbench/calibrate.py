"""A reference computation, run alongside the workload, that tracks the
machine's current speed.

The benchmark machine's speed drifts by up to a factor of two over tens of
seconds (other tenants share its hosts' cores and memory), far more than the
bounds a change is judged by. The drift is machine-wide and slow, so a fixed
computation timed on the machine's other CPU while the workload runs slows
down with it. `Sampler` runs `one_pass` (a fixed mix of the kinds of work
anfem does: Python loops and dicts, sorting and gathers, streaming over
arrays, a sparse LU solve and dense LU factorisations, with numpy and scipy
only, never anfem, so a change to anfem cannot move it) back to back in a
child process pinned to that CPU, and pins the benchmark to another.
`Sampler.scale` turns seconds measured over an interval into seconds at the
machine speed at which a pass takes `REFERENCE_S`, from the passes timed
within that interval.

    python3 perfbench/calibrate.py --cpu 1 --parent <pid>   # the child
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time

# a pass time the benchmark machine (x86_64, 2 vCPUs, Python 3.11, NumPy 2.4,
# SciPy 1.17, one BLAS thread) reaches when quiet; beside a workload passes
# take about 0.1 s, so scaled times read about 0.7 of the unscaled ones
REFERENCE_S = 0.075
MAX_SAMPLER_S = 170.0    # the child stops by itself after this long

_DATA = {}


def _data():
    if not _DATA:
        import numpy as np
        import scipy.sparse as sp
        rng = np.random.default_rng(12345)
        n = 60
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.eye(n)
        _DATA.update(
            stream=rng.random(1_000_000),
            perm=rng.permutation(1_000_000),
            keys=rng.random(100_000),
            sparse=(sp.kron(lap, eye) + sp.kron(eye, lap)
                    + 0.1 * sp.eye(n * n)).tocsc(),
            rhs=np.ones(n * n),
            dense=rng.random((250, 250)) + 250 * np.eye(250),
        )
    return _DATA


def one_pass() -> None:
    import numpy as np
    import scipy.linalg as la
    import scipy.sparse.linalg as spl
    d = _data()
    s = 0
    for i in range(200_000):
        s += i * i % 7
    table = {}
    for i in range(60_000):
        key = (i % 977, i % 13)
        table[key] = table.get(key, 0) + i
    np.argsort(d["keys"], kind="stable")
    d["stream"][d["perm"]].sum()
    for _ in range(4):
        x = d["stream"] * 2.0
        x += d["stream"]
        x.sum()
    spl.spsolve(d["sparse"], d["rhs"])
    for _ in range(10):
        la.lu_factor(d["dense"])


class Sampler:
    """Context manager: pins this process to one CPU and runs `one_pass` in
    a loop in a child pinned to another; on exit it stops the child, waits
    for it and keeps its (start, end) pass times."""

    def __init__(self):
        self.samples = []
        self._proc = None

    def __enter__(self):
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            raise RuntimeError("the calibration sampler needs a second CPU")
        os.sched_setaffinity(0, {cpus[0]})
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--cpu",
             str(cpus[1]), "--parent", str(os.getpid())],
            stdout=subprocess.PIPE, text=True)
        if self._proc.stdout.readline().strip() != "ready":
            self._stop()
            raise RuntimeError("the calibration sampler did not start")
        return self

    def _stop(self) -> str:
        if self._proc.poll() is None:
            self._proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self._proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            out, _ = self._proc.communicate()
        return out

    def __exit__(self, *exc):
        for line in self._stop().splitlines():
            start, end = (float(x) for x in line.split())
            self.samples.append((start, end))
        return False

    def scale(self, start: float, end: float) -> float:
        """Factor from seconds measured in [start, end] (perf_counter
        times) to seconds at the reference speed: REFERENCE_S over the mean
        time of the passes centred in the interval, or of the pass nearest
        to it if none is."""
        if not self.samples:
            raise RuntimeError("the calibration sampler recorded no pass")
        inside = [b - a for a, b in self.samples
                  if start <= (a + b) / 2 <= end]
        if not inside:
            mid = (start + end) / 2
            a, b = min(self.samples,
                       key=lambda s: abs((s[0] + s[1]) / 2 - mid))
            inside = [b - a]
        return REFERENCE_S * len(inside) / sum(inside)


def _sample(cpu: int, parent: int) -> int:
    """The child: passes back to back until SIGTERM, the parent's exit or
    MAX_SAMPLER_S; then one `start end` line per pass."""
    os.sched_setaffinity(0, {cpu})
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    samples = []
    try:
        one_pass()                     # builds the data and warms up
        print("ready", flush=True)
        stop = time.perf_counter() + MAX_SAMPLER_S
        while time.perf_counter() < stop and os.getppid() == parent:
            start = time.perf_counter()
            one_pass()
            samples.append((start, time.perf_counter()))
    finally:
        sys.stdout.write("".join(f"{a!r} {b!r}\n" for a, b in samples))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cpu", type=int, required=True)
    ap.add_argument("--parent", type=int, required=True)
    args = ap.parse_args()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.exit(_sample(args.cpu, args.parent))
