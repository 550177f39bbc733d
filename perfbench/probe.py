"""Host-speed probes: fixed work, independent of sketch_infer, timed between
the benchmark's calls.

The benchmark host is a shared 2-vCPU VM whose speed drifts by up to 2.4x
within seconds to minutes as other tenants load it, and the drift hits
interpreter-bound, parsing and array code by different amounts.  So each
workload has a probe kernel that does the same kind of work as its calls
(never calling the package), timed for a fixed share of the run right after
each call and once before the first.  A sample's slowdown against the
kernel's reference time says how fast the host runs that kind of code at
that moment; a call's time divided by the mean slowdown of the samples just
before and after it is in reference-host seconds.  A change to sketch_infer
moves it as it moves the raw time, because the probes never call the
package.

Set-up time is normalized differently: see REFERENCE_PROCESS.
"""

from __future__ import annotations

import csv
import io
import json
import math
from time import perf_counter

import numpy as np
from scipy import integrate, special

# probe share of the time around each call
DUTY = 0.08


# the set-up reference: a fresh interpreter that loads and touches what the
# package's set-up loads (numpy, scipy's stats, special, integrate, linalg)
# without the package, and its time on a quiet host.  Most of a set-up
# process is this same loading, so the pair tracks the host's speed at
# process start-up better than a kernel timed in the benchmark process
REFERENCE_PROCESS = (
    "import numpy as np\n"
    "import scipy.integrate, scipy.linalg, scipy.special, scipy.stats\n"
    "np.linalg.qr(np.eye(50, 3) + 1.0)\n"
    "scipy.stats.t.cdf(0.5, 3.0)\n"
    "scipy.integrate.quad(lambda t: t * t, 0.0, 1.0)\n"
)
REFERENCE_PROCESS_S = 0.7


class Kernels:
    """The probe kernels and their fixed inputs."""

    # seconds per kernel call on a quiet host of the kind the benchmark was
    # defined on; they only set the scale of normalized timings
    REFERENCE_S = {"scalar": 0.0005, "ingest": 0.0025, "sampling": 0.008, "sketching": 0.012}

    def __init__(self):
        rng = np.random.default_rng(0)
        self._csv = "\n".join(",".join(f"{v:.17g}" for v in row)
                              for row in rng.standard_normal((300, 11)))
        self._design = rng.standard_normal((10_000, 12))

    def scalar(self) -> float:
        """Interpreter arithmetic, scalar special functions, adaptive
        quadrature of a Python integrand: the density workload's mix."""
        s = 0.0
        for i in range(1, 1500):
            x = i * 1e-3
            s += math.log1p(x) + math.exp(-x) + math.lgamma(x + 1.0)
        for i in range(1, 100):
            s += float(special.kve(2.5, i * 1e-2)) + float(special.gammaln(i * 0.5))
        s += integrate.quad(lambda t: math.exp(-t) * t ** 1.5, 0.0, 10.0)[0]
        return s

    def ingest(self) -> float:
        """CSV parsing to floats, array assembly, QR at the CLI's width and a
        JSON report: the CLI call's mix."""
        rows = [[float(c) for c in row] for row in csv.reader(io.StringIO(self._csv))]
        M = np.asarray(rows)
        X = np.column_stack([np.ones(M.shape[0]), M[:, 1:]])
        r = np.linalg.qr(X)[1]
        return len(json.dumps({"r": [float(v) for v in r.ravel()]}))

    def sampling(self) -> float:
        """A repeated-sampling replicate's array work at the paper design,
        written without the package: a normal response redrawn and a tall QR
        (the data set), a dense Gaussian projection, and butterfly passes
        over a padded copy (the Hadamard transform)."""
        rng = np.random.default_rng(1)
        y = rng.standard_normal(self._design.shape[0])
        r = np.linalg.qr(self._design)[1]
        proj = rng.standard_normal((21, self._design.shape[0])) @ self._design
        buf = np.zeros((16384, self._design.shape[1]))
        buf[:self._design.shape[0]] = self._design * np.sign(y)[:, None]
        h = 1
        while h < buf.shape[0]:
            pairs = buf.reshape(-1, 2, h, buf.shape[1])
            pairs[:, 0] += pairs[:, 1]
            pairs[:, 1] *= 0.5
            h *= 2
        return float(r[0, 0] + proj[0, 0] + buf[0, 0])

    def sketching(self) -> float:
        """The repeated-sketching harness: the sampling kernel's array work
        plus about half as long of the scalar kernel (its per-kind
        summarization)."""
        s = self.sampling()
        for _ in range(8):
            s += self.scalar()
        return s


class HostProbe:
    def __init__(self, kernels: Kernels, kind: str):
        self._run = getattr(kernels, kind)
        self._ref_s = Kernels.REFERENCE_S[kind]
        self.samples = []

    def sample(self, after_s: float) -> float:
        """Run the kernel for about DUTY of ``after_s`` (at least once);
        returns the slowdown this sample saw."""
        reps = max(1, round(DUTY * after_s / self._ref_s))
        t0 = perf_counter()
        for _ in range(reps):
            self._run()
        dt = perf_counter() - t0
        self.samples.append(dt / (reps * self._ref_s))
        return self.samples[-1]
