"""
Recovery fidelity at d = 16 in little memory
============================================

The unconstrained recovery SDP of a d = 16 channel optimizes a process
matrix of (d * d)^2 entries under d^2 + 2 trace and link rows.  The
solver keeps those rows as row families until it writes its one real
row matrix (258 x 65540, 129 MiB), and the 256 trace-preservation rows
1 (x) h_j are orthogonal, so the row reduction factors only the two
rows after them.  CI runs this script under a 512 MiB address-space cap.

Noise: two random Kraus operators (QR of a Gaussian, seed d); target:
the identity; state: the maximally mixed one.
"""

import resource
import time

import numpy as np

from constrained_recovery import channels as ch
from constrained_recovery import recovery as rc
from constrained_recovery import sdp

d, k = 16, 2
rng = np.random.default_rng(d)
g = rng.normal(size=(k * d, d)) + 1j * rng.normal(size=(k * d, d))
q, _ = np.linalg.qr(g)
noise = ch.Channel([q[i * d:(i + 1) * d] for i in range(k)])
target = ch.Channel([np.eye(d)])
rho = np.eye(d) / d

start = time.perf_counter()
problem = rc.build_recovery_fidelity_sdp(noise, target, rho)
built = time.perf_counter()
solution = sdp.solve(problem)
solved = time.perf_counter()
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
diag = solution.diagnostics
print("rows kept: ", diag["rows_kept"], "of", diag["rows"])
print(f"row matrix: {diag['row_matrix_bytes'] / 2**20:.0f} MiB")
print("iterations:", solution.iterations, " status:", solution.status)
print("fidelity:  ", solution.value)
print(f"build: {built - start:.2f} s  solve: {solved - built:.2f} s")
print(f"peak RSS: {peak_mb:.0f} MB")
