"""
A local recovery at d = 8 to 128: the duality under FixesAlgebra(M_2 (x) 1)
==========================================================================

A recovery that acts only on a region must fix the algebra B of
everything outside it.  Here B = M_2 (x) 1_{d/2}, generated by X (x) 1
and Z (x) 1, so a recovery that fixes B acts on the second factor alone:
its Kraus operators are 1_2 (x) K.  The recovery side is posed over
those K, in B's block coordinates and on the support of each linked
state in the d/2 factor, so its process matrix is a block of 32 whatever
d is.  Posed over a dense basis of the commutant 1 (x) M_{d/2} on the
full dimensions, the same side needs 3.2 GB at d = 32 and more than
4 GiB at d = 48.  The environment side links the local complements,
whose conditional expectation onto B' is read off the same blocks of B:
sum_k n_k^2 = 4 Kraus operators U^dag (|i><j| (x) 1) U / sqrt(2).  Built
from a dense basis of B' = 1 (x) M_{d/2} instead, it took 365 MB at
d = 64 and ran out of memory at d = 128 under a 2 GiB cap.

Noise: two random Kraus operators (QR of a Gaussian, seed d); target:
the identity; state: W W^dag / 2 for a random two-dimensional code W;
tol 1e-7.  Each rung builds and solves the recovery side once for its
blocks, rows and iterations, then runs ``verify_duality``, in its own
process so that the peak RSS printed is that rung's.  The script exits
nonzero unless every duality passes.  CI runs it under a 2 GiB
address-space cap.
"""

import resource
import subprocess
import sys
import time

import numpy as np

from constrained_recovery import algebra as alg
from constrained_recovery import channels as ch
from constrained_recovery import recovery as rc
from constrained_recovery import sdp

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.diag([1.0, -1.0])


def rung(d):
    rng = np.random.default_rng(d)
    g = rng.normal(size=(2 * d, d)) + 1j * rng.normal(size=(2 * d, d))
    q, _ = np.linalg.qr(g)
    noise = ch.Channel([q[:d], q[d:]])
    target = ch.identity_channel(d)
    w, _ = np.linalg.qr(rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2)))
    rho = w @ w.conj().T / 2
    local = rc.FixesAlgebra(alg.generate_algebra([np.kron(p, np.eye(d // 2)) for p in (X, Z)], d))

    start = time.perf_counter()
    solution = sdp.solve(rc.build_recovery_fidelity_sdp(noise, target, rho, local), tol=1e-9)
    recovery_s = time.perf_counter() - start
    report = rc.verify_duality(noise, target, rho, local, tol=1e-7)
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    diag = solution.diagnostics
    print(f"{d:>3}  {str(diag['block_dims']):>9}  {diag['rows']:>4} {diag['rows_kept']:>4}  "
          f"{solution.iterations:>5}  {report.recovery.value:.10f}  "
          f"{report.environment.value:.10f}  {recovery_s:6.2f} s  {wall:6.2f} s  "
          f"{peak_mb:5.0f} MB", flush=True)
    if not report.passed:
        sys.exit(f"d={d}: the duality did not pass: {report}")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        rung(int(sys.argv[1]))
    else:
        print("  d     blocks  rows kept  iters  recovery      environment   "
              "recovery  wall      peak RSS", flush=True)
        failed = [d for d in (8, 16, 32, 64, 128)
                  if subprocess.run([sys.executable, __file__, str(d)]).returncode]
        sys.exit(f"rungs that did not pass: {failed}" if failed else 0)
