"""
Physical recovery in two parity blocks
======================================

A recovery restricted to the form p . r . q, with p and q the parity
dephasing of four fermionic modes (d = 16).  Both dephasings are
invariant under the parity P, so twirling r over {1, P} keeps the
fidelity and some optimal r has Kraus operators of definite parity.  The
recovery SDP is therefore solved in an even and an odd block of
d^2 / 2 = 128 rows each instead of one of d^2 = 256, which about halves
its memory and time.  CI also runs this script under a 768 MiB
address-space cap.
"""

import time

import numpy as np

from constrained_recovery import channels as ch
from constrained_recovery import fermion
from constrained_recovery import recovery as rc
from constrained_recovery import sdp

rng = np.random.default_rng(16)
system = fermion.FermionSystem(4)
parity = np.asarray(fermion.parity_operator(system, tuple(range(1, 9))).c)
d = parity.shape[0]


def definite_parity_channel(rng, k=2):
    """k random Kraus operators, each even or odd under the parity, made
    trace preserving by a normalizer that commutes with the parity."""
    ops = []
    for i in range(k):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        sign = 1.0 if i % 2 == 0 else -1.0
        ops.append((a + sign * parity @ a @ parity) / 2.0)
    w, u = np.linalg.eigh(sum(e.conj().T @ e for e in ops))
    root = (u * w**-0.5) @ u.conj().T
    return ch.Channel([e @ root for e in ops])


noise = definite_parity_channel(rng)
target = definite_parity_channel(rng)
dephase = ch.Channel([np.eye(d) / np.sqrt(2), parity / np.sqrt(2)])
rho = np.eye(d) / d

start = time.perf_counter()
problem = rc.build_recovery_fidelity_sdp(noise, target, rho, rc.Physical(dephase, dephase))
solution = sdp.solve(problem)
elapsed = time.perf_counter() - start
print("block dims:", solution.diagnostics["block_dims"])
print("rows kept: ", solution.diagnostics["rows_kept"], "of", solution.diagnostics["rows"])
print("iterations:", solution.iterations, " status:", solution.status)
print("fidelity:  ", solution.value)
print(f"build + solve: {elapsed:.2f} s")
