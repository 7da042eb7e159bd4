"""Walk through the offline gain synthesis for the bundled scenario.

For each follower we solve the feedforward matching condition
S = A + B @ Pi, the Riccati equation A'P + PA + Q - P B U^-1 B' P = 0,
and assemble K = -U^-1 B' P, H = Pi - K.  The printout shows the residuals
and the closed-loop spectrum that make the tracking loop work.
"""

import numpy as np

from safe_containment import leader_problems, load_scenario, synthesize_gains
from safe_containment.gains import care_residual

scn = load_scenario("paper_sec4")
S = scn.S

print("leader dynamics S =")
print(np.array2string(S, precision=3))
print(f"marginally stable: {not leader_problems(S)}")
print("eigenvalues:", np.round(np.linalg.eigvals(S), 6))
print()

for idx, f in enumerate(scn.followers, start=1):
    g = synthesize_gains(f.A, f.B, f.Q, f.U, S)
    closed = f.A + f.B @ g.K
    reg_res = np.linalg.norm(S - f.A - f.B @ g.Pi)
    print(f"follower {idx}")
    print(f"  riccati residual   {care_residual(f.A, f.B, f.Q, f.U, g.P):.3e}")
    print(f"  regulator residual {reg_res:.3e}")
    print(f"  P eigenvalues      {np.round(np.linalg.eigvalsh(g.P), 4)}")
    print(
        "  closed-loop poles  "
        f"{np.round(np.sort(np.linalg.eigvals(closed).real), 4)}"
    )
    # the two gain paths recombine into the matching condition
    recombined = f.A + f.B @ (g.K + g.H)
    print(f"  ||A + B(K+H) - S|| {np.linalg.norm(recombined - S):.3e}")
    print()
