"""Two agents on a head-on collision course, with and without the filter.

Both agents want to fly straight at each other.  The sequential filter
leaves the higher-indexed agent alone and deflects the lower-indexed one
just enough to keep the pairwise distance at or above d_s.
"""

from types import SimpleNamespace

import numpy as np

from safe_containment import sequential_filter

D_S = 0.3
DT = 1e-3
STEPS = 2000

models = [
    SimpleNamespace(A=-0.2 * np.eye(3), B=np.eye(3)),
    SimpleNamespace(A=-0.2 * np.eye(3), B=np.eye(3)),
]
A = np.stack([m.A for m in models])
B = np.stack([m.B for m in models])


def simulate(filtered: bool) -> np.ndarray:
    x = np.array([[0.8, 0.05, 0.0], [-0.8, -0.05, 0.0]])
    dists = np.zeros(STEPS)
    for k in range(STEPS):
        def rate(xs):
            u_bar = np.stack([2.0 * (xs[1] - xs[0]), 2.0 * (xs[0] - xs[1])])
            if filtered:
                res = sequential_filter(u_bar, xs, A, B, 5.0, D_S)
                u = np.stack([r.u for r in res])
            else:
                u = u_bar
            return np.stack(
                [models[i].A @ xs[i] + models[i].B @ u[i] for i in range(2)]
            )

        k1 = rate(x)
        k2 = rate(x + DT / 2 * k1)
        k3 = rate(x + DT / 2 * k2)
        k4 = rate(x + DT * k3)
        x = x + DT / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        dists[k] = np.linalg.norm(x[0] - x[1])
    return dists


raw = simulate(filtered=False)
safe = simulate(filtered=True)

print(f"safety radius d_s = {D_S}")
print(f"unfiltered  min distance: {raw.min():.4f}  (collision)")
print(f"filtered    min distance: {safe.min():.4f}  (held at the barrier)")
print()
print("t [s]   unfiltered   filtered")
for k in range(0, STEPS, 250):
    print(f"{(k + 1) * DT:5.2f}     {raw[k]:8.4f}   {safe[k]:8.4f}")
