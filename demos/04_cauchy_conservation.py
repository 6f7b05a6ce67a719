"""Cauchy evolution of the fourth-order wave system and energy conservation.

The squared d'Alembertian splits per spatial Fourier mode into the equation
(d_t^2 + xi^2)^2 y = 0, whose closed-form solution advances every mode at
once in a single step, so the evolution has no time-stepping error.  The
slice energy is the spatial integral of the time-translation current;
boundary-form ambiguity shifts the integrand by an exact derivative that
periodicity integrates away.
"""
import math

import numpy as np

from jetforms import CauchyState, GridSpec, cauchy_evolve
from jetforms.numeric import EnergyFunctional, band_limited_state
from jetforms.wave import wave_problem

wp = wave_problem()
N = 256
grid = GridSpec(((0.0, 2.0 * math.pi, N, True),))

# Exactness check: a travelling wave is reproduced to machine precision.
x = grid.points(0)
rows = np.stack([np.sin(x), -np.cos(x), -np.sin(x), np.cos(x)])
state = CauchyState(grid, np.stack([rows, rows]))
evolved = cauchy_evolve(state, 1.0)
err = math.sqrt(float(np.sum((evolved.data[0, 0] - np.sin(x - 1.0)) ** 2) * grid.spacing(0)))
print(f"travelling-wave L2 error at t = 1: {err:.3e}")

# Conservation run on random band-limited data.
energy_symmetric = EnergyFunctional(wp.theta_symmetric)
energy_skew = EnergyFunctional(wp.theta_skew())
state = band_limited_state(grid, wp.cfg.n, max_mode=N // 8, seed=0)
e0 = energy_symmetric(state)
print(f"\n{'t':>6} {'E_symmetric':>22} {'E_skew':>22} {'drift':>10}")
current = state
for step in range(9):
    t = step / 8.0
    current = cauchy_evolve(current, t)
    e_sym = energy_symmetric(current)
    e_skew = energy_skew(current)
    print(f"{t:6.3f} {e_sym:22.12f} {e_skew:22.12f} {abs(e_sym - e0) / abs(e0):10.2e}")

print("\nThe two energy columns agree identically (up to roundoff): the")
print("skew contribution to the current is an exact x-derivative, and the")
print("periodic slice integral of an exact derivative vanishes.")
