"""The infinite-velocity transformation: rotor form, coefficient form,
covariance of the Dirac system, and dashed-frame kinematics.

Run:  python demos/04_tachyon_transformation.py
"""

import math

import numpy as np

from circledirac import (
    PlaneWave,
    bound_solution,
    component_map,
    dashed_energy,
    de_broglie,
    embed,
    mass_term,
    residual,
    tachyon_double,
    tachyon_fourvector,
    tachyon_quaternion,
    unembed,
)
from circledirac.reflector import ARC_TIME_UNITS
from circledirac.tachyon import transform_operator, transform_wave

print("On stored-real four-vectors the transformation swaps the temporal")
print("and first spatial components:")
x = np.array([1.0, 2.0, 3.0, 4.0])
print("  x        =", tuple(x.tolist()))
print("  dashed x =", tuple(tachyon_fourvector(x).tolist()))
print("  twice    =", tuple(unembed(tachyon_double(embed(x))).tolist()),
      " (half turn in the (0,1) plane)")

print("\nOn biquaternion coefficients it is the quarter turn (c0,c1) -> (-c1,c0),")
print("realised by the rotor sandwich with (1 + i1)/sqrt(2):")
q = embed((0.9, -0.4, 0.0, 0.0))
print("  embedded     :", q.coeffs)
print("  rotor form   :", tachyon_quaternion(q).coeffs)
print("  coefficient  :", component_map(q).coeffs)
print("  double (i1 sandwich):", tachyon_double(q).coeffs)

print("\nThe Dirac system is covariant: transforming the wave, the operator,")
print("the mass and the potential together keeps the residual at zero.")
mu, eA = 0.6, -0.3
pw = PlaneWave(nu=eA + math.sqrt(1 + mu * mu), mu=mu, mass=1.0, eA=eA)
wave = transform_wave(bound_solution(pw))
a_pot, e = pw.potential()
a_dashed, m_dashed = tachyon_quaternion(a_pot), tachyon_quaternion(mass_term(1.0))
points = np.random.default_rng(4).uniform(-2, 2, size=(10, 4))
worst = residual(wave, a_dashed, e, m_dashed, points,
                 operator=transform_operator(ARC_TIME_UNITS)).analytic
print(f"  max residual of the transformed system: {worst:.3e}")
print("  dashed-frame mass quaternion:", m_dashed.coeffs, " (points along i1)")

print("\nDashed-frame energy from the invariant arc-form dot product:")
eta, mu_b = de_broglie(1.0, 0.6)
v = eta + mu_b * 0.6      # undashed arc-form energy with ds1/ds0 = v = 0.6
print(f"  eta = {eta}, mu = {mu_b}, ds1/ds0 = 0.6")
print(f"  dashed energy = {dashed_energy(1.0, 0.6, eta, mu_b):.6f}"
      f"  (equals v*ds0/ds1 = {v / 0.6:.6f})")
