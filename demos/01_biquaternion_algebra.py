"""Tour of the biquaternion algebra: units, conjugation, Minkowski embedding.

Run:  python demos/01_biquaternion_algebra.py
"""

import numpy as np

from circledirac import Biquaternion, I1, I2, embed, sandwich

print("Quaternion units with complex coefficients")
print("  i1 * i2      =", (I1 * I2).coeffs, " (cyclic: equals i3)")
print("  i2 * i1      =", (I2 * I1).coeffs, " (anti-cyclic: equals -i3)")
print("  i1 * i1      =", (I1 * I1).coeffs)

print("\nConjugation fixes the scalar slot and negates the vector slots:")
a = Biquaternion(1 + 2j, 0.5, -1.0, 3j)
print("  a       =", a.coeffs)
print("  conj(a) =", a.conj.coeffs)
b = Biquaternion(0.25, -1j, 2.0, 1.0)
print("  conj(a*b) == conj(b)*conj(a):", (a * b).conj == b.conj * a.conj)

print("\nEmbedding a four-vector divides the temporal slot by i exactly once,")
print("so the scalar a*conj(a) reproduces the Minkowski form:")
x = (2.0, 1.0, 0.0, 0.0)
print("  embed((2,1,0,0))           =", embed(x).coeffs)
print("  norm_form(embed((2,1,0,0))) =", embed(x).norm_form(), " (expected -4 + 1 = -3)")

print("\nA rest-mass embedding squares to -(mass)^2:")
m = 0.511
print("  norm_form(embed((m,0,0,0))) =", embed((m, 0, 0, 0)).norm_form(), f" (-m^2 = {-m * m})")

print("\nUnit rotors preserve the norm form under the same-factor sandwich:")
rng = np.random.default_rng(1)
raw = rng.standard_normal(4)
rotor = Biquaternion(*(raw / np.linalg.norm(raw)))
v = embed(rng.uniform(-2, 2, size=4))
print("  before:", v.norm_form())
print("  after :", sandwich(rotor, v).norm_form())
