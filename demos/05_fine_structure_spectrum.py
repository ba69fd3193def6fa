"""The bound-state spectrum: circular orbit, circle vibrations, and the
fine-structure levels computed by two independent routes.

Run:  python demos/05_fine_structure_spectrum.py
"""

import json

from circledirac import (
    bohr_solve,
    coupled_solve,
    energy_closed_form,
    lines_to_csv,
    lines_to_json,
    sommerfeld_reference,
    spectrum_table,
)

ALPHA = 7.2973525693e-3
MASS_EV = 510998.9461

print("Circular orbit at coupling alpha (speed alpha/n_theta):")
b = bohr_solve(ALPHA, 1)
print(f"  v = {b.v_b:.8f}, kinetic eta = {b.eta_b:.12f}, momentum mu = {b.mu_b:.8e}")
print(f"  potential eA = {b.eA_b:.8e}, total nu = {b.nu_b:.12f}")
print(f"  orbit radius R1 = {b.R1_b:.4f}, rest circle R0 = {b.R0_l:.1f}, boosted R0 = {b.R0_b:.6f}")
print(f"  quantisation: nu*R0_boosted = {b.nu_b * b.R0_b:.15f} (= n_theta)")

print("\nAdding circle vibrations (energy n_r*m/n_theta) and re-solving:")
print("  n_theta n_r   chain route          closed form          reference")
for n_theta, n_r in ((1, 0), (1, 1), (2, 0), (2, 1)):
    chain = coupled_solve(ALPHA, n_theta, n_r).nu_m
    closed = energy_closed_form(ALPHA, n_theta, n_r)
    ref = sommerfeld_reference(ALPHA, n_theta, n_r)
    print(f"  {n_theta:^7} {n_r:^3}   {chain:.15f}    {closed:.15f}    {ref:.15f}")

print("\nFine structure: levels with the same principal number differ.")
split = (energy_closed_form(ALPHA, 2, 0) - energy_closed_form(ALPHA, 1, 1)) * MASS_EV
print(f"  E(n_theta=2, n_r=0) - E(n_theta=1, n_r=1) = {split:.4e} eV"
      f"  (about m*alpha^4/32 = {MASS_EV * ALPHA ** 4 / 32:.4e} eV)")

print("\nSpectrum table (CSV, the golden-file format):")
table = spectrum_table(ALPHA, MASS_EV, 2, 2)
print(lines_to_csv(table))
# the JSON form of the same table reads back to the same rows
rows = zip(*(column.tolist() for column in table))
assert json.loads(lines_to_json(table)) == [dict(zip(table._fields, row)) for row in rows]
