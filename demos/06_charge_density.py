"""Per-point charge-density decomposition: coupling coefficients and the
closed-form roots of the charge-density quadratic.

Run:  python demos/06_charge_density.py
"""

from circledirac import (
    coefficient_d,
    coefficient_d_prime,
    replacement_map,
    solve_rho,
)

ALPHA = 7.2973525693e-3

print("Orbital coupling coefficient d = 3/(4 pi n^2):")
for n in (1, 2, 3):
    print(f"  d({n}) = {coefficient_d(n):.12f}")

print("\nWith circle vibrations the radical sqrt(n_theta^2 - alpha^2) shifts")
print("by n_r, giving d'; at n_r = 0 it reduces to d exactly:")
for n_theta, n_r in ((1, 0), (1, 1), (2, 1)):
    dp = coefficient_d_prime(ALPHA, n_theta, n_r)
    print(f"  d'(n_theta={n_theta}, n_r={n_r}) = {dp:.12f}")
print(f"  d'(1,0) == d(1): {coefficient_d_prime(ALPHA, 1, 0) == coefficient_d(1)}")
root = replacement_map(ALPHA, 1)
print(f"  shifted radicand check: (root + 1)^2 + alpha^2 = {(root + 1) ** 2 + ALPHA ** 2:.12f}"
      f" vs bracket {1 + 1 + 2 * root:.12f}")

print("\nThe quadratic tying the density rho to the potential magnitude A")
print("solves in closed form; both branches substitute back to zero:")
e = ALPHA ** 0.5
for A in (0.5, 1.0, -2.0):
    sol = solve_rho(A, 1.0, e, coefficient_d_prime(ALPHA, 1, 1))
    print(f"  A = {A:4}: rho+ = {sol.rho_plus: .6e}  rho- = {sol.rho_minus: .6e}"
          f"  residuals ({sol.residual_plus:.1e}, {sol.residual_minus:.1e})")
