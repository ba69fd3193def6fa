"""Shared test setup and the scalar reference for the Dirac system.

Make this checkout's ``src/`` importable by the subprocesses tests start:
``pythonpath = ["src"]`` in pyproject.toml covers the test process itself;
the CLI, acceptance and demo tests also run ``python -m circledirac`` or a
demo script in a fresh interpreter, which reads ``PYTHONPATH`` instead.

The reference helpers write both sides of the Dirac system out in plain
Python complex arithmetic on 4-tuples of coefficients, one point at a time,
with their own biquaternion product :func:`mul`, and take a wave's value from
its prefactor and wavevector with ``cmath.exp``, so the array kernels,
``Biquaternion`` (whose product is ``array_mul``) and ``WaveFunction.at``
are checked against code they do not share.
"""

import ast
import cmath
import os
import pathlib

import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__

from circledirac import I0, I1, I2, I3

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

# The environment under which numpy runs its baseline loops (no dispatched SIMD, so no
# fused multiply-adds): every dispatch target disabled
BASELINE_KERNELS = {"NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__)}


def perfbench_literal(filename, name):
    """The literal bound to ``name`` in ``perfbench/<filename>``, read without importing it."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / filename
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{filename} defines no {name}")


def coeffs(x):
    """The four coefficients of a Biquaternion, a ``(4,)`` array or a sequence, as Python complex."""
    return tuple(np.asarray(x, dtype=complex).tolist())


def mul(a, b):
    """The biquaternion product in plain Python complex arithmetic, as a 4-tuple."""
    a0, a1, a2, a3 = coeffs(a)
    b0, b1, b2, b3 = coeffs(b)
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def conj(a):
    """Quaternion conjugate of a 4-tuple: c1..c3 negated."""
    a0, a1, a2, a3 = coeffs(a)
    return (a0, -a1, -a2, -a3)


def add(a, b):
    return tuple(x + y for x, y in zip(coeffs(a), coeffs(b)))


def sub(a, b):
    return tuple(x - y for x, y in zip(coeffs(a), coeffs(b)))


def scale(s, a):
    """The complex scalar s times each coefficient of a."""
    return tuple(s * c for c in coeffs(a))


def max_abs_diff(a, b):
    return max(abs(d) for d in sub(a, b))


def minkowski(x):
    """-x0^2 + x1^2 + x2^2 + x3^2 of one real four-vector, in plain Python floats."""
    x0, x1, x2, x3 = (float(v) for v in x)
    return -x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3


def component(wave, j, point):
    """Component j of the wave at one point, prefactor_j * exp(i k.x), in plain Python."""
    phase = cmath.exp(1j * sum(float(k) * float(x) for k, x in zip(wave.k, point)))
    return tuple(c * phase for c in coeffs(wave.prefactor[j]))


def analytic(wave, j, point, mu):
    """d phi_j/d x_mu at one point from the closed form i k_mu phi_j."""
    return scale(1j * float(wave.k[mu]), component(wave, j, point))


def central_difference(h):
    """d phi_j/d x_mu at one point as (phi_j(p + h e_mu) - phi_j(p - h e_mu))/(2h)."""
    def deriv(wave, j, point, mu):
        step = h * np.eye(4)[mu]
        diff = sub(component(wave, j, point + step), component(wave, j, point - step))
        return tuple(d / (2.0 * h) for d in diff)
    return deriv


# the upper-block units of the arc-time operator and of plain charts, as 4-tuples
ARC_UNITS = ((1j * I0).coeffs, I1.coeffs, I2.coeffs, I3.coeffs)
BARE_UNITS = (I0.coeffs, I1.coeffs, I2.coeffs, I3.coeffs)


def scalar_lhs(units, deriv, a_pot, e, wave, point):
    """Reference (D - i e A) Phi in plain Python products: the pair (upper, lower)."""
    upper = lower = (0j,) * 4
    for mu, u in enumerate(units):
        upper = add(upper, mul(u, deriv(wave, 1, point, mu)))
        lower = add(lower, mul(conj(u), deriv(wave, 0, point, mu)))
    ie = 1j * e
    upper = sub(upper, scale(ie, mul(a_pot, component(wave, 1, point))))
    lower = sub(lower, scale(ie, mul(conj(a_pot), component(wave, 0, point))))
    return upper, lower


def scalar_rhs(wave, m, point):
    """Reference Phi M with M = (m, -conj(m)): the pair (-phi1 conj(m), phi2 m)."""
    return (tuple(-c for c in mul(component(wave, 0, point), conj(m))),
            mul(component(wave, 1, point), m))
