"""Shared test setup and the scalar reference for the Dirac system.

Make this checkout's ``src/`` importable by the subprocesses tests start:
``pythonpath = ["src"]`` in pyproject.toml covers the test process itself;
the CLI, acceptance and demo tests also run ``python -m circledirac`` or a
demo script in a fresh interpreter, which reads ``PYTHONPATH`` instead.

The reference helpers write both sides of the Dirac system out in scalar
Biquaternion products, one point at a time, and take a wave's value from
its prefactor and wavevector with ``cmath.exp``, so the array kernels and
``WaveFunction.at`` are checked against code they do not share.
"""

import ast
import cmath
import os
import pathlib

import numpy as np

from circledirac import I0, I1, I2, I3, Biquaternion

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))


def perfbench_literal(filename, name):
    """The literal bound to ``name`` in ``perfbench/<filename>``, read without importing it."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / filename
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{filename} defines no {name}")


def component(wave, j, point):
    """Component j of the wave at one point, prefactor_j * exp(i k.x), in plain Python."""
    phase = cmath.exp(1j * sum(float(k) * float(x) for k, x in zip(wave.k, point)))
    return Biquaternion(*wave.prefactor[j]) * phase


def analytic(wave, j, point, mu):
    """d phi_j/d x_mu at one point from the closed form i k_mu phi_j."""
    return (1j * float(wave.k[mu])) * component(wave, j, point)


def central_difference(h):
    """d phi_j/d x_mu at one point as (phi_j(p + h e_mu) - phi_j(p - h e_mu))/(2h)."""
    def deriv(wave, j, point, mu):
        step = h * np.eye(4)[mu]
        return (component(wave, j, point + step) - component(wave, j, point - step)) / (2.0 * h)
    return deriv


# the upper-block units of the arc-time operator and of plain charts, as Biquaternions
ARC_UNITS = (1j * I0, I1, I2, I3)
BARE_UNITS = (I0, I1, I2, I3)


def scalar_lhs(units, deriv, a_pot, e, wave, point):
    """Reference (D - i e A) Phi in scalar Biquaternion products: the pair (upper, lower)."""
    upper = Biquaternion()
    lower = Biquaternion()
    for mu, u in enumerate(units):
        upper = upper + u * deriv(wave, 1, point, mu)
        lower = lower + u.conj * deriv(wave, 0, point, mu)
    ie = 1j * e
    upper = upper - ie * (a_pot * component(wave, 1, point))
    lower = lower - ie * (a_pot.conj * component(wave, 0, point))
    return upper, lower


def scalar_rhs(wave, m, point):
    """Reference Phi M with M = (m, -conj(m)): the pair (-phi1 conj(m), phi2 m)."""
    return -(component(wave, 0, point) * m.conj), component(wave, 1, point) * m
