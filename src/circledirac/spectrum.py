"""Bound states on circular charts and the fine-structure spectrum.

Natural units hbar = c = 1 with e^2 = alpha; electronvolts only enter at
the :class:`SpectrumLine` boundary through a user-supplied mass.

The orbital solve is closed-form.  With v = alpha/n_theta the circular
bound state has

    eta  = m/sqrt(1 - v^2)          (kinetic energy)
    mu   = m*v/sqrt(1 - v^2)        (momentum)
    eA   = -m*v^2/sqrt(1 - v^2)     (potential energy, attractive)
    nu   = eta + eA = m*sqrt(1 - v^2)   (total energy)

and the two quantisation statements m*R0_rest = n_theta (temporal
circle) and mu*R1 = n_theta (orbital angular momentum, L = n_theta).

Adding a circle vibration with energy n_r*m/n_theta gives the coupled
state.  Its total energy is computed by two deliberately separate
routes:

  route A (geometric chain): solve
      sqrt(1 - v_m^2)/v_m = (sqrt(1 - v^2) + n_r/n_theta)/v
  for the coupled speed v_m, then nu_m = m*sqrt(1 - v_m^2);

  route B (closed form):
      nu_m = m * (1 + alpha^2/(sqrt(n_theta^2 - alpha^2) + n_r)^2)^(-1/2),

which is the Sommerfeld/Dirac fine-structure formula with k = n_theta
and radial number n_r.  :func:`sommerfeld_reference` evaluates that
reference independently in high-precision arithmetic (mpmath) for use
as an oracle.  :func:`spectrum_table` works one n_theta row at a time:
it solves the orbit and the oracle's root sqrt(n_theta^2 - alpha^2)
once per row, and still evaluates route A and the oracle for every
level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath

from .errors import InvalidQuantumNumber, NonpositiveMass, SpeedDomain, quantum_integer
from .planewave import de_broglie

__all__ = [
    "QuantumNumbers",
    "BohrState",
    "CoupledState",
    "SpectrumLine",
    "circle_quantize",
    "circle_wave_energy",
    "bohr_solve",
    "coupled_solve",
    "energy_closed_form",
    "sommerfeld_reference",
    "spectrum_table",
    "lines_to_csv",
    "lines_to_json_rows",
]


@dataclass(frozen=True)
class QuantumNumbers:
    """Angular number n_theta >= 1 and circle-wave number n_r >= 0.

    Both must be integers (anything ``operator.index`` accepts, such as
    numpy integers, but not ``bool``) and are stored as plain ``int``.
    """

    n_theta: int
    n_r: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_theta", quantum_integer("n_theta", self.n_theta, 1))
        object.__setattr__(self, "n_r", quantum_integer("n_r", self.n_r, 0))

    @property
    def n(self) -> int:
        """Principal quantum number n_theta + n_r."""
        return self.n_theta + self.n_r


@dataclass(frozen=True)
class BohrState:
    """Circular-orbit bound state with all derived kinematics.

    R1_hat is the spatial component of the boosted circumference
    four-vector and is stored with the sign that makes the arc-form
    quantisation eta_b*R0_b + mu_b*R1_hat = n_theta hold literally (it
    carries the metric's minus sign, so it is negative for v_b > 0).
    """

    n_theta: int
    v_b: float
    eta_b: float
    mu_b: float
    nu_b: float
    eA_b: float
    R1_b: float
    R0_l: float
    R0_b: float
    R1_hat: float
    L: float


def _check_speed(alpha: float, n_theta: int, allow_zero: bool = False) -> float:
    v = alpha / n_theta
    low_ok = v >= 0.0 if allow_zero else v > 0.0
    if not (low_ok and v < 1.0):
        raise SpeedDomain(
            f"need {'0 <=' if allow_zero else '0 <'} alpha < n_theta for a bound orbit, "
            f"got alpha={alpha}, n_theta={n_theta}"
        )
    return v


def circle_quantize(mass: float, n_theta: int) -> float:
    """Rest-frame temporal circle radius n_theta/mass (single-valued phase).

    n_theta follows the :class:`QuantumNumbers` rule: an integer >= 1, not ``bool``.
    """
    if not mass > 0:
        raise NonpositiveMass(f"mass must be positive, got {mass}")
    return quantum_integer("n_theta", n_theta, 1) / mass


def circle_wave_energy(mass: float, qn: QuantumNumbers) -> float:
    """Energy n_r*mass/n_theta carried by the circle vibration."""
    if not mass > 0:
        raise NonpositiveMass(f"mass must be positive, got {mass}")
    return qn.n_r * mass / qn.n_theta


def bohr_solve(alpha: float, n_theta: int, mass: float = 1.0) -> BohrState:
    """Solve the circular-orbit bound state at coupling alpha."""
    if not mass > 0:
        raise NonpositiveMass(f"mass must be positive, got {mass}")
    qn = QuantumNumbers(n_theta, 0)
    v = _check_speed(alpha, qn.n_theta)
    eta, mu = de_broglie(mass, v)
    root = math.sqrt(1.0 - v * v)
    eA = -mass * v * v / root
    nu = eta + eA
    R0_l = circle_quantize(mass, qn.n_theta)
    return BohrState(
        n_theta=qn.n_theta,
        v_b=v,
        eta_b=eta,
        mu_b=mu,
        nu_b=nu,
        eA_b=eA,
        R1_b=qn.n_theta * root / (mass * v),
        R0_l=R0_l,
        R0_b=R0_l / root,
        R1_hat=-v * R0_l / root,
        L=float(qn.n_theta),
    )


@dataclass(frozen=True)
class CoupledState:
    """Bound orbit plus circle vibration, solved through the geometric chain."""

    qn: QuantumNumbers
    bohr: BohrState
    eta_l: float
    v_m: float
    nu_m: float
    mu_m: float
    vprime_m: float
    nu_h: float
    eta_h: float
    mu_h: float
    m_h: float


def _chain(b: BohrState, n_r: int, mass: float) -> tuple[float, float]:
    """Route A on a solved orbit: K -> v_m -> nu_m for n_r vibrations."""
    v = b.v_b
    K = (math.sqrt(1.0 - v * v) + n_r / b.n_theta) / v
    v_m = 1.0 / math.sqrt(1.0 + K * K)
    return v_m, mass * math.sqrt(1.0 - v_m * v_m)


def coupled_solve(alpha: float, qn: QuantumNumbers, mass: float = 1.0) -> CoupledState:
    """Route A: geometric chain for the coupled interaction.

    K = (sqrt(1 - v_b^2) + n_r/n_theta)/v_b determines the coupled speed
    v_m = 1/sqrt(1 + K^2) uniquely in (0, 1); the total energy is
    nu_m = mass*sqrt(1 - v_m^2).  The heavy-electron fields absorb the
    orbit and vibration energies into one particle at the orbital speed,
    with the boosted denominators ds0^2 - ds1^2 of the arc elements.
    """
    b = bohr_solve(alpha, qn.n_theta, mass)
    eta_l = circle_wave_energy(mass, qn)
    v = b.v_b
    v_m, nu_m = _chain(b, qn.n_r, mass)
    mu_m = mass * v_m / math.sqrt(1.0 - v_m * v_m)
    vprime_m = mass * mass / b.mu_b + eta_l / v

    # heavy electron: total energy nu_h at speed v_b, with ds1/ds0 = v_b
    nu_h = b.nu_b + eta_l
    one_minus = 1.0 - v * v
    eta_h = nu_h / one_minus
    mu_h = nu_h * v / one_minus
    m_h = nu_h / math.sqrt(one_minus)

    return CoupledState(
        qn=qn,
        bohr=b,
        eta_l=eta_l,
        v_m=v_m,
        nu_m=nu_m,
        mu_m=mu_m,
        vprime_m=vprime_m,
        nu_h=nu_h,
        eta_h=eta_h,
        mu_h=mu_h,
        m_h=m_h,
    )


def energy_closed_form(alpha: float, n_theta: int, n_r: int, mass: float = 1.0) -> float:
    """Route B: closed-form coupled energy (fine-structure formula).

    Unlike the geometric chain this survives the free limit alpha = 0,
    where every level collapses to the rest mass.
    """
    qn = QuantumNumbers(n_theta, n_r)
    _check_speed(alpha, qn.n_theta, allow_zero=True)
    root = math.sqrt(qn.n_theta * qn.n_theta - alpha * alpha)
    denom = (root + qn.n_r) ** 2
    return mass / math.sqrt(1.0 + alpha * alpha / denom)


def _row_oracle(alpha: float, n_theta: int, n_rs, mass: float, dps: int) -> list[float]:
    """High-precision levels (n_theta, n_r) for each n_r in ``n_rs``.

    One mpmath context per row: alpha and the root sqrt(k^2 - alpha^2)
    are converted and computed once, then every level is evaluated from
    them and rounded to float on its own.
    """
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        k = mpmath.mpf(n_theta)
        m = mpmath.mpf(mass)
        root = mpmath.sqrt(k * k - a * a)
        return [float(m / mpmath.sqrt(1 + (a / (mpmath.mpf(n_r) + root)) ** 2))
                for n_r in n_rs]


def sommerfeld_reference(alpha: float, n_theta: int, n_r: int,
                         mass: float = 1.0, dps: int = 40) -> float:
    """Independent high-precision Sommerfeld/Dirac level, rounded to float.

    E = m*(1 + alpha^2/(n_r + sqrt(k^2 - alpha^2))^2)^(-1/2) with k the
    angular number; evaluated with mpmath at ``dps`` decimal digits.  This
    is a one-level call of the row oracle that :func:`spectrum_table`
    uses, so both give the same value for the same level.
    """
    qn = QuantumNumbers(n_theta, n_r)
    _check_speed(alpha, qn.n_theta, allow_zero=True)
    return _row_oracle(alpha, qn.n_theta, (qn.n_r,), mass, dps)[0]


@dataclass(frozen=True)
class SpectrumLine:
    """One (n_theta, n_r) level with energies in natural units and eV."""

    qn: QuantumNumbers
    energy_natural: float
    energy_ev: float
    binding_ev: float
    reference_ev: float
    abs_diff: float


def spectrum_table(alpha: float, mass_ev: float,
                   max_n_theta: int, max_n_r: int) -> list[SpectrumLine]:
    """All levels with n_theta in [1, max_n_theta], n_r in [0, max_n_r].

    The table is built one n_theta row at a time.  Each row solves the
    orbit once and opens one 40-digit mpmath context that computes the
    oracle root sqrt(n_theta^2 - alpha^2) once; every level in the row
    then gets its own route-A energy (the geometric chain of
    :func:`coupled_solve`) and its own mpmath reference_ev (the formula
    of :func:`sommerfeld_reference`, bit-identical to it).

    binding_ev = -mass_ev*v_m^2/(1 + sqrt(1 - v_m^2)) is taken from
    route A's coupled speed (sqrt(1 - v_m^2) is nu_m at unit mass).  It
    equals energy_ev - mass_ev without the cancellation that subtraction
    suffers for weak coupling and high levels.  Rows are sorted by
    (n_theta + n_r, n_theta).
    """
    if max_n_theta < 1 or max_n_r < 0:
        raise InvalidQuantumNumber(
            f"need max_n_theta >= 1 and max_n_r >= 0, got {max_n_theta}, {max_n_r}"
        )
    if not mass_ev > 0:
        raise NonpositiveMass(f"mass_ev must be positive, got {mass_ev}")
    n_rs = range(0, max_n_r + 1)
    lines = []
    for n_theta in range(1, max_n_theta + 1):
        orbit = bohr_solve(alpha, n_theta, mass=1.0)
        references = _row_oracle(alpha, n_theta, n_rs, mass=1.0, dps=40)
        for n_r, reference in zip(n_rs, references):
            v_m, nu_m = _chain(orbit, n_r, mass=1.0)
            energy_ev = nu_m * mass_ev
            reference_ev = reference * mass_ev
            lines.append(SpectrumLine(
                qn=QuantumNumbers(n_theta, n_r),
                energy_natural=nu_m,
                energy_ev=energy_ev,
                binding_ev=-mass_ev * v_m * v_m / (1.0 + nu_m),
                reference_ev=reference_ev,
                abs_diff=abs(energy_ev - reference_ev),
            ))
    lines.sort(key=lambda line: (line.qn.n, line.qn.n_theta))
    return lines


_CSV_COLUMNS = ("n_theta", "n_r", "n", "energy_natural", "energy_ev",
                "binding_ev", "reference_ev", "abs_diff")


def _fmt(x: float) -> str:
    """17 significant digits, '.' decimal separator, locale independent."""
    return format(x, ".17g")


def lines_to_csv(lines: list[SpectrumLine]) -> str:
    rows = [",".join(_CSV_COLUMNS)]
    for line in lines:
        rows.append(",".join([
            str(line.qn.n_theta), str(line.qn.n_r), str(line.qn.n),
            _fmt(line.energy_natural), _fmt(line.energy_ev),
            _fmt(line.binding_ev), _fmt(line.reference_ev), _fmt(line.abs_diff),
        ]))
    return "\n".join(rows) + "\n"


def lines_to_json_rows(lines: list[SpectrumLine]) -> list[dict]:
    return [
        {
            "n_theta": line.qn.n_theta,
            "n_r": line.qn.n_r,
            "n": line.qn.n,
            "energy_natural": line.energy_natural,
            "energy_ev": line.energy_ev,
            "binding_ev": line.binding_ev,
            "reference_ev": line.reference_ev,
            "abs_diff": line.abs_diff,
        }
        for line in lines
    ]
