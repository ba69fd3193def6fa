"""circledirac: numerical verification of a biquaternion reflector form of
the Dirac system on circular spacetime charts.

The library covers the quaternion algebra with complex coefficients, the
off-diagonal block (reflector) calculus, the circular chart bijections,
plane-wave residual checks, the infinite-velocity rotor transformation,
the Sommerfeld fine-structure bound-state spectrum computed by two
independent routes, and the per-point charge-density decomposition.
"""

from .biquaternion import (
    Biquaternion,
    FourVector,
    I0,
    I1,
    I2,
    I3,
    ONE,
    UNITS,
    array_conj,
    array_embed,
    array_mul,
    array_norm_form,
    array_to_matrix,
    conj,
    embed,
    mul,
    norm_form,
    unembed,
)
from .circle_spaces import (
    ChartKind,
    RotatedBasis,
    SpaceChart,
    SpatialPolar,
    TemporalPolar,
    arc_map,
    arc_map_inverse,
    chart_map,
    chart_point_from_json,
    chart_point_to_json,
    rotate_spatial_basis,
    rotate_temporal_basis,
    rotated_basis,
    rotated_basis_array,
    scale_potential,
    temporal_derivative_matrix,
)
from .errors import (
    CircleDiracError,
    DispersionViolation,
    FloatRange,
    InvalidQuantumNumber,
    LightConePoint,
    NonpositiveMass,
    NonpositiveRadiusParameter,
    NonUnitRotor,
    SpeedDomain,
    SuperluminalSpeed,
    ZeroArcElement,
    ZeroCharge,
)
from .planewave import (
    CircleWave,
    ExpWave,
    PlaneWave,
    ResidualReport,
    bound_solution,
    de_broglie,
    free_solution,
    mass_term,
    plane_wave_solution,
    residual,
)
from .qed import (
    ChargeDensitySolution,
    CouplingCoefficients,
    coefficient_d,
    coefficient_d_prime,
    replacement_map,
    rho_residual,
    solve_rho,
)
from .reflector import (
    ARC_TIME_UNITS,
    STANDARD_UNITS,
    AnalyticDerivative,
    CentralDifference,
    DiagPair,
    DiracOperator,
    Reflector,
    WaveFunction,
    diag_mul_reflector,
    dirac_lhs,
    dirac_rhs,
    reflector_mul,
    reflector_mul_diag,
    sandwich,
    unit_reflector,
)
from .spectrum import (
    BohrState,
    CoupledState,
    QuantumNumbers,
    SpectrumLine,
    bohr_solve,
    circle_quantize,
    circle_wave_energy,
    coupled_solve,
    energy_closed_form,
    lines_to_csv,
    lines_to_json_rows,
    sommerfeld_reference,
    spectrum_table,
)
from .tachyon import (
    DashedKinematics,
    TachyonRotor,
    component_map,
    dashed_energy,
    tachyon_double,
    tachyon_fourvector,
    tachyon_fourvector_double,
    tachyon_quaternion,
    tachyon_reflector,
)

__version__ = "0.1.0"
