import math

import numpy as np
import pytest

from circledirac import NonpositiveMass
from circledirac.errors import positive_mass, require

MESSAGE = "mass must be positive, got {mass}"


@pytest.mark.parametrize("ok", [True, np.True_, np.greater(1.5, 0), np.array(True),
                                np.array([True, True]), 1])
def test_passing_checks_return(ok):
    assert require(ok, NonpositiveMass, MESSAGE, mass=1.5) is None


@pytest.mark.parametrize("ok, mass", [
    (False, -1.0),
    (np.False_, -1.0),
    (np.array(False), -1.0),
    (np.greater(math.nan, 0), math.nan),
    (np.greater(np.float64(-0.0), 0), -0.0),
])
def test_failing_scalar_checks_give_the_bare_message(ok, mass):
    with pytest.raises(NonpositiveMass, match=rf"^mass must be positive, got {mass}$"):
        require(ok, NonpositiveMass, MESSAGE, mass=mass)


def test_failing_array_check_names_the_first_row():
    mass = np.array([1.0, 2.0, -3.0, -4.0])
    with pytest.raises(NonpositiveMass, match=r"^row 2: mass must be positive, got -3.0$"):
        require(mass > 0, NonpositiveMass, MESSAGE, mass=mass)


@pytest.mark.parametrize("mass", [math.nan, np.float64(math.nan), 0.0, -2.0])
def test_positive_mass_rejects(mass):
    with pytest.raises(NonpositiveMass, match=rf"^mass must be positive, got {float(mass)}$"):
        positive_mass(mass)


# a plain float is compared by Python and every other input by numpy, with one verdict
@pytest.mark.parametrize("mass", [-0.0, -math.inf, 0, np.float64(-1.0), np.array([1.0, math.nan])])
def test_positive_mass_rejects_every_kind_of_input(mass):
    with pytest.raises(NonpositiveMass, match="mass must be positive, got "):
        positive_mass(mass)


@pytest.mark.parametrize("mass", [5e-324, 1.5, math.inf, 3, np.float64(2.0), np.array([1.0, 2.0])])
def test_positive_mass_accepts_every_kind_of_input(mass):
    assert positive_mass(mass) is None
