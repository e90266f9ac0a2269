import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from gibq.construction import schedule_from_N
from gibq.harness import run_inflation
from gibq.lattice import FrequencyLattice, real_field

# One point past the contraction threshold N ~ 5e10, with the acceptance
# sweep's k, s, delta, generation count J = 4 and quadrature degree p = 16.
BIG_N = 1 << 40
S, DELTA, K = -0.75, 0.25, 2

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def lattice():
    return FrequencyLattice(period=1.0, cutoff=1 << 24)


@pytest.fixture(scope="session")
def big_report():
    """The N = 2^40 inflation run, shared by the large-scale tests and the
    tail-domination clause of acceptance criterion 6.  The series method
    is the only solution measurement at this scale; run_inflation raises
    instead of reporting it unless the series ledger decays."""
    params = schedule_from_N(BIG_N, K, S, delta_hint=DELTA)
    return params, run_inflation(
        params, max_gen=4, degree=16, method="series",
        families=[{"family": "fourier_lebesgue", "q": 1}],
    )


def hermitian_field(lattice, seed, max_freq=24, amplitude=1.0):
    rng = np.random.default_rng(seed)
    xi = np.arange(1, max_freq + 1)
    z = (rng.standard_normal(max_freq) + 1j * rng.standard_normal(max_freq))
    z *= amplitude * np.exp(-0.1 * xi)
    return real_field(lattice, amplitude * rng.standard_normal(), xi, z)
