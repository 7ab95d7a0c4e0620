import math

import pytest

from costas_lab import (
    CONVENTIONAL_BPSK,
    CONVENTIONAL_QPSK,
    MODIFIED_BPSK,
    MODIFIED_QPSK,
    DesignSpec,
    LoopParams,
    design,
)

OMEGA0 = 2.0 * math.pi * 400e3


@pytest.fixture(scope="session")
def bpsk_design():
    """Conventional BPSK loop designed for the 400 kHz / 100 ksym reference."""
    return design(DesignSpec(f0=400e3, f_symbol=100e3, variant=CONVENTIONAL_BPSK))


@pytest.fixture(scope="session")
def qpsk_design():
    return design(DesignSpec(f0=400e3, f_symbol=100e3, variant=CONVENTIONAL_QPSK))


@pytest.fixture(scope="session")
def mod_bpsk_design():
    return design(DesignSpec(f0=400e3, f_symbol=100e3, variant=MODIFIED_BPSK))


@pytest.fixture(scope="session")
def mod_qpsk_design():
    return design(DesignSpec(f0=400e3, f_symbol=100e3, variant=MODIFIED_QPSK))


@pytest.fixture(scope="session")
def bpsk_reference_params():
    """The reference design quoted for the conventional BPSK loop."""
    return LoopParams(
        omega1=OMEGA0, omega_free=OMEGA0, k0=1262000.0, kd=1.0,
        tau1=20e-6, tau2=4e-6, omega3=1256000.0,
    )


@pytest.fixture(scope="session")
def qpsk_reference_params():
    return LoopParams(
        omega1=OMEGA0, omega_free=OMEGA0, k0=631000.0, kd=2.0,
        tau1=20e-6, tau2=4e-6, omega3=1256000.0,
    )


@pytest.fixture(scope="session")
def modified_reference_params():
    return LoopParams(
        omega1=OMEGA0, omega_free=OMEGA0, k0=1262000.0, kd=1.0,
        tau1=20e-6, tau2=4e-6,
    )
