import math
from collections import Counter
from contextlib import contextmanager
from types import MethodType

import numpy as np
import pytest

from costas_lab import (
    CONVENTIONAL_BPSK,
    CONVENTIONAL_QPSK,
    MODIFIED_BPSK,
    MODIFIED_QPSK,
    DesignSpec,
    LoopParams,
    baseband,
    cli,
    design,
    pd_period,
    signal_sim,
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


@contextmanager
def _counted_phase_rhs(sites):
    """Count the phase model's rhs calls at its measurement point and at
    the sites that make them.

    ``baseband.classic_rhs`` and ``cli.classic_rhs``, the names a tracer
    patches, are rebound to a counter (``counts["classic_rhs"]``).  Each
    ``(module, function name, rhs argument index)`` in ``sites`` is
    wrapped so that its rhs argument counts its calls under the function's
    name; ``counts["rhs_calls"]`` sums the ``rhs_calls`` of the
    trajectories ``integrate`` returns.  Yields ``(counts, rhs_seen)``,
    where ``rhs_seen`` lists the rhs each site was given, each of which
    must be the counter bound to its model.
    """
    counts, seen = Counter(), []
    home = baseband.classic_rhs

    def counted(model, t, state):
        counts["classic_rhs"] += 1
        return home(model, t, state)

    def site(fn, name, index):
        def wrapped(*args):
            rhs = args[index]
            seen.append(rhs)
            assert type(rhs) is MethodType and rhs.__func__ is counted

            def site_rhs(t, y):
                counts[name] += 1
                return rhs(t, y)

            out = fn(*args[:index], site_rhs, *args[index + 1:])
            if name == "integrate":
                counts["rhs_calls"] += out.rhs_calls
            return out

        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baseband, "classic_rhs", counted)
        mp.setattr(cli, "classic_rhs", counted)
        for module, name, index in sites:
            mp.setattr(module, name, site(getattr(module, name), name, index))
        yield counts, seen


@pytest.fixture(scope="session")
def counted_phase_rhs():
    """The context manager :func:`_counted_phase_rhs`."""
    return _counted_phase_rhs


def _pd_sample(variant, *u, th2=0.0):
    """(ud, i2, q2) of one sample of ``variant``'s sample loop, as
    ``signal_sim._kernel_loop(tag, flavor, True)`` builds it: ``u`` is the
    sample's front end, the mixer input (conventional loops) or (u_re,
    u_im) (modified loops), met at NCO phase ``th2``.  A sample at phase 0
    runs first and turns the NCO to ``th2``.  The LPFs pass their input
    through (b = a1 = 1), so the conventional loops hand their PD the
    mixer outputs, (u*sin(th2), u*cos(th2)) for BPSK and (u*cos(th2),
    u*sin(th2)) for QPSK, and at th2 = 0 the modified loops hand theirs
    (u_re*1.0 + u_im*0.0, u_im*1.0 - u_re*0.0): (u_re, u_im) exactly, but
    for the sign of a zero."""
    loop = signal_sim._kernel_loop(variant.tag, variant.pd_flavor, True)
    bufs = [np.full(2, np.nan) for _ in range(4)]
    front = zip(range(2), *([x, x] for x in u))
    ran = loop(front, 1.0, 1.0, 0.5, -0.25, th2, 0.0, pd_period(variant),
               *map(memoryview, bufs))
    assert ran == (2, None)
    _, ud, i2, q2 = (b[1] for b in bufs)
    return float(ud), float(i2), float(q2)


@pytest.fixture(scope="session")
def pd_sample():
    """The function :func:`_pd_sample`."""
    return _pd_sample
