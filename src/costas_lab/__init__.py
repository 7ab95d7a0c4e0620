"""costas-lab: carrier-recovery loop models, design, and simulation."""

from .core import (
    CONVENTIONAL_BPSK,
    CONVENTIONAL_QPSK,
    MODIFIED_BPSK,
    MODIFIED_QPSK,
    LoopParams,
    LoopVariant,
    PdFlavor,
    SimResult,
    VariantTag,
    pd_period,
    wrap_phase,
)
from .analysis import (
    DesignSpec,
    averaged_ud,
    design,
    hold_in_leadlag,
    hold_in_pi,
    lock_in_range,
    lock_time,
    predict,
    pull_in_range,
    pull_in_range_numeric,
    pull_in_time,
    pull_in_time_formula,
)
from .detectors import (
    PdCharacteristic,
    phi_bpsk,
    phi_qpsk,
)
from .baseband import (
    ClassicPhaseModel,
    DelayModel,
    classic_rhs,
    delay_rhs,
)

__version__ = "0.1.0"
