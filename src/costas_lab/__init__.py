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
    PredictionReport,
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
    routh_hurwitz_stable,
)
from .detectors import (
    PdCharacteristic,
    pd_conventional_bpsk,
    pd_conventional_qpsk,
    pd_modified_bpsk,
    pd_modified_qpsk,
    pd_modified_imag,
    phi_bpsk,
    phi_qpsk,
)
from .baseband import (
    AveragedModel,
    ClassicPhaseModel,
    DelayModel,
    averaged_rhs,
    averaged_ud,
    classic_rhs,
    delay_rhs,
)

__version__ = "0.1.0"
