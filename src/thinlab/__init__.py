"""thinlab: a numerical laboratory for congruence transfer operators of
Schottky subgroups of SL2(Z) -- critical exponents, congruence spectra,
return-trajectory expander gaps, and uniform spectral-decay experiments."""

from .schottky import (
    IDENTITY,
    IsometricDisk,
    MarkovModel,
    MobiusMap,
    SchottkyData,
    build_markov_model,
    validate_schottky,
)
from .symbolic import (
    SymbolicPoint,
    birkhoff,
    d_theta,
    enumerate_words,
    eval_point,
    mixing_exponent,
)
from .thermo import (
    CollocationGrid,
    RpfSolution,
    ThermoLab,
    assemble_transfer,
    critical_exponent,
    rpf_solve,
)
from .congruence import (
    CongruenceFunction,
    GroupModQ,
    NewSpaceDecomposition,
    cocycle_mod,
    congruence_apply,
    project_and_scale,
)
from .expander import (
    FlatteningReport,
    MeasureOnFq,
    ReturnSet,
    approx_transfer_check,
    build_measures,
    build_return_set,
    cayley_gap,
    detect_expansion,
    flattening_pipeline,
    generates_full,
)
from .decay import (
    DecayCurve,
    DecaySchedule,
    decay_small_b,
    make_schedule,
    small_b_distortion,
    supnorm_lipschitz_check,
    twisted_radius,
)

__version__ = "0.1.0"
