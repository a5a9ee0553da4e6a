"""Resonances of finitely perturbed discrete-time quantum walks on the line.

The walk is free (identity coin) outside a window [0, n0] and arbitrary
unitary inside.  Everything the package computes hangs off three
equivalent pictures of a resonance: a root of the transfer polynomial, a
nonzero eigenvalue of the window restriction K, and a pole met by a
winding integral of the transfer product.  On top of those sit the
scattering matrix, the resonance expansion of evolved states, the
resolvent on finite windows, and the splitting of multiple resonances
under generic coin perturbations.
"""

from .coins import (
    Coin,
    CoinSequence,
    PQTheta,
    coin_from_json,
    coin_to_json,
    coin_to_pqtheta,
    coin_transfer_factor,
    hadamard_coin,
    hadamard_pair,
    haar_coin,
    identity_coin,
    pqtheta_to_S,
    pqtheta_to_T,
    random_sequence,
    rotation_coin,
    s_product,
    sequence_from_json,
    sequence_to_json,
    triple_barrier,
    validate_coin,
)
from .errors import (
    A2Violated,
    A3Violated,
    AllZeroTail,
    AtResonance,
    ChainSolveFailed,
    ConfigParse,
    ConstraintViolated,
    DegenerateDirection,
    InvariantViolation,
    LeftS,
    NoMultipleResonance,
    NotUnitary,
    ProductLeavesS,
    QWResError,
    RelationCheckFailed,
    SpectralOverflow,
    UnsupportedN0,
    WindowOutsideCone,
)
from .expansion import (
    ExpansionData,
    ResonanceBlock,
    decay_fit_full,
    double_barrier_bound,
    double_barrier_closed_form,
    expand,
    nilpotency_index,
    reconstruct,
)
from .genericity import (
    PerturbationFamily,
    perturb,
    splitting_experiment,
    splitting_slope,
)
from .resolvent import apply_resolvent, identity_residual, neumann_resolvent
from .resonances import (
    JordanChainStates,
    Resonance,
    find_resonances,
    resonant_chain,
    strip_pair,
    validate_multiplicity,
    winding_count,
)
from .scattering import ScatteringMatrix, scattering_matrix
from .states import (
    Decomposition,
    WaveState,
    basis_state,
    decompose,
    incoming_length,
    state_from_json,
    state_to_json,
    window_vector,
    zero_state,
)
from .transfer import (
    TransferPolynomial,
    transfer_polynomial,
    transfer_product,
)
from .walk import (
    build_K,
    evolve,
    kernel_witnesses,
    norm_defect,
    step,
    survival_norm,
)

__version__ = "0.1.0"
