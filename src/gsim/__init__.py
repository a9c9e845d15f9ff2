"""Classical simulation of non-Gaussian optics via Gaussian superpositions.

States are decomposed into pure Gaussian terms with exactly tracked relative
phases; Born probabilities follow either the exact rank-quadratic evaluator
or the sparsification plus fast-norm pipeline that scales linearly with the
decomposition's l1 weight.
"""

from .gaussian import (
    GaussianChannel,
    GaussianPure,
    GeneralDyne,
    apply_symplectic,
    condition_on_generaldyne,
    generaldyne_density,
    tensor,
)
from .phase import GaussianUnitary, overlap, propagate, triple_overlap
from .simulator import (
    BornEstimate,
    NormEstimate,
    approx_born,
    condition,
    evolve,
    exact_born,
    fast_norm,
    sparsify,
)
from .states import (
    ExtentReport,
    Superposition,
    WeightedGaussian,
    Witness,
    boson_sampling_bound,
    breeding_lower_bound,
    cat_state,
    fock1_ring,
    gkp_state,
    grid_sensor,
    measures,
    rotational_code,
    witness_check,
)
from .symplectic import omega, passive_from_unitary

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
