"""Separation-rank toolkit for multiplicative recurrent networks.

Builds grid tensors, the weights tensor (the grid under identity
templates), and tensor-network graphs of shallow and deep multiplicative recurrent
networks, and checks the rank laws, lower bounds, and combinatorial lemmas
that govern their start/end dependency structure — with an exact rational
rank oracle and an SVD-based numeric one.
"""

from .builders import (build_grid_tensor, build_weights_tensor, grid_budget,
                       separation_rank)
from .errors import (FieldMismatchError, InvalidInputError, ParameterError,
                     RacsepError, ResourceBudgetError, ShapeError)
from .network import (RAC_PRODUCT, Cell, RacParams, TemplateEncoder,
                      forward_deep, neutral_h0, step_deep)
from .ranks import (RankReport, column_basis, multiset_coefficient, rank_exact,
                    rank_numeric)
from .tensor import (EXACT, FLOAT, DenseTensor, exact_array, hadamard_power,
                     matricize)
from .tn import (Edge, OpenLeg, TnGraph, attach_inputs, build_deep_tn,
                 build_mps, contract, delta_tensor, min_cut,
                 no_clone_counterexample)
from .verification import (Report, ReportRow, appendix_b_params,
                           bucket_states, bucket_trajectories,
                           check_bucket_lemma, check_claim1_equality,
                           check_conjecture_bound,
                           check_decomposition_identity,
                           check_hadamard_power_bound, check_no_cloning,
                           check_rearrangement_lemma, conjectured_bound,
                           draw_params, draw_trials, rows_to_csv,
                           suffix_bound, trial_rng, verify_deep_lower_bound,
                           verify_min_cut, verify_shallow_rank_law)

__version__ = "0.1.0"
