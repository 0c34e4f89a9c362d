"""Separation-rank toolkit for multiplicative recurrent networks.

Builds grid tensors, the weights tensor (the grid under identity
templates), and tensor-network graphs of shallow and deep multiplicative recurrent
networks, and checks the rank laws, lower bounds, and combinatorial lemmas
that govern their start/end dependency structure — with an exact rational
rank oracle and an SVD-based numeric one.
"""

from .builders import (GridTensor, build_grid_tensor, build_weights_tensor,
                       grid_budget, score_from_tensor, separation_rank)
from .errors import (FieldMismatchError, InvalidInputError, ParameterError,
                     RacsepError, ResourceBudgetError, ShapeError)
from .network import (RAC_PRODUCT, Cell, RacParams, TemplateEncoder,
                      forward_deep, neutral_h0, step_deep)
from .ranks import (RankReport, column_basis, multiset_coefficient, rank_exact,
                    rank_numeric, start_end_rank)
from .tensor import (EXACT, FLOAT, DenseTensor, IndexPartition, exact_array,
                     hadamard_power, load_tensor, matricize, save_tensor)
from .tn import (BasicUnitCount, Edge, NoCloneReport, OpenLeg, TnGraph,
                 attach_inputs, build_deep_tn, build_mps, contract,
                 count_basic_units, delta_tensor, load_graph, min_cut,
                 no_clone_counterexample, save_graph)
from .verification import (AppendixBAssignment, Report, ReportRow,
                           bucket_states, bucket_trajectories,
                           check_bucket_lemma, check_claim1_equality,
                           check_conjecture_bound,
                           check_decomposition_identity,
                           check_hadamard_power_bound, check_no_cloning,
                           check_rearrangement_lemma, conjectured_bound,
                           draw_params, draw_trials, rows_to_csv, trial_rng,
                           verify_deep_lower_bound, verify_min_cut,
                           verify_shallow_rank_law)

__version__ = "0.1.0"
