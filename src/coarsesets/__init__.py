"""Finite-scale decision procedures for thin, sparse and scattered
subsets of groups, over computable models of Z, Z^d, direct sums of
Z/2 and free groups.
"""

from .budgets import Scale, preset
from .classifiers import (IsolatedBallsReport, SparseReport, ThinReport,
                          classify, isolated_balls_verdict, sparse_witness,
                          thin_degree)
from .density import (DensityProfile, density_pwip_experiment,
                      upper_density_profile)
from .geometry import (CellularityReport, PrecReport, Radius, ball,
                       cellularity_probe, chain_component, chain_partition,
                       prec_mapping_check, restricted_ball, word_radius)
from .groups import (BudgetExceededError, FiniteSample, FreeGroup, Group,
                     GroupError, IntGroup, LatticeGroup, XorGroup,
                     enumerate_window, group_from_spec, word_ball_elements)
from .recipes import SetSpec, spec_from_file, spec_from_json
from .structures import (NestedChain, PwipWitness, detect_pwip,
                         extract_pwip_from_chain, gen_cantor_geodesic, gen_ip,
                         gen_pwip, gen_wn)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError", "CellularityReport", "DensityProfile",
    "FiniteSample", "FreeGroup", "Group", "GroupError", "IntGroup",
    "IsolatedBallsReport", "LatticeGroup", "NestedChain", "PrecReport",
    "PwipWitness", "Radius", "Scale", "SetSpec", "SparseReport",
    "ThinReport", "XorGroup", "ball", "cellularity_probe",
    "chain_component", "chain_partition", "classify",
    "density_pwip_experiment", "detect_pwip", "enumerate_window",
    "extract_pwip_from_chain", "gen_cantor_geodesic", "gen_ip", "gen_pwip",
    "gen_wn", "group_from_spec", "isolated_balls_verdict",
    "prec_mapping_check", "preset", "restricted_ball", "sparse_witness",
    "spec_from_file", "spec_from_json", "thin_degree", "upper_density_profile",
    "word_ball_elements", "word_radius",
]
