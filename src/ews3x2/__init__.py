"""Comparative statics, ratio-plane geometry, and estimation for the
three-factor two-good general-equilibrium trade model."""

from .errors import (AsymptoteHit, DegenerateDenominator,
                     DegenerateObservation, DegenerateShares, DegenerateShock,
                     Ews3x2Error, ExhaustedRejection, NonConvergence,
                     SingularSystem, Specialization, UnmappedRegion,
                     UnsupportedRanking, ZeroP)
from .model import (Economy, EwsMatrix, RatioPoint, ValidationReport,
                    classify_substitutes, epsilon, ews_matrix,
                    ews_ratio_vector, is_ranked, sample_economy_shares,
                    validate_economy)
from .geometry import (Quadrant, SegmentAB, SubregionLabel, VectorLine,
                       boundary_u, classify_subregion, point_q, points_r,
                       quadrant, region_contains, rybczynski_pattern,
                       segment_ab, vector_line)
from .statics import (Response, Shock, rybczynski_matrix, solve_linear,
                      stolper_samuelson)
from .production import (CobbDouglas, Ces, EquilibriumPoint, SampleConstraints,
                         TwoLevelCes, appendix_f_sweep, calibrated_spec,
                         economy_snapshot, fd_rybczynski, sample_economies,
                         sample_economy, solve_equilibrium)
from .estimate import (EstimateReport, Observation, consistency_checks,
                       corollary1_subregion, observation_from_response,
                       point_a, point_b, preprocess, run_pipeline,
                       theorem1_verdict)

__version__ = "0.1.0"
