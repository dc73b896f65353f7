"""Detection of quantum non-Gaussianity via phase-space quasiprobability bounds."""

from .bounds import (ConvexityReport, Rank2Candidate, bound_at_zero,
                     build_bound_curve, convexity_check, m_minus1_closed,
                     pure_bound, rank2_search, wigner_bound_closed)
from .error_model import normalized_bound_stats
from .fock import (ChannelSpec, GaussianMapSpec, TruncatedState, TruncationError,
                   apply_loss, apply_map, make_coherent, make_displaced_squeezed,
                   make_fock, make_pac, make_pss, make_squeezed, mix, moments,
                   mapped_photon_probs, photon_probs)
from .quasiprob import qs_fock, qs_origin, qs_origin_error, qs_pure_gaussian
from .witness import (StateFamily, ThresholdResult, WitnessReport, beta_opt,
                      delta_a, delta_b, epsilon_threshold, q_opt, refine_map,
                      witness_at_loss)

__all__ = [name for name in dir() if not name.startswith("_")]
