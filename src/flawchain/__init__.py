"""Flaw-structured Markov systems under adversarial noise.

A toolkit for finite state spaces partitioned by flaws, driven by a
prioritized principal kernel mixed with adversarial noise: structural
analysis (potentials, congestion, causality), certification of fast
convergence to flawless states with explicit step budgets, seeded
simulation, forensic break-sequence encodings, and exact enumeration of
probability-stratified process trees.
"""

__version__ = "0.1.0"

from .core import (Distribution, ExplicitInstance, ImplicitInstance, Kernel,
                   ModelError, ModelWarning, arc_bound, binary_entropy,
                   require_explicit, shannon_entropy, validate_instance)
from .analyzer import (CausalityGraph, Congestion, FlawProfile,
                       causality_graph, congestion, flaw_profiles,
                       global_noise_bits, global_principal_bits, max_delta,
                       neighborhood, q_of_p)
from .certifier import (AuditReport, Certificate, ConditionReport,
                        build_certificate, certify, condition_report,
                        inequality_audit, lambda_search,
                        uniform_noiseless_check)
from .simulator import (HittingStats, Trajectory, monte_carlo, run, step,
                        tail_check, trial_stream)
from .forensics import (Bits, BreakSequence, ForensicsError, break_sets,
                        decode, encode, encoded_length, reconstruct_witness,
                        witness)
from .exact import (CapExceeded, Leaf, TruncatedTree, bad_mass,
                    prefix_entropy, truncated_tree, verify_stratification)
from .instances import (NoiseModel, attach_noise, gen_coloring, gen_ksat,
                        gen_random, gen_star, gen_uniform_singletons)
from . import fileio

__all__ = [name for name in dir() if not name.startswith("_")]
