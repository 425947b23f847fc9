"""Composite optimization with a zeroth-order inner loop.

A gradient-sliding solver for objectives f + g where the non-smooth part f
is reachable only through noisy function values (estimated with a two-point
sphere rule) while the smooth part g yields exact gradients. Includes a
restarted variant for strongly convex objectives, first- and zeroth-order
baselines, a Laplacian-penalty layer that turns decentralized problems into
single composite ones, experiment objectives, and a reproducible CLI harness.
"""

from .geometry import FeasibleSet, NormPair, ProximalSetup, make_setup, project, prox_step
from .oracles import (Counters, EstimatorError, NoiseModel, NoisyZeroOrderOracle,
                      SmoothingEstimator, default_p_star, sample_sphere)
from .sliding import (Budgets, CompositeProblem, RestartConfig, SlidingSchedule, SolverAbort,
                      build_schedule, ps_procedure, suggest_r_delta, theoretical_bound, zosa_run)
from .baselines import BaselineConfig, gd_run, zogd_run
from .network import (Graph, GraphError, Laplacian, NetworkProblem, build_laplacian,
                      dual_bound_radius, lift_to_penalized, penalty_coefficient, read_edge_list)
from .problems import (GeometricMedianInstance, LogRegLassoInstance, NesterovLassoInstance,
                       SeparableLassoInstance, make_strongly_convex_instance,
                       prox_grad_reference, read_libsvm, weiszfeld, wire_composite)
from .trace import RunTrace, TraceRow

__version__ = "0.1.0"

from .harness import (ConfigError, RunConfig, compare, config_from_metadata,
                      load_config, parse_metric, parse_seed_spec, replay, run,
                      seed_stream, validate)
