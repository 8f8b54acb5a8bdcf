"""skewlab: skew products with concave interval fiber maps.

Library layout:

- ``fiber``: single-map analysis (relative gap, concavity certificates,
  one-sided derivatives, isoclinic points, contraction-ratio inequalities)
- ``nonauto``: map sequences, paired-orbit traces and their bounds
- ``bases`` / ``skew``: base spaces, the skew map, classification, pinching
- ``attractor``: graph construction (preinvariant, pullback) and verification
- ``registry`` / ``config`` / ``catalog``: closed forms, configs, examples
- ``cli``: the ``skewlab`` command
"""

from .attractor import (
    AttractorVerdict,
    GraphFunction,
    build_preinvariant,
    largest_fixed_point,
    match_fraction,
    positive_fraction,
    pullback_grid,
    pullback_phi,
    uniqueness_probe,
    verify_attractor,
    verify_preinvariance,
)
from .bases import CircleRotation, FiniteOrbitBase, OneSidedWord, SymbolicShift, TwoSidedWord
from .catalog import (
    CATALOG,
    coinflip_attractor_graph,
    make_coinflip,
    make_keller,
    make_noinvattr,
    make_product,
)
from .config import SystemConfig, build_system, load_system, parse_config
from .errors import (
    CapabilityError,
    ConfigError,
    CoverageError,
    DomainError,
    InvariantError,
    PreconditionError,
    RegistryError,
    SkewlabError,
)
from .fiber import (
    ConcavityCertificate,
    FiberMap,
    certify,
    concavity_holds,
    isoclinic_point,
    kappa,
    left_derivative,
    left_derivative_limit,
    ratio_bound_monotone,
    ratio_bound_nonmonotone,
)
from .nonauto import (
    MapSequence,
    OrbitPairTrace,
    bound_violations,
    check_equiconcavity,
    convergence_certificate,
    isoclinic_guard,
    iterate_pair,
    trace_to_csv,
    trace_to_csv_string,
)
from .skew import SkewSystem, classify, detect_pinching, orbit, orbits, step

__version__ = "0.1.0"
