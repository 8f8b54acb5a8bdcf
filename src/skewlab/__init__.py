"""skewlab: skew products with concave interval fiber maps.

Library layout:

- ``fiber``: single-map analysis (relative gap, concavity certificates,
  one-sided derivatives, isoclinic points, contraction-ratio inequalities)
- ``nonauto``: map sequences, paired-orbit traces and their bounds
- ``bases`` / ``skew``: base spaces, the skew map, classification
- ``attractor``: graph construction (preinvariant, pullback) and verification
- ``registry`` / ``config`` / ``catalog``: closed forms, configs, examples
- ``cli``: the ``skewlab`` command

Importing the package runs none of these modules: each exported name loads
its module on first access, so a process runs only the layers it uses.
"""

import importlib

_EXPORTS = {
    "attractor": "AttractorVerdict GraphFunction build_preinvariant largest_fixed_point "
    "match_fraction positive_fraction pullback_grid pullback_phi uniqueness_probe "
    "verify_attractor verify_preinvariance",
    "bases": "CircleRotation FiniteOrbitBase OneSidedWord SymbolicShift TwoSidedWord",
    "catalog": "CATALOG coinflip_attractor_graph make_coinflip make_keller "
    "make_noinvattr make_product",
    "config": "SystemConfig build_system load_system parse_config",
    "errors": "CapabilityError ConfigError CoverageError DomainError InvariantError "
    "PreconditionError RegistryError SkewlabError",
    "fiber": "ConcavityCertificate FiberMap certify isoclinic_point kappa "
    "left_derivative_limit ratio_bound_monotone ratio_bound_nonmonotone",
    "nonauto": "MapSequence OrbitPairTrace along_orbit bound_violations "
    "convergence_certificate isoclinic_guard iterate_pair trace_to_csv",
    "skew": "ProductFamily SkewSystem SymbolTable classify declared orbits step",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{mod}"), name)
    globals()[name] = value
    return value
