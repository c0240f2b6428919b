"""Reference oracle for the optimizer: the sweep one object at a time.

Enumerates every candidate tuple, pre-filters each with
``prefilter_org``, builds each survivor with an uncached
``build_organization``, then applies the staged constraints and the
weighted ranking to the objects.  It shares no code with the vectorized
production sweep past the per-candidate model itself, so the production
path must reproduce its designs, counts and order exactly.
"""

from dataclasses import replace

from repro.array.organization import (
    InfeasibleOrganization,
    InfeasibleSubarray,
    build_organization,
    enumerate_orgs,
    prefilter_org,
)
from repro.core.optimizer import filter_constraints, rank


def reference_candidates(spec):
    """``(OrgParams, OrgGeometry)`` for every pre-filter survivor."""
    survivors = []
    for org in enumerate_orgs(spec):
        geometry = prefilter_org(spec, org)
        if geometry is not None:
            survivors.append((org, geometry))
    return survivors


def reference_feasible(tech, spec):
    """Every buildable design, in enumeration order (no caches)."""
    designs = []
    for org, geometry in reference_candidates(spec):
        try:
            designs.append(
                build_organization(tech, spec, org, geometry=geometry)
            )
        except (InfeasibleOrganization, InfeasibleSubarray):
            continue
    return designs


def reference_ranked(tech, spec, target):
    """The constrained, ranked design list ``pareto_solutions`` returns."""
    spec = replace(
        spec, max_repeater_delay_penalty=target.max_repeater_delay_penalty
    )
    designs = reference_feasible(tech, spec)
    return rank(filter_constraints(designs, target), target)
