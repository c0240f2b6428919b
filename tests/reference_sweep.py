"""Reference oracles for the optimizer.

The sweep one object at a time: enumerates every candidate tuple,
pre-filters each with ``prefilter_org``, builds each survivor with
``build_organization`` (the array oracle, ``tests/reference_array``),
then applies the staged constraints and the weighted ranking to the
objects.  It shares no code with the vectorized production sweep past
the model constants and the ranking, so the production path must
reproduce its designs, counts and order exactly.

The pre-filter over the full grid: :func:`reference_survivor_arrays`
evaluates every feasibility expression on the whole flattened
(ndwl, ndbl, nspd, ndcm, ndsam) grid, the form the factored production
``survivor_arrays`` must reproduce array for array.
"""

from dataclasses import replace

import numpy as np

from repro.array.organization import (
    MAX_COLS,
    MAX_ROWS,
    MIN_COLS,
    MIN_ROWS,
    InfeasibleOrganization,
    _org_grid,
)
from repro.core.optimizer import filter_constraints, rank
from tests.reference_array import (
    InfeasibleSubarray,
    build_organization,
    enumerate_orgs,
    prefilter_org,
)


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


def reference_survivor_arrays(spec):
    """The pre-filter survivors of ``spec``'s grid as the ten aligned
    arrays ``survivor_arrays`` returns, every condition evaluated on
    the flattened full grid."""
    ndwls, ndbls, nspds, ndcms, ndsams = _org_grid(spec)
    traits = spec.cell_tech.traits
    # C-order ravel of an 'ij' meshgrid iterates the last axis fastest,
    # matching the nested loop order of enumerate_orgs.
    w, b, s, c, m = (
        g.ravel()
        for g in np.meshgrid(
            np.asarray(ndwls, dtype=np.int64),
            np.asarray(ndbls, dtype=np.int64),
            np.asarray(nspds, dtype=np.float64),
            np.asarray(ndcms, dtype=np.int64),
            np.asarray(ndsams, dtype=np.int64),
            indexing="ij",
        )
    )
    rows_f = spec.sets_per_bank / (b * s)
    cols_f = spec.output_bits * spec.assoc * s / w
    ok = (rows_f == np.floor(rows_f)) & (cols_f == np.floor(cols_f))
    rows = np.where(ok, rows_f, MIN_ROWS).astype(np.int64)
    cols = np.where(ok, cols_f, MIN_COLS).astype(np.int64)
    ok &= (rows >= MIN_ROWS) & (rows <= MAX_ROWS)
    if traits.max_bitline_cells is not None:
        ok &= rows <= traits.max_bitline_cells
    ok &= (cols >= MIN_COLS) & (cols <= MAX_COLS)
    mux = c * m
    ok &= cols % mux == 0
    out_per_sub = cols // mux
    ok &= out_per_sub > 0
    nact = -(-spec.output_bits // np.maximum(out_per_sub, 1))
    ok &= nact <= w
    if spec.assoc > 1:
        ok &= mux >= spec.assoc
    sensed_per_sub = cols // c
    sensed_bits = nact * sensed_per_sub
    if spec.page_bits is not None:
        if not traits.supports_page_mode:
            ok &= False
        else:
            ok &= sensed_bits == spec.page_bits
    idx = np.nonzero(ok)[0]
    return tuple(
        array[idx]
        for array in (w, b, s, c, m, rows, cols, nact, sensed_bits,
                      sensed_per_sub)
    )
