"""The array model one object at a time: the reference oracle.

Production evaluates the bank -> mat -> subarray hierarchy, its row
decoders and its H-trees as arrays over every candidate at once
(:mod:`repro.array.kernels`).  This package states the same model as
one object per subarray, decoder and tree, composed per candidate by
:func:`build_organization`, and the equivalence tests hold production to
it with ``==``.  Its constants are imported from the production modules,
so the two statements cannot drift.  Nothing under ``src`` imports it.
"""

from tests.reference_array.decoder import (  # noqa: F401
    DecoderMetrics,
    WordlineLoad,
    design_decoder,
)
from tests.reference_array.htree import HTree, design_htree  # noqa: F401
from tests.reference_array.organization import (  # noqa: F401
    build_organization,
    derive_geometry,
    enumerate_orgs,
    mats_in_bank,
    prefilter_org,
    reference_area_breakdown,
)
from tests.reference_array.subarray import (  # noqa: F401
    InfeasibleSubarray,
    Subarray,
)
