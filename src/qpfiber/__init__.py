"""Braided Seifert surfaces, torus-link fiber models, combed-graph calculus,
and quasipositive band representations, with exact link-invariant oracles."""

from .braidcore import (
    BandRepresentation,
    BraidWord,
    EmbeddedBand,
    beta,
    expand_band,
    exponent_sum,
    is_quasipositive,
    permutation,
    permutation_cycles,
    reduced_beta,
)
from .constructions import (
    CoarseDecomposition,
    expand_bands,
    nabla,
    pad_into_nabla,
    q_rep,
    verify_fiber,
)
from .graphcalc import (
    ArcEnd,
    Comb,
    CombedGraph,
    FreeEnd,
    IsolatedPoint,
    Site,
    cycle_words,
    is_full,
    neighborhood_summary,
    reduce,
    reduce_with_trace,
    validate,
    whitehead_step,
)
from .invariants import (
    LaurentPolynomial,
    alexander_from_braid,
    alexander_from_seifert,
    reduced_burau,
    seifert_matrix,
)
from .qpize import QuasipositizationResult, quasipositize, quasipositize_handle_subsurface
from .surface import BraidedSurface, SurfaceSummary, euler_characteristic, handle_spine, summary

__version__ = "0.1.0"
