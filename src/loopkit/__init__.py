"""Finite loops from Cayley tables: identities, loop-ring oracles, surveys.

The package decides the named loop identities (right Bol, Moufang,
alternative laws, inverse properties, extra, ...) and the pointwise
quadruple/triple conditions characterizing loops whose GF(2) loop rings
are right Bol (SRAR) or alternative (RA2), and cross-checks those
characterizations against independent GF(2) loop-ring oracles and
exhaustive enumeration of all small loops.
"""

from .core import (
    ENUMERATION_CAP,
    LoopError,
    LoopTable,
    Malformed,
    NoIdentity,
    NotLatin,
    Nucleus,
    OrderExceedsCap,
    OrderTooLarge,
    TheoremViolation,
    Witness,
    enumerate_loops,
    normalized,
    nuclei,
    second_row_candidates,
    validate_table,
)
from .identities import (
    IdentityId,
    check_identity,
    holds,
    is_extra,
    is_moufang,
    squares_in_nucleus,
)
from .conditions import (
    ImplicationCheck,
    MainTheoremReport,
    NotBol,
    NotSrar,
    QuadProfile,
    QuadValues,
    TripleCoverage,
    TripleProfile,
    abc_conditions,
    cor_odd_verify,
    is_ra2,
    is_srar,
    lemma_allthree,
    lemma_key_mfg,
    lemma_lip_equiv,
    quad_conditions,
    quad_profile,
    quad_values,
    thm_main_verify,
    triple_conditions,
    triple_coverage,
    triple_profile,
)
from .gf2ring import (
    Gf2Elem,
    LengthMismatch,
    RingIdentityId,
    RingWitness,
    basis,
    low_weight_ring_check,
    oracle_equiv_ra2,
    oracle_equiv_srar,
    product_table,
    ring_identity_check,
    ring_one,
    rmul,
    zero,
)
from .catalog import (
    CatalogError,
    CatalogRecord,
    ClassificationRow,
    DuplicateName,
    ParseError,
    SurveyReport,
    UnsupportedFormat,
    ValidationError,
    classify_loop,
    classify_records,
    emit_catalog,
    emit_record,
    parse_catalog,
    survey,
    write_report,
)
from .sweeps import CHECKS, SweepCell, SweepResult, SweepSpec, render_sweep, run_sweep, sweep_plan
from . import fixtures

__all__ = [name for name in dir() if not name.startswith("_")]
