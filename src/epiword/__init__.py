"""Generators and deciders for Sturmian, episturmian, skew and episkew words."""

from .words import (
    MAX_ALPHABET,
    EpiwordError,
    InconclusiveError,
    InputError,
    InsufficientDirectiveError,
    Order,
    all_orders,
    alph,
    factor_complexity,
    factors,
    lex_le,
    max_factor,
    max_of,
    min_factor,
    min_of,
    reversal,
    validate_word,
)
from .generate import (
    DirectiveSpec,
    EpiskewSpec,
    EventuallyPeriodicSpec,
    MechanicalSpec,
    apply_morphism,
    pal_closure,
    psi,
    psi_inverse,
    standard_prefix,
)
from .classify import (
    Certificate,
    RejectReason,
    SturmianResult,
    Verdict,
    WideSenseResult,
    check_fine_prefix,
    check_min_inequality,
    check_witness,
    is_balanced,
    is_finite_episturmian,
    separating_letters,
    sturmian_test,
    wide_sense_check,
)
from .oracles import (
    SweepReport,
    discovery_table,
    oracle_is_finite_episturmian,
    sweep,
)

__version__ = "0.1.0"
