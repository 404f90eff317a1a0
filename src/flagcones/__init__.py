"""Exact cones and Seshadri constants of flag bundles over a curve.

Given the Harder-Narasimhan data of a non-semistable vector bundle on a
smooth projective curve and a choice of quotient ranks from the
filtration profile, this package models the associated flag bundle:
generators of its nef cone and its cone of curves, the duality pairing
between them, and the Seshadri constants of nef divisor classes (exact
global value, two-sided bounds, value at the distinguished section, and
the very-general-point value when the divisibility condition decides
it).  All arithmetic is exact rational.
"""

from .bundles import (
    DEFAULT_ORACLE_CAP,
    CurveInfo,
    SplitBundle,
    hn_brute_force_oracle,
    hn_filtration,
    split_steps,
    validate_hn,
)
from .config import ProblemConfig, parse_config, parse_rational
from .errors import (
    BasisMismatch,
    CapExceeded,
    DivisibilityNotSatisfied,
    FlagconesError,
    InputError,
    InternalCheckFailure,
    NonDecreasingSlope,
    NonIncreasingRank,
    NotNef,
    NotStrictlyDecreasing,
    ParseError,
    PreconditionError,
    RankNotInHNProfile,
    SemistableBundle,
    ValidationError,
    ZeroMultiplicity,
)
from .flags import (
    Basis,
    CurveClass,
    DivisorClass,
    FlagModel,
    Positivity,
    build_model,
    classify_divisor,
    convert_basis,
    curve_generators,
    nef_generators,
    pairing,
    pairing_matrix,
    quotient_ranks,
    quotient_slopes,
    to_nef,
)
from .report import (
    ReportDocument,
    parse_machine,
    render_human,
    render_machine,
    run,
    run_cones,
    run_hn,
)
from .seshadri import (
    DivisibilityStatus,
    SeshadriReport,
    Witness,
    check_divisibility,
    degree_gaps,
    full_report,
    seshadri_bounds,
    seshadri_ratio,
)

__version__ = "0.1.0"

_GALLERY_NAMES = ("Digest", "Fixture", "builtin_examples", "check_fixture", "digest_of")


def __getattr__(name):
    """The gallery names, imported on first use (PEP 562): a report run, and
    so every CLI call but ``examples``, needs no fixtures."""
    if name in _GALLERY_NAMES:
        from . import gallery

        return getattr(gallery, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
