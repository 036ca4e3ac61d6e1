"""Exact construction and verification of quantum mirror curve partition
functions: the Lambert curve (Hurwitz numbers), framed C3, and the framed
resolved conifold."""

__version__ = "0.1.0"

from .curves import (
    CurveCase,
    CurveKind,
    classical_curve,
    conifold,
    curve_operator,
    framed_c3,
    lambert,
    recurrence_check,
    verify_annihilation,
    z_closed,
    z_from_characters,
)
from .hurwitz import elsv_genus0, hurwitz_table, verify_cut_and_join
from .ring import LaurentPoly, RatFun, XSeries
from .symfun import (
    Specialization,
    SymFunc,
    cut_and_join,
    quantum_dimension,
    schur_to_powersums,
    specialize,
)

__all__ = [
    "CurveCase",
    "CurveKind",
    "LaurentPoly",
    "RatFun",
    "Specialization",
    "SymFunc",
    "XSeries",
    "__version__",
    "classical_curve",
    "conifold",
    "curve_operator",
    "cut_and_join",
    "elsv_genus0",
    "framed_c3",
    "hurwitz_table",
    "lambert",
    "quantum_dimension",
    "recurrence_check",
    "schur_to_powersums",
    "specialize",
    "verify_annihilation",
    "verify_cut_and_join",
    "z_closed",
    "z_from_characters",
]
