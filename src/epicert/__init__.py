"""Certified local epigraph representations of sublevel sets."""

from .core import (
    NormedSpace,
    NumericConfig,
    ReferenceData,
    canonical_json,
    internal_verify_seed,
    membership_codes,
    sample_ball,
)
from .expressions import compile_expression
from .epirep import CertificationFailure, EpigraphCertificate, certify
from .catalog import load

__version__ = "0.1.0"
