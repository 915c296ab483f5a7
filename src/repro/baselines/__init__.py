"""Comparison baselines: a SIS-like ISOP-and-map flow and a BDS-like
structural BDD decomposition (the two comparators in Tables 2 and 3)."""

from repro.baselines.sis_like import BaselineResult, sis_like_synthesize
from repro.baselines.bds_like import bds_like_synthesize

__all__ = ["BaselineResult", "sis_like_synthesize", "bds_like_synthesize"]
