"""Recursive relational algebra (µ-RA style) — the paper's RRA substrate.

The translator (:mod:`repro.ra.translate`) compiles UCQT queries into RA
terms including the paper's Table 2 rules for conjunction and branching;
:mod:`repro.ra.evaluate` hands them to the one physical layer that runs
them (:mod:`repro.exec`: columnar operators, semi-naive fixpoint
iteration); and the optimizer (:mod:`repro.ra.optimizer`) applies
µ-RA-flavoured rewritings. What a term costs, and its Fig. 17 plan tree,
come from :mod:`repro.planner.cost`.
"""

from repro.ra.evaluate import evaluate_term
from repro.ra.optimizer import optimize_term
from repro.ra.terms import Fix, Join, Project, RaTerm, Rel, Rename, RaUnion, Var
from repro.ra.translate import cqt_to_ra, path_to_ra, ucqt_to_ra

__all__ = [
    "RaTerm",
    "Rel",
    "Var",
    "Project",
    "Rename",
    "Join",
    "RaUnion",
    "Fix",
    "path_to_ra",
    "cqt_to_ra",
    "ucqt_to_ra",
    "evaluate_term",
    "optimize_term",
]
