"""The 30 LDBC-SNB queries of the paper's Table 4.

Path expressions are transcribed verbatim from Table 4 with the label
abbreviations expanded to this repository's LDBC schema labels::

    isL   = isLocatedIn      hasT  = hasTag        isP    = isPartOf
    isSubC= isSubclassOf     hasI  = hasInterest   hasTY  = hasType
    cof   = containerOf      hasMod= hasModerator  hasC   = hasCreator
    hasM  = hasMember

``∪`` is written ``|``, ``∩`` is ``&``, and ``knows1..3`` is the bounded
repetition sugar. Query types (NQ/RQ) follow the table: 12 non-recursive,
18 recursive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.query.model import UCQT
from repro.query.parser import parse_query


@dataclass(frozen=True)
class WorkloadQuery:
    """One benchmark query: identity, UCQT text, and classification."""

    qid: str
    text: str
    recursive: bool
    source: str  # 'ldbc-interactive' | 'ldbc-bi' | 'lsqb' | 'proposed'

    @property
    def query(self) -> UCQT:
        return _parse(self.text)


@lru_cache(maxsize=None)
def _parse(text: str) -> UCQT:
    return parse_query(text)


def _q(qid: str, expr: str, recursive: bool, source: str) -> WorkloadQuery:
    return WorkloadQuery(
        qid, f"x1, x2 <- (x1, {expr}, x2)", recursive, source
    )


LDBC_QUERIES: tuple[WorkloadQuery, ...] = (
    _q("IC1", "knows1..3/(isLocatedIn | (workAt | studyAt)/isLocatedIn)", False, "ldbc-interactive"),
    _q("IC2", "knows/-hasCreator", False, "ldbc-interactive"),
    _q("IC6", "knows1..2/(-hasCreator[hasTag])[hasTag]", False, "ldbc-interactive"),
    _q("IC7", "(-hasCreator/-likes) | ((-hasCreator/-likes) & knows)", False, "ldbc-interactive"),
    _q("IC8", "-hasCreator/-replyOf/hasCreator", False, "ldbc-interactive"),
    _q("IC9", "knows1..2/-hasCreator", False, "ldbc-interactive"),
    _q("IC11", "knows1..2/workAt/isLocatedIn", False, "ldbc-interactive"),
    _q("IC12", "knows/-hasCreator/replyOf/hasTag/hasType/isSubclassOf+", True, "ldbc-interactive"),
    _q("IC13", "knows+", True, "ldbc-interactive"),
    _q("IC14", "(knows & (-hasCreator/replyOf/hasCreator))+", True, "ldbc-interactive"),
    _q("Y1", "knows+/studyAt/isLocatedIn+/isPartOf+", True, "proposed"),
    _q("Y2", "likes/hasCreator/knows+/isLocatedIn+", True, "proposed"),
    _q("Y3", "likes/replyOf+/isLocatedIn+/isPartOf+", True, "proposed"),
    _q("Y4", "hasMember/(studyAt | workAt)/isLocatedIn+/isPartOf+", True, "proposed"),
    _q("Y5", "-hasMember/([containerOf]hasTag)/hasType/isSubclassOf+", True, "proposed"),
    _q("Y6", "replyOf+/isLocatedIn+/isPartOf+", True, "proposed"),
    _q("Y7", "hasModerator/hasInterest/hasType/isSubclassOf+", True, "proposed"),
    _q("Y8", "([containerOf/hasCreator]hasMember)/isLocatedIn/isPartOf+", True, "proposed"),
    _q("IS2", "-hasCreator/replyOf+/hasCreator", True, "ldbc-interactive"),
    _q("IS6", "replyOf+/-containerOf/hasMember", True, "ldbc-interactive"),
    _q("IS7", "(-hasCreator/replyOf/hasCreator) | ((-hasCreator/replyOf/hasCreator) & knows)", False, "ldbc-interactive"),
    _q("BI11", "(([isLocatedIn/isPartOf]knows)[isLocatedIn/isPartOf]) & (knows/([isLocatedIn/isPartOf]knows))", False, "ldbc-bi"),
    _q("BI10", "(knows+[isLocatedIn/isPartOf])/(-hasCreator[hasTag])/hasTag/hasType", True, "ldbc-bi"),
    _q("BI3", "-isPartOf/-isLocatedIn/-hasModerator/containerOf/-replyOf+/hasTag/hasType", True, "ldbc-bi"),
    _q("BI9", "replyOf+/hasCreator", True, "ldbc-bi"),
    _q("BI20", "(knows & (studyAt/-studyAt))+", True, "ldbc-bi"),
    _q("LSQB1", "-isPartOf/-isLocatedIn/-hasMember/containerOf/-replyOf+/hasTag/hasType", True, "lsqb"),
    _q("LSQB4", "((likes[hasTag])[-replyOf])/hasCreator", False, "lsqb"),
    _q("LSQB5", "-hasTag/-replyOf/hasTag", False, "lsqb"),
    _q("LSQB6", "knows/knows/hasInterest", False, "lsqb"),
)


def ldbc_queries() -> list[WorkloadQuery]:
    """The Table 4 workload (fresh list; queries themselves are shared)."""
    return list(LDBC_QUERIES)


def recursive_queries() -> list[WorkloadQuery]:
    return [q for q in LDBC_QUERIES if q.recursive]


def non_recursive_queries() -> list[WorkloadQuery]:
    return [q for q in LDBC_QUERIES if not q.recursive]
