"""Majority voting over per-field outputs of multiple extractors."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

from .corpus import ExtractionRecord
from .errors import ConfigError
from .normalize import FIELDS, comparison_key


class TieBreak(str, Enum):
    PRIORITY_ORDER = "PRIORITY_ORDER"
    ABSTAIN = "ABSTAIN"


@dataclass(frozen=True)
class VotePolicy:
    min_agreement: int = 2
    tie_break: TieBreak = TieBreak.PRIORITY_ORDER
    priority: tuple[str, ...] = ()

    def __post_init__(self):
        if self.min_agreement < 1:
            raise ConfigError("min_agreement must be >= 1")


@dataclass(frozen=True)
class EnsembleConfig:
    ensemble_id: str
    members: tuple[str, ...]
    policy: VotePolicy = field(default_factory=VotePolicy)

    def __post_init__(self):
        if len(self.members) < 2:
            raise ConfigError("an ensemble needs at least 2 members")
        if len(set(self.members)) != len(self.members):
            raise ConfigError("ensemble members must be distinct")
        if self.policy.min_agreement > len(self.members):
            raise ConfigError("min_agreement cannot exceed the member count")
        _ranks(self.policy, self.members)
        # An empty priority is the members' order; filled in, both fingerprint alike.
        if not self.policy.priority:
            object.__setattr__(self, "policy", replace(self.policy, priority=tuple(self.members)))


def _ranks(policy: VotePolicy, members: Sequence[str]) -> Sequence[int]:
    """Each member's place in the priority order; an empty priority is the members' own order."""
    priority = policy.priority
    if not priority:
        return range(len(members))
    if len(set(priority)) != len(priority):
        repeated = sorted({member for member in priority if priority.count(member) > 1})
        raise ConfigError(f"priority order repeats members: {repeated}")
    missing = set(members).difference(priority)
    if missing:
        raise ConfigError(f"priority order does not cover members: {sorted(missing)}")
    return [priority.index(member) for member in members]


def _winner(
    field_name: str, candidates: Sequence, policy: VotePolicy, rank: Sequence[int]
) -> int | None:
    """Index of the winning candidate, or None when the vote abstains.

    Candidates with equal comparison keys form one group; absent candidates
    form their own, so an absence majority wins like any value. The winner
    is the best-ranked candidate of the largest group, which must reach
    min_agreement; among equally large groups PRIORITY_ORDER picks the one
    whose best-ranked candidate ranks best, ABSTAIN gives up.
    """
    groups: dict[object, list[int]] = {}
    for idx, value in enumerate(candidates):
        groups.setdefault(comparison_key(field_name, value), []).append(idx)
    size = max(len(group) for group in groups.values())
    if size < policy.min_agreement:
        return None
    # The best-ranked candidate of the largest groups is the best-ranked group's best.
    top = [idx for group in groups.values() if len(group) == size for idx in group]
    if len(top) > size and policy.tie_break is TieBreak.ABSTAIN:
        return None
    return min(top, key=rank.__getitem__)


def vote_field(
    field_name: str, candidates: Sequence, policy: VotePolicy, members: Sequence[str] | None = None
):
    """Majority vote over one field's candidate values; None means abstain.

    The value returned is the one ``ensemble_records`` stores. Without
    ``members``, each candidate's position is its rank.
    """
    if members is None:
        rank = range(len(candidates))
    elif len(members) != len(candidates):
        raise ConfigError(f"{len(candidates)} candidates for {len(members)} members")
    else:
        rank = _ranks(policy, members)
    winner = _winner(field_name, candidates, policy, rank)
    return None if winner is None else candidates[winner]


def ensemble_records(
    records: Sequence[ExtractionRecord], config: EnsembleConfig
) -> ExtractionRecord:
    """Combine one record per member into a single voted record.

    Votes run per field. The winning field's raw and normalized values are
    taken from the winning candidate's member.
    """
    by_extractor = {}
    for record in records:
        if record.extractor_id in by_extractor:
            raise ConfigError(f"duplicate record for member {record.extractor_id!r}")
        by_extractor[record.extractor_id] = record
    if set(by_extractor) != set(config.members):
        raise ConfigError(
            f"expected records for {list(config.members)}, got {sorted(by_extractor)}"
        )
    doc_ids = {record.document_id for record in records}
    if len(doc_ids) != 1:
        raise ConfigError(f"records span multiple documents: {sorted(doc_ids)}")

    ordered = [by_extractor[member] for member in config.members]
    rank = _ranks(config.policy, config.members)
    values = {}
    for field_name in FIELDS:
        candidates = [record.normalized_value(field_name) for record in ordered]
        winner = _winner(field_name, candidates, config.policy, rank)
        # An absent winner leaves the field and its raw string at None.
        if winner is not None and candidates[winner] is not None:
            values[field_name] = candidates[winner]
            values[f"{field_name}_raw"] = ordered[winner].raw_value(field_name)

    return ExtractionRecord(records[0].document_id, config.ensemble_id, **values)
