"""Majority voting over per-field outputs of multiple extractors."""

from __future__ import annotations

from dataclasses import dataclass, field
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
        if self.policy.priority or self.policy.tie_break is TieBreak.PRIORITY_ORDER:
            _check_priority(self.policy, self.members)


def _check_priority(policy: VotePolicy, members: Sequence[str]) -> None:
    missing = set(members) - set(policy.priority)
    if missing:
        raise ConfigError(f"priority order does not cover members: {sorted(missing)}")


def _winning_group(
    field_name: str,
    candidates: Sequence,
    policy: VotePolicy,
    members: Sequence[str] | None,
) -> list[int] | None:
    """Indices of the winning candidate group, or None when the vote abstains.

    Candidates with equal comparison keys form one group; absent candidates
    form their own, so an absence majority wins like any value. A winning
    group must reach min_agreement; among equally large maximal groups
    PRIORITY_ORDER picks the one holding the highest-priority member's
    value, ABSTAIN gives up.
    """
    if members is not None and len(members) != len(candidates):
        raise ConfigError(
            f"{len(candidates)} candidates for {len(members)} members"
        )
    groups: dict[object, list[int]] = {}
    for idx, value in enumerate(candidates):
        groups.setdefault(comparison_key(field_name, value), []).append(idx)

    best_size = max(len(indices) for indices in groups.values())
    if best_size < policy.min_agreement:
        return None
    top = [indices for indices in groups.values() if len(indices) == best_size]
    if len(top) == 1:
        return top[0]
    if policy.tie_break is TieBreak.ABSTAIN:
        return None
    if members is not None and policy.priority:
        rank = {member: i for i, member in enumerate(policy.priority)}
        return min(top, key=lambda indices: min(rank[members[i]] for i in indices))
    # No member ids to rank by: candidate position doubles as priority.
    return min(top, key=min)


def vote_field(
    field_name: str,
    candidates: Sequence,
    policy: VotePolicy,
    members: Sequence[str] | None = None,
):
    """Majority vote over one field's candidate values; None means abstain."""
    if members is not None and policy.priority:
        _check_priority(policy, members)
    group = _winning_group(field_name, candidates, policy, members)
    if group is None:
        return None
    return candidates[group[0]]


def ensemble_records(
    records: Sequence[ExtractionRecord], config: EnsembleConfig
) -> ExtractionRecord:
    """Combine one record per member into a single voted record.

    Votes run per field. The winning field's raw and normalized values are
    taken from the highest-priority member inside the winning group.
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
    if config.policy.priority:
        rank = {member: i for i, member in enumerate(config.policy.priority)}
    else:
        rank = {member: i for i, member in enumerate(config.members)}

    values = {}
    for field_name in FIELDS:
        candidates = [record.normalized_value(field_name) for record in ordered]
        group = _winning_group(field_name, candidates, config.policy, config.members)
        if group is None or candidates[group[0]] is None:
            values[f"{field_name}_raw"] = None
            values[field_name] = None
            continue
        chosen = min(group, key=lambda i: rank[config.members[i]])
        values[f"{field_name}_raw"] = ordered[chosen].raw_value(field_name)
        values[field_name] = ordered[chosen].normalized_value(field_name)

    return ExtractionRecord(
        document_id=records[0].document_id,
        extractor_id=config.ensemble_id,
        **values,
    )
