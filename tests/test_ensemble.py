from datetime import date

import pytest
from hypothesis import given, strategies as st

from epix.ensemble import (
    EnsembleConfig,
    ExtractionRecord,
    TieBreak,
    VotePolicy,
    _winning_group,
    ensemble_records,
    vote_field,
)
from epix.errors import ConfigError
from epix.normalize import (
    CanonicalDisease,
    CaseCount,
    CountryCode,
    normalize_country,
    normalize_disease,
    values_match,
)

MEMBERS = ("m1", "m2", "m3")
PRIORITY = VotePolicy(min_agreement=2, tie_break=TieBreak.PRIORITY_ORDER, priority=MEMBERS)
ABSTAIN = VotePolicy(min_agreement=2, tie_break=TieBreak.ABSTAIN)


def _disease(name):
    return CanonicalDisease(name, name)


def record(member, doc="d1", disease=None, country=None, date_value=None, count=None):
    return ExtractionRecord(
        document_id=doc,
        extractor_id=member,
        disease=_disease(disease) if disease else None,
        disease_raw=disease,
        country=CountryCode(country, country) if country else None,
        country_raw=country,
        date=date_value,
        date_raw=date_value.isoformat() if date_value else None,
        count=CaseCount(count) if count is not None else None,
        count_raw=str(count) if count is not None else None,
    )


# --- vote_field ---------------------------------------------------------------


def test_strict_majority():
    assert vote_field("disease", [_disease("ebola"), _disease("ebola"), None], PRIORITY, MEMBERS) == _disease("ebola")


def test_absence_majority():
    assert vote_field("disease", [None, None, _disease("zika")], PRIORITY, MEMBERS) is None


def test_priority_breaks_full_disagreement():
    one_of_three = VotePolicy(min_agreement=1, tie_break=TieBreak.PRIORITY_ORDER, priority=MEMBERS)
    winner = vote_field(
        "disease", [_disease("ebola"), _disease("zika"), None], one_of_three, MEMBERS
    )
    assert winner == _disease("ebola")


def test_abstain_on_tie():
    one_of_three = VotePolicy(min_agreement=1, tie_break=TieBreak.ABSTAIN)
    assert vote_field("disease", [_disease("ebola"), _disease("zika"), None], one_of_three) is None


def test_vote_equates_surface_variants():
    # normalized values that differ as objects but match by canonical id
    a = CanonicalDisease("ebola-virus-disease", "Ebola virus disease")
    b = CanonicalDisease("ebola-virus-disease", "EVD")
    assert vote_field("disease", [a, b, None], PRIORITY, MEMBERS) == a


def test_vote_length_mismatch():
    with pytest.raises(ConfigError):
        vote_field("disease", [None, None], PRIORITY, MEMBERS)


def test_below_min_agreement_abstains():
    assert vote_field("disease", [_disease("a"), _disease("b"), _disease("c")], PRIORITY, MEMBERS) is None


def _pairwise_winning_group(field_name, candidates, policy, members):
    """The earlier _winning_group: each candidate joins the first group whose
    first value values_match accepts, else starts a group."""
    groups = []
    for idx, value in enumerate(candidates):
        for representative, indices in groups:
            if values_match(field_name, value, representative):
                indices.append(idx)
                break
        else:
            groups.append((value, [idx]))

    best_size = max(len(indices) for _, indices in groups)
    if best_size < policy.min_agreement:
        return None
    top = [indices for _, indices in groups if len(indices) == best_size]
    if len(top) == 1:
        return top[0]
    if policy.tie_break is TieBreak.ABSTAIN:
        return None
    if members is not None and policy.priority:
        rank = {member: i for i, member in enumerate(policy.priority)}
        return min(top, key=lambda indices: min(rank[members[i]] for i in indices))
    return min(top, key=min)


# Per field: normalized values, raw strings that resolve to them or to nothing
# (in several spellings and cases), and absence.
_CANDIDATES = {
    "disease": [
        None, normalize_disease("Ebola"), normalize_disease("Cholera"),
        CanonicalDisease("ebola-virus-disease", "EVD"),
        "EVD", "ebola virus disease", "Cholera", "unknown bug", "UNKNOWN BUG",
    ],
    "country": [
        None, normalize_country("India"), normalize_country("Uganda"),
        "IND", "india", "Uganda", "Atlantis", "atlantis",
    ],
    "date": [
        None, date(2019, 6, 11), date(2018, 5, 31),
        "2019-06-11", "11 June 2019", "June 11", "june 11", "someday",
    ],
    "count": [
        None, CaseCount(15), CaseCount(15, approximate=True), CaseCount(200), 15,
        "15", "fifteen cases", "about 15 deaths", "many", "MANY",
    ],
}


@given(st.data())
def test_grouping_by_key_matches_pairwise_grouping(data):
    field_name = data.draw(st.sampled_from(sorted(_CANDIDATES)))
    candidates = data.draw(
        st.lists(st.sampled_from(_CANDIDATES[field_name]), min_size=1, max_size=7)
    )
    members = tuple(f"m{i}" for i in range(len(candidates)))
    priority = tuple(data.draw(st.permutations(members))) if data.draw(st.booleans()) else ()
    policy = VotePolicy(
        min_agreement=data.draw(st.integers(1, len(candidates))),
        tie_break=data.draw(st.sampled_from(list(TieBreak))),
        priority=priority,
    )
    args = (field_name, candidates, policy, data.draw(st.sampled_from([members, None])))
    assert _winning_group(*args) == _pairwise_winning_group(*args)


# --- config validation -----------------------------------------------------------


def test_config_needs_two_distinct_members():
    with pytest.raises(ConfigError):
        EnsembleConfig("e", ("m1",), PRIORITY)
    with pytest.raises(ConfigError):
        EnsembleConfig("e", ("m1", "m1"), PRIORITY)


def test_config_min_agreement_bounds():
    with pytest.raises(ConfigError):
        EnsembleConfig("e", ("m1", "m2"), VotePolicy(min_agreement=3, priority=("m1", "m2")))
    with pytest.raises(ConfigError):
        VotePolicy(min_agreement=0)


def test_priority_must_cover_members():
    with pytest.raises(ConfigError, match="cover"):
        EnsembleConfig("e", MEMBERS, VotePolicy(priority=("m1", "m2")))


def test_partial_priority_is_rejected_whatever_the_tie_break():
    partial = VotePolicy(1, TieBreak.ABSTAIN, ("a",))
    with pytest.raises(ConfigError, match=r"cover members: \['b'\]"):
        EnsembleConfig("e", ("a", "b"), partial)
    for tie_break in TieBreak:
        policy = VotePolicy(1, tie_break, ("a",))
        with pytest.raises(ConfigError, match=r"cover members: \['b'\]"):
            vote_field("disease", [_disease("Ebola"), _disease("Cholera")], policy, ["a", "b"])


# --- ensemble_records ---------------------------------------------------------------


CONFIG = EnsembleConfig("open-ensemble", MEMBERS, PRIORITY)


def test_unanimous_records_pass_through():
    records = [record(m, disease="ebola", country="COD", date_value=date(2019, 6, 12), count=24) for m in MEMBERS]
    voted = ensemble_records(records, CONFIG)
    assert voted.extractor_id == "open-ensemble"
    assert voted.disease == _disease("ebola")
    assert voted.country.alpha3 == "COD"
    assert voted.date == date(2019, 6, 12)
    assert voted.count.value == 24


def test_single_field_disagreement():
    records = [
        record("m1", disease="ebola", date_value=date(2018, 5, 31)),
        record("m2", disease="ebola", date_value=date(2018, 5, 31)),
        record("m3", disease="ebola", date_value=date(2018, 6, 1)),
    ]
    voted = ensemble_records(records, CONFIG)
    assert voted.date == date(2018, 5, 31)
    assert voted.disease == _disease("ebola")


def test_full_disagreement_abstains():
    config = EnsembleConfig("e", MEMBERS, VotePolicy(min_agreement=2, tie_break=TieBreak.ABSTAIN))
    records = [
        record("m1", disease="ebola"),
        record("m2", disease="zika"),
        record("m3", disease="lassa"),
    ]
    assert ensemble_records(records, config).disease is None


def test_winner_raw_comes_from_highest_priority_member():
    a = ExtractionRecord(
        document_id="d1", extractor_id="m1",
        disease=CanonicalDisease("x", "X"), disease_raw="X fever",
    )
    b = ExtractionRecord(
        document_id="d1", extractor_id="m2",
        disease=CanonicalDisease("x", "X"), disease_raw="XF",
    )
    c = ExtractionRecord(document_id="d1", extractor_id="m3")
    # m2 outranks m1 in this priority order
    config = EnsembleConfig(
        "e", MEMBERS, VotePolicy(min_agreement=2, tie_break=TieBreak.PRIORITY_ORDER,
                                 priority=("m2", "m1", "m3"))
    )
    voted = ensemble_records([a, b, c], config)
    assert voted.disease_raw == "XF"


def test_missing_member_record_rejected():
    records = [record("m1"), record("m2")]
    with pytest.raises(ConfigError):
        ensemble_records(records, CONFIG)


def test_mixed_documents_rejected():
    records = [record("m1"), record("m2"), record("m3", doc="other")]
    with pytest.raises(ConfigError):
        ensemble_records(records, CONFIG)


def test_record_requires_extractor_id():
    with pytest.raises(ValueError):
        ExtractionRecord(document_id="d", extractor_id="")


def test_record_json_roundtrip():
    rec = record("m1", disease="ebola", country="COD", date_value=date(2020, 2, 2), count=7)
    assert ExtractionRecord.from_json(rec.to_json()) == rec
    bare = ExtractionRecord(document_id="d", extractor_id="x", parse_failure=True)
    assert ExtractionRecord.from_json(bare.to_json()) == bare
    # raw retained even when normalization failed
    warned = ExtractionRecord(document_id="d", extractor_id="x", disease_raw="mystery illness")
    assert warned.field_warnings == ("disease",)
    assert ExtractionRecord.from_json(warned.to_json()) == warned
