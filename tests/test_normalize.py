import json
import re
import sys
from datetime import date

import pytest
from hypothesis import given, strategies as st

from epix.cli import main
from epix.normalize import (
    CanonicalDisease,
    CaseCount,
    CountAttribute,
    CountryCode,
    FIELDS,
    country_table,
    normalize_country,
    normalize_date,
    normalize_disease,
    parse_count_expression,
    values_match,
)


# --- dates -----------------------------------------------------------------


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("31 May 2018", date(2018, 5, 31)),
        ("May 19-21, 2018", date(2018, 5, 19)),
        ("19-21 May 2018", date(2018, 5, 19)),
        ("2018-05-31", date(2018, 5, 31)),
        ("15/06/2019", date(2019, 6, 15)),
        ("May 31, 2018", date(2018, 5, 31)),
        ("1st March 2020", date(2020, 3, 1)),
        ("  4 February 2017 ", date(2017, 2, 4)),
        ("next Tuesday", None),
        ("", None),
        ("May 2018", None),
        ("2018-02-30", None),
        ("31/31/2020", None),
    ],
)
def test_normalize_date(raw, expected):
    assert normalize_date(raw) == expected


def test_month_day_needs_anchor_year():
    assert normalize_date("May 31") is None
    assert normalize_date("May 31", default_year=2020) == date(2020, 5, 31)
    # 29 February only exists in leap years
    assert normalize_date("February 29", default_year=2019) is None
    assert normalize_date("February 29", default_year=2020) == date(2020, 2, 29)


@given(st.dates())
def test_date_roundtrip_through_string_form(d):
    assert normalize_date(d.isoformat()) == d


# --- countries ---------------------------------------------------------------


def test_country_lookups():
    assert normalize_country("India") == CountryCode("IND", "India")
    usa = normalize_country("usa")
    assert usa.alpha3 == "USA"
    assert usa.display_name == "United States of America"
    assert normalize_country("Atlantis") is None
    assert normalize_country("DRC").alpha3 == "COD"
    assert normalize_country("Cote d'Ivoire").alpha3 == "CIV"
    assert normalize_country("CÔTE D'IVOIRE").alpha3 == "CIV"
    assert normalize_country("viet nam").alpha3 == "VNM"
    assert normalize_country("") is None


def test_country_table_covers_iso_range():
    assert len(country_table()) == 249
    assert country_table().for_code("gbr").display_name == "United Kingdom"
    assert country_table().for_code("XXX") is None


# --- diseases ----------------------------------------------------------------


def test_disease_lookups(gazetteer):
    nipah = normalize_disease("NIPAH Virus", gazetteer)
    assert nipah == CanonicalDisease("nipah-virus", "Nipah virus")
    evd = normalize_disease("EVD", gazetteer)
    assert evd.display_name == "Ebola virus disease"
    assert normalize_disease("common cold", gazetteer) is None
    # punctuation folding
    assert normalize_disease("ebola - virus - disease", gazetteer) == evd
    # country names are not diseases
    assert normalize_disease("India", gazetteer) is None


# --- counts --------------------------------------------------------------------


@pytest.mark.parametrize(
    "raw,value,approx,attribute",
    [
        ("about 15 cases", 15, True, CountAttribute.CASE),
        ("thirteen deaths", 13, False, CountAttribute.DEATH),
        ("more than 200 infections", 200, True, CountAttribute.CASE),
        ("15", 15, False, CountAttribute.UNKNOWN),
        ("two hundred and six cases", 206, False, CountAttribute.CASE),
        ("ninety-nine fatalities", 99, False, CountAttribute.DEATH),
        ("1,234 confirmed cases", 1234, False, CountAttribute.CASE),
        ("twenty", 20, False, CountAttribute.UNKNOWN),
        ("roughly 40 people were admitted", 40, True, CountAttribute.UNKNOWN),
    ],
)
def test_parse_count_expression(raw, value, approx, attribute):
    count = parse_count_expression(raw)
    assert count == CaseCount(value, approx, attribute)


def test_parse_count_absent():
    assert parse_count_expression("no numbers here") is None
    assert parse_count_expression("") is None


def test_numeral_too_long_to_convert_is_no_count():
    limit = sys.get_int_max_str_digits()
    assert parse_count_expression("9" * limit + " cases").value == int("9" * limit)
    assert parse_count_expression("9" * (limit + 1) + " cases") is None
    assert parse_count_expression("9" * 5000) is None


def test_case_count_rejects_negative():
    with pytest.raises(ValueError):
        CaseCount(-1)


@given(st.text(max_size=80))
def test_parse_count_never_negative(raw):
    count = parse_count_expression(raw)
    assert count is None or count.value >= 0


# --- letters that re.IGNORECASE folds to ASCII --------------------------------

# Every code point above 0x7F that the patterns' case-insensitive matching
# takes for an ASCII letter, paired with that letter.
_CASE_FOLD_LETTERS = [
    (c, ascii_letter)
    for c in map(chr, range(0x80, 0x110000))
    if re.fullmatch("[a-z]", c, re.IGNORECASE)
    for ascii_letter in "abcdefghijklmnopqrstuvwxyz"
    if re.fullmatch(ascii_letter, c, re.IGNORECASE)
]
_NUMBER_WORDS = {
    word: value
    for value, word in enumerate(
        "one two three four five six seven eight nine ten eleven twelve thirteen fourteen "
        "fifteen sixteen seventeen eighteen nineteen".split(),
        start=1,
    )
} | {word: 10 * tens for tens, word in enumerate(
    "twenty thirty forty fifty sixty seventy eighty ninety".split(), start=2
)}
_MONTH_NAMES = (
    "january february march april may june july august september october november december"
).split()


def _respellings(words, letter, ascii_letter):
    return [(word, word.replace(ascii_letter, letter)) for word in words if ascii_letter in word]


def test_case_fold_letters_parse_as_their_ascii_letter():
    checked = 0
    for letter, ascii_letter in _CASE_FOLD_LETTERS:
        for word, spelled in _respellings(_NUMBER_WORDS, letter, ascii_letter):
            value = _NUMBER_WORDS[word]
            assert parse_count_expression(f"{spelled} cases") == CaseCount(
                value, False, CountAttribute.CASE
            ), spelled
            assert parse_count_expression(spelled) == CaseCount(value), spelled
            checked += 1
        for word, spelled in _respellings(_MONTH_NAMES, letter, ascii_letter):
            month = _MONTH_NAMES.index(word) + 1
            assert normalize_date(f"{spelled} 3, 2019") == date(2019, month, 3), spelled
            assert normalize_date(f"3 {spelled[:3]} 2019") == date(2019, month, 3), spelled
            checked += 1
    # The long s, dotless i and dotted capital I spell number words and months.
    assert len(_CASE_FOLD_LETTERS) >= 3 and checked >= 20


def _extract_one_post(tmp_path, text):
    """The rule-based record of one ingested post."""
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "post.txt").write_text(text, encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    assert main(["ingest", "--source", "promed", str(raw), "--out", str(corpus)]) == 0
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "corpus": str(corpus),
        "output_dir": str(tmp_path / "out"),
        "extractors": [{"id": "rule", "kind": "rule_based"}],
    }), encoding="utf-8")
    assert main(["--config", str(config), "extract"]) == 0
    [record] = (tmp_path / "out" / "predictions" / "rule.jsonl").read_text().splitlines()
    return json.loads(record)


def test_rule_based_extract_reads_case_fold_letters(tmp_path):
    record = _extract_one_post(
        tmp_path,
        "Subject: PRO/EDR> Ebola - Guinea\n\nGuinea reported ſix cases of Ebola on ſep 3, 2019.\n",
    )
    assert record["count"]["value"] == 6
    assert record["date"]["iso"] == "2019-09-03"


def test_rule_based_extract_skips_a_numeral_too_long_to_convert(tmp_path):
    record = _extract_one_post(
        tmp_path,
        "Subject: PRO/EDR> Ebola - Guinea\n\n"
        f"Guinea reported {'9' * 5000} cases of Ebola and 12 deaths.\n",
    )
    assert record["count"]["value"] == 12


# --- values_match -----------------------------------------------------------------


def test_values_match_examples(gazetteer):
    assert values_match("disease", "EVD", "Ebola virus disease", gazetteer)
    assert not values_match("date", date(2018, 5, 31), date(2018, 5, 19))
    assert values_match(
        "count",
        CaseCount(15, approximate=True, attribute=CountAttribute.CASE),
        CaseCount(15, approximate=False, attribute=CountAttribute.DEATH),
    )
    assert values_match("country", "UK", CountryCode("GBR", "United Kingdom"))
    assert values_match("count", "15", 15)
    assert values_match("date", "31 May 2018", date(2018, 5, 31))
    # unresolvable strings fall back to folded text equality
    assert values_match("disease", "common cold", "Common Cold!")
    assert not values_match("disease", "common cold", "rare cold")


def test_values_match_absents():
    assert values_match("disease", None, None)
    assert not values_match("disease", None, "EVD")
    with pytest.raises(ValueError):
        values_match("sentiment", "a", "b")


def _field_values(field):
    if field == "disease":
        return st.one_of(
            st.sampled_from(["EVD", "Ebola", "Zika", "Nipah virus", "common cold"]),
            st.builds(CanonicalDisease, st.text(min_size=1, max_size=8), st.text(max_size=8)),
        )
    if field == "country":
        return st.one_of(
            st.sampled_from(["India", "USA", "Atlantis", "France"]),
            st.builds(
                CountryCode,
                st.text(alphabet="ABCDEFGH", min_size=3, max_size=3),
                st.text(max_size=8),
            ),
        )
    if field == "date":
        return st.one_of(st.dates(), st.sampled_from(["2018-05-31", "not a date"]))
    return st.one_of(
        st.integers(min_value=0, max_value=10_000),
        st.builds(
            CaseCount,
            st.integers(min_value=0, max_value=10_000),
            st.booleans(),
            st.sampled_from(list(CountAttribute)),
        ),
        st.sampled_from(["15", "about 20 cases", "gibberish"]),
    )


@given(st.data())
def test_values_match_reflexive_and_symmetric(data):
    field = data.draw(st.sampled_from(FIELDS))
    a = data.draw(_field_values(field))
    b = data.draw(_field_values(field))
    assert values_match(field, a, a)
    assert values_match(field, a, b) == values_match(field, b, a)
