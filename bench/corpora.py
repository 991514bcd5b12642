"""Seeded input generators for the benchmark workloads.

Every input is made from ``--seed`` alone, so one seed always gives the same
files. Two kinds of corpus are built:

- long rule-based posts: several-KB PROMED posts and DON articles, dense in
  disease, country, date and count mentions, with the gold facts planted by
  a known frequency majority over distractors;
- k-copy corpora: disjoint copies of the 10-document end-to-end fixture
  (``tests/fixtures/e2e``), each with its own fact-free filler so that every
  model request has its own cache digest. A fixed share of the copies carry
  enough filler to exceed a 4,096-token context window.

The generators know the gold of each document from how it was made; the
benchmark's correctness checks compare the program's outputs against it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
E2E_RAW = FIXTURES / "e2e" / "raw"
E2E_GOLD = FIXTURES / "e2e" / "gold.jsonl"
E2E_CANNED = FIXTURES / "e2e" / "canned_responses.json"

# One copy in LONG_EVERY is long: its filler pushes the body past the
# prompt budget of a 4,096-token model, so the prompt is truncated.
LONG_EVERY = 8
SHORT_FILLER_CHARS = (300, 1500)
LONG_FILLER_CHARS = (15000, 18000)
RULES_FILLER_CHARS = (2000, 5000)

# Words that name no disease, country, month, number or count keyword, so
# filler never adds a mention any annotator could pick up.
FILLER_WORDS = (
    "officials teams district response coordination logistics supplies "
    "community engagement laboratory samples testing surveillance partners "
    "clinics vaccination campaign health workers training sessions water "
    "sanitation hygiene messages radio schools markets villages roads access "
    "weather rainfall shipment reagents staff shifts volunteers households "
    "visits contacts tracing isolation wards beds capacity remains stable "
    "improved limited ongoing continued planned reviewed expanded local "
    "regional national mobile rapid risk assessment moderate low high "
    "the and of in with for across during after before through while "
    "several many some all were was has have been are is on by to from "
    "guidance protocols referral transport fuel generators storage cold "
    "chain registers forms reporting meetings briefings leaders elders "
    "youth groups families caregivers nurses doctors technicians drivers"
).split()

# (display name, canonical id, surfaces used in running text)
DISEASES = (
    ("Nipah virus", "nipah-virus", ("Nipah virus", "Nipah", "NiV")),
    ("Ebola virus disease", "ebola-virus-disease", ("Ebola virus disease", "Ebola", "EVD")),
    ("Cholera", "cholera", ("Cholera", "cholera")),
    ("Measles", "measles", ("Measles", "measles")),
    ("Zika virus", "zika-virus", ("Zika virus", "Zika", "ZIKV")),
    ("Lassa fever", "lassa-fever", ("Lassa fever", "Lassa")),
    ("Yellow fever", "yellow-fever", ("Yellow fever", "yellow fever")),
    ("Dengue fever", "dengue", ("Dengue fever", "Dengue", "DENV")),
    ("Marburg virus disease", "marburg-virus-disease", ("Marburg virus disease", "Marburg")),
    ("Mpox", "mpox", ("Mpox", "monkeypox")),
    ("Chikungunya", "chikungunya", ("Chikungunya", "CHIKV")),
    ("Rift Valley fever", "rift-valley-fever", ("Rift Valley fever", "RVF")),
)

# (display name, alpha-3, surfaces used in running text)
COUNTRIES = (
    ("India", "IND", ("India",)),
    ("Yemen", "YEM", ("Yemen",)),
    ("Philippines", "PHL", ("Philippines", "the Philippines")),
    ("Brazil", "BRA", ("Brazil",)),
    ("Saudi Arabia", "SAU", ("Saudi Arabia",)),
    ("Nigeria", "NGA", ("Nigeria",)),
    ("Angola", "AGO", ("Angola",)),
    ("Tanzania", "TZA", ("Tanzania", "United Republic of Tanzania")),
    ("Bangladesh", "BGD", ("Bangladesh",)),
    ("Uganda", "UGA", ("Uganda",)),
    ("Kenya", "KEN", ("Kenya",)),
    ("Vietnam", "VNM", ("Vietnam", "Viet Nam")),
    ("Democratic Republic of the Congo", "COD", ("Democratic Republic of the Congo", "DRC")),
    ("Ghana", "GHA", ("Ghana",)),
    ("Sierra Leone", "SLE", ("Sierra Leone",)),
    ("Madagascar", "MDG", ("Madagascar",)),
)

DISEASE_SENTENCES = (
    "Health officials described a cluster consistent with {}.",
    "Clinicians are managing patients with suspected {} in referral wards.",
    "The {} response plan was reviewed with national partners.",
    "Laboratory testing for {} continues at the reference laboratory.",
)
COUNTRY_SENTENCES = (
    "Teams in {} expanded active surveillance in affected districts.",
    "The ministry of health of {} coordinated the response.",
    "Partners in {} delivered supplies to regional clinics.",
)
DATE_SENTENCES = (
    "The latest situation report was issued on {}.",
    "An update was published on {}.",
    "Field teams completed the assessment on {}.",
)
CASE_SENTENCES = (
    "Officials have recorded {} cases so far.",
    "A total of {} confirmed cases has been notified.",
    "The outbreak now counts {} cases.",
    "Authorities reported about {} cases in the latest count.",
)
DISTRACTOR_CASE_SENTENCES = ("{} suspected cases remain under investigation.",)
DEATH_SENTENCES = (
    "Authorities confirmed {} deaths among patients.",
    "{} deaths have been reported.",
)

_MONTHS = (
    "January February March April May June July August September October "
    "November December"
).split()
_UNITS = "one two three four five six seven eight nine".split()
_TEENS = (
    "ten eleven twelve thirteen fourteen fifteen sixteen seventeen eighteen nineteen"
).split()
_TENS = "twenty thirty forty fifty sixty seventy eighty ninety".split()


@dataclass
class RawDoc:
    """One raw feed file plus what the benchmark knows about it."""

    name: str  # file stem, which ingest turns into the document id
    feed: str  # "promed" or "don"
    text: str
    gold: dict  # gold.jsonl row
    expect: dict = field(default_factory=dict)  # independent per-document expectations


@dataclass
class Inputs:
    base: list[RawDoc]
    batches: list[list[RawDoc]]

    @property
    def all_docs(self) -> list[RawDoc]:
        return self.base + [doc for batch in self.batches for doc in batch]


def _spread(index: int, bounds: tuple[int, int]) -> int:
    """A length in ``bounds`` fixed by the document's position, not the seed.

    The seed picks the words; lengths stay put, so every seed gives the
    same amount of text and timings do not move with the seed.
    """
    low, high = bounds
    return low + (index * 7919) % (high - low + 1)


def _filler_sentence(rng: random.Random) -> str:
    words = [rng.choice(FILLER_WORDS) for _ in range(rng.randint(8, 16))]
    return " ".join(words).capitalize() + "."


def _filler(rng: random.Random, chars: int) -> list[str]:
    sentences, total = [], 0
    while total < chars:
        sentence = _filler_sentence(rng)
        sentences.append(sentence)
        total += len(sentence) + 1
    return sentences


def _paragraphs(rng: random.Random, sentences: list[str]) -> list[str]:
    paragraphs, i = [], 0
    while i < len(sentences):
        n = rng.randint(3, 6)
        paragraphs.append(" ".join(sentences[i : i + n]))
        i += n
    return paragraphs


def _number_words(n: int) -> str:
    if n < 10:
        return _UNITS[n - 1]
    if n < 20:
        return _TEENS[n - 10]
    tens, unit = divmod(n, 10)
    return _TENS[tens - 2] + (f"-{_UNITS[unit - 1]}" if unit else "")


def _render_count(rng: random.Random, n: int) -> str:
    if n < 100 and rng.random() < 0.3:
        return _number_words(n)
    return f"{n:,}"


def _render_date(rng: random.Random, d: date) -> str:
    month = _MONTHS[d.month - 1]
    return rng.choice(
        (
            f"{d.day} {month} {d.year}",
            f"{month} {d.day}, {d.year}",
            d.isoformat(),
            f"{d.day:02d}/{d.month:02d}/{d.year}",
        )
    )


def _random_date(rng: random.Random) -> date:
    return date(2014, 1, 1) + timedelta(days=rng.randrange(3650))


def _case_value(rng: random.Random, taken: set[int]) -> int:
    while True:
        n = rng.choice((rng.randint(3, 99), rng.randint(100, 1899), rng.randint(2101, 9999)))
        if n not in taken:
            taken.add(n)
            return n


def _long_doc(rng: random.Random, index: int) -> RawDoc:
    """A several-KB post whose gold facts win by mention frequency."""
    feed = "don" if index % 2 else "promed"
    disease, other_disease = rng.sample(DISEASES, 2)
    country, other_country = rng.sample(COUNTRIES, 2)
    gold_date = _random_date(rng)
    other_dates: list[date] = []
    while len(other_dates) < 2:
        other = _random_date(rng)
        if other != gold_date and other not in other_dates:
            other_dates.append(other)
    taken: set[int] = set()
    has_count = index % 5 != 4
    gold_count = _case_value(rng, taken) if has_count else None

    wins = 5 + index % 3  # gold mentions per class
    losses = wins - 2  # the most any distractor gets
    # A DON article repeats disease and country in <title> and <h1>, and
    # states the date on its header line; those mentions count too.
    header_mentions = 2 if feed == "don" else 0
    sentences: list[str] = []

    def plant(templates, surfaces, times):
        for _ in range(times):
            sentences.append(rng.choice(templates).format(rng.choice(surfaces)))

    plant(DISEASE_SENTENCES, disease[2], wins - header_mentions)
    plant(DISEASE_SENTENCES, other_disease[2], losses)
    plant(COUNTRY_SENTENCES, country[2], wins - header_mentions)
    plant(COUNTRY_SENTENCES, other_country[2], losses)
    for _ in range(wins - (1 if feed == "don" else 0)):
        sentences.append(rng.choice(DATE_SENTENCES).format(_render_date(rng, gold_date)))
    for other in other_dates:
        for _ in range(losses):
            sentences.append(rng.choice(DATE_SENTENCES).format(_render_date(rng, other)))
    if has_count:
        for _ in range(wins):
            sentences.append(rng.choice(CASE_SENTENCES).format(_render_count(rng, gold_count)))
        other_case = _case_value(rng, taken)
        for _ in range(losses):
            sentences.append(DISTRACTOR_CASE_SENTENCES[0].format(_render_count(rng, other_case)))
        deaths = _case_value(rng, taken)
        for _ in range(losses):
            sentences.append(rng.choice(DEATH_SENTENCES).format(_render_count(rng, deaths)))
    sentences += _filler(rng, _spread(index, RULES_FILLER_CHARS))
    rng.shuffle(sentences)
    for i, sentence in enumerate(sentences):  # "{} deaths ..." may open a sentence
        sentences[i] = sentence[0].upper() + sentence[1:]
    paragraphs = _paragraphs(rng, sentences)

    headline = f"{disease[0]} - {country[0]}"
    if feed == "promed":
        text = f"Subject: PRO/EDR> {headline}\n\n" + "\n\n".join(paragraphs) + "\n"
    else:
        header = f"{gold_date.day} {_MONTHS[gold_date.month - 1]} {gold_date.year}"
        items = "\n".join(f"<li>{p}</li>" for p in paragraphs[-2:])
        body = "\n".join(f"<p>{p}</p>" for p in paragraphs[:-2])
        text = (
            f"<html>\n<head>\n<title>{headline}</title>\n</head>\n<body>\n"
            f"<h1>{headline}</h1>\n<p>{header} | Disease outbreak news</p>\n"
            f"{body}\n<ul>\n{items}\n</ul>\n</body>\n</html>\n"
        )
    name = f"{feed[0]}{index:05d}"
    gold = {
        "document_id": name,
        "disease": disease[0],
        "country": country[0],
        "date": gold_date.isoformat(),
        "count": gold_count,
    }
    expect = {
        "disease": disease[1],
        "country": country[1],
        "date": gold_date.isoformat(),
        "count": gold_count,
    }
    return RawDoc(name, feed, text, gold, expect)


def rules_long_inputs(seed: int, base: int, batches: int, batch_size: int) -> Inputs:
    rng = random.Random(f"rules_long:{seed}")
    docs = [_long_doc(rng, i) for i in range(base + batches * batch_size)]
    return Inputs(
        base=docs[:base],
        batches=[docs[base + b * batch_size : base + (b + 1) * batch_size] for b in range(batches)],
    )


def fixture_docs() -> list[tuple[str, str]]:
    """(stem, raw text) of the 10 end-to-end fixture posts, in id order."""
    return [(p.stem, p.read_text(encoding="utf-8")) for p in sorted(E2E_RAW.glob("*.txt"))]


def fixture_gold() -> dict[str, dict]:
    rows = [json.loads(line) for line in E2E_GOLD.read_text(encoding="utf-8").splitlines() if line]
    return {row["document_id"]: row for row in rows}


def canned_answers() -> dict[str, dict[str, str]]:
    return json.loads(E2E_CANNED.read_text(encoding="utf-8"))


def fixture_copy_inputs(seed: int, base_copies: int, batches: int, batch_copies: int) -> Inputs:
    """Disjoint copies of the fixture; copy ``j`` of doc ``promed-003`` is ``c0007-promed-003``."""
    rng = random.Random(f"fixture_copies:{seed}")
    fixtures = fixture_docs()
    gold = fixture_gold()
    docs: list[RawDoc] = []
    for copy in range(base_copies + batches * batch_copies):
        for stem, raw in fixtures:
            long = len(docs) % LONG_EVERY == LONG_EVERY - 1
            chars = _spread(len(docs), LONG_FILLER_CHARS if long else SHORT_FILLER_CHARS)
            filler = "\n\n".join(_paragraphs(rng, _filler(rng, chars)))
            name = f"c{copy:04d}-{stem}"
            docs.append(
                RawDoc(
                    name,
                    "promed",
                    raw.rstrip("\n") + "\n\n" + filler + "\n",
                    dict(gold[stem], document_id=name),
                    {"fixture": stem, "long": long},
                )
            )
    n_base = base_copies * len(fixtures)
    per_batch = batch_copies * len(fixtures)
    return Inputs(
        base=docs[:n_base],
        batches=[docs[n_base + b * per_batch : n_base + (b + 1) * per_batch] for b in range(batches)],
    )


def write_raw(docs: list[RawDoc], raw_dir: Path) -> None:
    for doc in docs:
        folder = raw_dir / doc.feed
        folder.mkdir(parents=True, exist_ok=True)
        suffix = ".html" if doc.feed == "don" else ".txt"
        (folder / f"{doc.name}{suffix}").write_text(doc.text, encoding="utf-8")


def write_gold(docs: list[RawDoc], path: Path) -> None:
    path.write_text("".join(json.dumps(doc.gold) + "\n" for doc in docs), encoding="utf-8")
