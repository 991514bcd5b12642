"""Epidemic information extraction toolkit.

Rule-based and model-backed extractors pull four facts out of outbreak-news
documents (disease, country, date, case count); a majority-voting ensemble
combines extractors, and an evaluation harness scores everything against
gold annotations with per-field precision, recall, and F1.
"""

from .annotator import (
    EntitySpan,
    KeyEntitySet,
    annotate_counts,
    annotate_dates,
    annotate_entities,
    extract_rule_based,
    filter_key_entities,
)
from .corpus import (
    Document,
    ExtractionRecord,
    GoldAnnotation,
    Source,
    load_corpus,
    load_gold,
    parse_don_article,
    parse_promed_post,
    save_corpus,
    save_gold,
    strip_markup,
)
from .ensemble import (
    EnsembleConfig,
    TieBreak,
    VotePolicy,
    ensemble_records,
    vote_field,
)
from .errors import EpixError
from .evaluation import (
    ConfusionCounts,
    EvaluationReport,
    MatchMode,
    MetricTriple,
    Outcome,
    accumulate_confusion,
    classify_pair,
    evaluate,
    f1,
    metric_triple,
    precision,
    recall,
    render_report,
)
from .gazetteer import Gazetteer, default_gazetteer, load_gazetteer
from .llm import (
    Demonstration,
    ModelProfile,
    PromptTemplate,
    Sampling,
    Transport,
    TransportMode,
    build_messages,
    complete,
    default_registry,
    extract_json_island,
    extract_with_llm,
    load_template,
    parse_fields,
)
from .normalize import (
    CanonicalDisease,
    CaseCount,
    CountAttribute,
    CountryCode,
    IsoDate,
    comparison_key,
    normalize_country,
    normalize_date,
    normalize_disease,
    parse_count_expression,
    values_match,
)

__version__ = "0.1.0"
