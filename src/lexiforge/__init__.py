"""Bilingual lexicon acquisition from a tagged corpus and a search oracle."""

from .corpus import TaggedCorpus, TaggedToken, parse_tagged_corpus
from .dictionary import BilingualDictionary, Route, load_dictionary, route_ulc
from .extraction import SourceUlc, UlcPattern, extract_ulcs, web_filter_ulc
from .generation import CandidateTranslation, TranslationRule, build_validation_query, generate_candidates
from .oracle import OracleError, OracleQuery, QueryKind, ResponseCache, SearchOracle
from .pipeline import Phase, TranslationRecord, run_pipeline, summarize, write_report

__version__ = "0.1.0"

__all__ = [
    "BilingualDictionary",
    "CandidateTranslation",
    "OracleError",
    "OracleQuery",
    "Phase",
    "QueryKind",
    "ResponseCache",
    "Route",
    "SearchOracle",
    "SourceUlc",
    "TaggedCorpus",
    "TaggedToken",
    "TranslationRecord",
    "TranslationRule",
    "UlcPattern",
    "build_validation_query",
    "extract_ulcs",
    "generate_candidates",
    "load_dictionary",
    "parse_tagged_corpus",
    "route_ulc",
    "run_pipeline",
    "summarize",
    "web_filter_ulc",
    "write_report",
    "__version__",
]
