"""Command-line entry point.

Subcommands: ``extract`` (corpus -> filtered unit list), ``translate``
(units -> lexicon + summary), ``evaluate`` (lexicon + gold -> metrics),
``world`` (print the lexical world of a phrase) and ``cache`` (inspect or
compact a response cache). Exit codes: 0 success, 2 usage or configuration
error, 3 finished but some units are still unresolved at the oracle.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .backends import HttpBackend, LocalIndexBackend
from .config import ConfigError, InputError, RunConfig, load_config, open_utf8
from .corpus import Tagset, parse_tagged_corpus
from .dictionary import load_dictionary, route_ulc
from .extraction import FilterStatus, extract_ulcs, filter_ulcs, read_ulcs, write_ulcs
from .oracle import ResponseCache, SearchOracle
from .pipeline import read_lexicon, run_pipeline, write_report
from .evaluation import GoldError, compute_metrics, format_metrics, load_gold
from .phase2 import WorldContext, build_lexical_world, write_world
from .tagging import LexiconTagger, default_tagger, load_stopwords

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNRESOLVED = 3


def build_oracle(cfg: RunConfig) -> SearchOracle:
    cache = ResponseCache(cfg.cache_path) if cfg.cache_path else None
    if cfg.backend == "cache":
        return SearchOracle(None, cache)
    if cfg.backend == "local":
        backend = LocalIndexBackend.from_jsonl(cfg.docs_path)
    else:
        backend = HttpBackend(cfg.endpoint, cfg.api_key, cfg.rate_per_sec)
    return SearchOracle(backend, cache, max_parallel=cfg.parallelism)


def build_tagset(cfg: RunConfig) -> Tagset:
    tagset = Tagset.named(cfg.tagset_name)
    if cfg.tagset_overrides:
        tagset = tagset.extended(cfg.tagset_overrides)
    return tagset


def _tagger(lexicon_path: str | None, lang: str) -> LexiconTagger:
    return LexiconTagger.from_file(lexicon_path) if lexicon_path else default_tagger(lang)


def build_world_context(cfg: RunConfig, oracle: SearchOracle, dictionary) -> WorldContext:
    return WorldContext(
        cfg,
        oracle,
        dictionary,
        _tagger(cfg.source_tagger_path, cfg.source_lang),
        _tagger(cfg.target_tagger_path, cfg.target_lang),
        load_stopwords(cfg.source_lang),
        load_stopwords(cfg.target_lang),
    )


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # Flags that set a RunConfig field are parsed into an attribute of the
    # field's name and are None when not given.
    settings = {f.name for f in fields(RunConfig)}
    overrides = {
        name: value for name, value in vars(args).items() if name in settings and value is not None
    }
    cfg = load_config(args.config, overrides)
    cfg.validate()
    return cfg


def _require_file(path: str | None, what: str) -> Path:
    if not path:
        raise ConfigError(f"missing {what}")
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} not found: {p}")
    return p


def cmd_extract(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    corpus_file = _require_file(cfg.corpus_path, "corpus file")
    with open_utf8(corpus_file) as fh:
        corpus = parse_tagged_corpus(fh, build_tagset(cfg))
    units = extract_ulcs(corpus, cfg.corpus_freq_min)

    oracle = build_oracle(cfg)
    try:
        verdicts = filter_ulcs(
            units, oracle, cfg.literal_freq_min, cfg.article_freq_min, cfg.max_ulcs
        )
    finally:
        oracle.close()
    kept = [v.ulc for v in verdicts if v.status is not FilterStatus.REJECTED]
    unresolved = sum(1 for v in verdicts if v.status is FilterStatus.UNRESOLVED_ORACLE)

    out_path = Path(args.out) if args.out else Path(cfg.output_dir) / "ulcs.tsv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        write_ulcs(kept, fh)
    print(f"extracted {len(units)} units, kept {len(kept)} -> {out_path}")
    if unresolved:
        print(f"{unresolved} units unresolved at the oracle; re-run to retry", file=sys.stderr)
        return EXIT_UNRESOLVED
    return EXIT_OK


def cmd_translate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    dict_file = _require_file(cfg.dictionary_path, "dictionary file")
    dictionary = load_dictionary(dict_file)

    if args.ulcs:
        units = read_ulcs(_require_file(args.ulcs, "unit file"))
    else:
        corpus_file = _require_file(cfg.corpus_path, "corpus file")
        with open_utf8(corpus_file) as fh:
            corpus = parse_tagged_corpus(fh, build_tagset(cfg))
        units = extract_ulcs(corpus, cfg.corpus_freq_min)

    if args.phase:
        units = [u for u in units if route_ulc(u, dictionary)[0].phase == args.phase]

    oracle = build_oracle(cfg)
    try:
        ctx = build_world_context(cfg, oracle, dictionary)
        report = run_pipeline(units, ctx)
    finally:
        oracle.close()
    lexicon_path, summary_path = write_report(report, cfg.output_dir)
    translated = len(report.translated())
    print(f"{translated}/{len(report.records)} units translated -> {lexicon_path}")
    print(f"summary -> {summary_path}")
    if report.unresolved_count():
        print(f"{report.unresolved_count()} units unresolved at the oracle", file=sys.stderr)
        return EXIT_UNRESOLVED
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    gold = load_gold(_require_file(args.gold, "gold file"))
    report = read_lexicon(_require_file(args.lexicon, "lexicon file"))
    sys.stdout.write(format_metrics(compute_metrics(report, gold, args.total_sources)))
    return EXIT_OK


def cmd_world(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    tagger = _tagger(args.tagger, args.lang)
    oracle = build_oracle(cfg)
    try:
        world = build_lexical_world(
            args.phrase,
            args.lang,
            oracle,
            tagger,
            load_stopwords(args.lang),
            snippet_limit=cfg.snippet_limit,
            world_size=cfg.world_size,
        )
    finally:
        oracle.close()
    write_world(world, sys.stdout)
    return EXIT_OK


def cmd_cache(args: argparse.Namespace) -> int:
    path = _require_file(args.cache_file, "cache file")
    cache = ResponseCache(path)
    if args.action == "stats":
        by_kind = cache.kind_counts()
        print(f"{len(cache)} entries in {path}")
        for kind in sorted(by_kind):
            print(f"  {kind}\t{by_kind[kind]}")
    else:
        kept = cache.compact()
        print(f"compacted {path} to {kept} records")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexiforge",
        description="Extract complex lexical units from a tagged corpus and translate them",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--cache", dest="cache_path", help="response cache file")
        backend = p.add_mutually_exclusive_group()
        backend.add_argument("--backend", choices=("local", "http", "cache"))
        backend.add_argument("--offline", dest="backend", action="store_const", const="cache",
                             help="never call a backend: the same as --backend cache")
        p.add_argument("--docs", dest="docs_path", help="document collection (JSONL) for the local backend")
        p.add_argument("--endpoint", help="HTTP search API endpoint")

    p_extract = sub.add_parser("extract", help="extract and web-filter source units")
    add_common(p_extract)
    p_extract.add_argument("--corpus", dest="corpus_path", help="tagged corpus file")
    p_extract.add_argument("--tagset", dest="tagset_name", help="tagset name (coarse, treetagger-fr)")
    p_extract.add_argument("--max-ulcs", dest="max_ulcs", type=int)
    p_extract.add_argument("--out", help="output unit file")
    p_extract.set_defaults(func=cmd_extract)

    p_translate = sub.add_parser("translate", help="run the translation cascade")
    add_common(p_translate)
    p_translate.add_argument("--dictionary", dest="dictionary_path", help="bilingual dictionary file")
    p_translate.add_argument("--corpus", dest="corpus_path", help="tagged corpus file")
    p_translate.add_argument("--ulcs", help="pre-extracted unit file")
    p_translate.add_argument("--tagset", dest="tagset_name", help="tagset name (coarse, treetagger-fr)")
    p_translate.add_argument("--out-dir", dest="output_dir", help="report output directory")
    p_translate.add_argument("--phase", type=int, choices=(1, 2, 3), help="keep only the units the dictionary routes to this phase")
    p_translate.add_argument("--workers", type=int)
    p_translate.add_argument("--source-lang", dest="source_lang")
    p_translate.add_argument("--target-lang", dest="target_lang")
    p_translate.add_argument("--use-an", dest="use_an", action="store_true", default=None, help='use "an" before vowels in validation queries')
    p_translate.add_argument("--source-tagger", dest="source_tagger_path", help="snippet tagger lexicon for the source language")
    p_translate.add_argument("--target-tagger", dest="target_tagger_path", help="snippet tagger lexicon for the target language")
    p_translate.set_defaults(func=cmd_translate)

    p_eval = sub.add_parser("evaluate", help="score a lexicon against gold grades")
    p_eval.add_argument("--lexicon", required=True, help="lexicon.tsv from translate")
    p_eval.add_argument("--gold", required=True, help="gold grade file")
    p_eval.add_argument("--total-sources", dest="total_sources", type=int)
    p_eval.set_defaults(func=cmd_evaluate)

    p_world = sub.add_parser("world", help="print the lexical world of a phrase")
    add_common(p_world)
    p_world.add_argument("--phrase", required=True)
    p_world.add_argument("--lang", required=True)
    p_world.add_argument("--tagger", help="snippet tagger lexicon file")
    p_world.set_defaults(func=cmd_world)

    p_cache = sub.add_parser("cache", help="inspect or compact a response cache")
    p_cache.add_argument("action", choices=("stats", "compact"))
    p_cache.add_argument("cache_file")
    p_cache.set_defaults(func=cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GoldError, InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
