"""Command-line entry points for the corpus, analysis, retrieval, prompt,
scoring, and experiment subsystems."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import analysis, corpus, metrics, pipeline, retrieval
from .prompt import ContextBundle, render_direct, render_postedit
from .provider import Provider

# What a config, an input file it or a command names, or input a command
# cannot use (files of unequal length, no terms, one report) fails with:
# bad input, reported as a usage error rather than a traceback. ConfigError,
# CorpusError, JSONDecodeError and UnicodeDecodeError are all ValueErrors.
_INPUT_ERRORS = (ValueError, OSError)

STRATEGY_NAMES = {
    "bm25": "BM25",
    "dense": "DENSE",
    "chrf-cw": "CHRF_CW",
    "fuzzy-word": "FUZZY_WORD",
}


def _read_lines(path: str) -> list[str]:
    """A file's lines as the corpus loaders read them: split at line ends
    alone, not at the other breaks ``str.splitlines`` knows (U+2028, U+0085,
    the file and group separators, vertical tab, form feed)."""
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


def _emit(data) -> None:
    json.dump(data, sys.stdout, indent=2, ensure_ascii=False)
    sys.stdout.write("\n")


def _cmd_corpus_validate(args) -> int:
    pairs = corpus.load_parallel(args.file)
    _emit({"file": args.file, "pairs": len(pairs), "valid": True})
    return 0


def _cmd_corpus_split(args) -> int:
    pairs = corpus.load_parallel(args.corpus)
    spec = corpus.PartitionSpec(
        train_fraction=args.train_frac,
        test_book=args.test_book,
        test_verses=args.test_verses,
        seed=args.seed,
    )
    part = corpus.partition(pairs, spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, split in (("train", part.train), ("validation", part.validation),
                        ("test", part.test)):
        corpus.save_parallel(out / f"{name}.tsv", split)
    _emit({
        "train": len(part.train),
        "validation": len(part.validation),
        "test": len(part.test),
        "out_dir": str(out),
    })
    return 0


def _cmd_corpus_leak_check(args) -> int:
    test = corpus.load_parallel(args.test)
    aux = corpus.load_parallel(args.aux)
    report = corpus.leakage_check(test, aux)
    _emit({
        "clean": report.clean,
        "collisions": [vars(c) for c in report.collisions],
    })
    return 0 if report.clean else 1


def _cmd_analyze_oov(args) -> int:
    report = analysis.oov_report(_read_lines(args.train), _read_lines(args.eval))
    _emit(report)
    return 0


def _cmd_analyze_termfreq(args) -> int:
    terms = [t for t in _read_lines(args.terms_file) if t.strip()]
    report = analysis.term_frequency(
        _read_lines(args.corpus), terms, corpus_label=args.label
    )
    rows = [
        {
            "term": r.term,
            "corpus_label": r.corpus_label,
            "raw_count": r.raw_count,
            "count_per_10k": round(r.count_per_10k, 3),
        }
        for r in report.rows
    ]
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    _emit(rows)
    return 0


def _cmd_retrieve(args) -> int:
    strategy = STRATEGY_NAMES[args.strategy]
    retrieval_corpus = "NT" if args.corpus == "nt" else "NT_PLUS_GRAMMAR"
    pool = pipeline.load_pool(args.corpus_file, retrieval_corpus, strategy)
    provider = None
    if args.provider_config:
        with corpus.naming_errors(args.provider_config, pipeline.ConfigError):
            data = json.loads(Path(args.provider_config).read_text(encoding="utf-8"))
            provider = Provider(pipeline.provider_config_from_dict(data))
    size = args.n if strategy == "FUZZY_WORD" else args.k
    try:
        results = retrieval.Retriever(strategy, pool, gamma=args.gamma,
                                      provider=provider).prefixes(args.query, size)(size)
    finally:
        if provider is not None:
            provider.close()
    _emit([
        {
            "id": r.pair.id,
            "score": round(r.score, 6),
            "strategy": r.strategy,
            "matched_token": r.matched_token,
            "source": r.pair.source_text,
            "target": r.pair.target_text,
        }
        for r in results
    ])
    return 0


def _cmd_prompt_render(args) -> int:
    bundle = ContextBundle()
    if args.mode == "postedit":
        rendered = render_postedit(args.source, args.draft, bundle)
    else:
        rendered = render_direct(args.source, bundle)
    # the exact bytes that would be sent
    sys.stdout.write("--- system ---\n")
    sys.stdout.write(rendered.system)
    sys.stdout.write("\n--- user ---\n")
    sys.stdout.write(rendered.user)
    sys.stdout.write("\n")
    return 0


def _cmd_score(args) -> int:
    hyps = _read_lines(args.hyp)
    refs = _read_lines(args.ref)
    if args.tokenizer_model:
        tokenizer = metrics.SentencePieceTokenizer(args.tokenizer_model)
    else:
        tokenizer = metrics.WhitespaceTokenizer()
    ids = [str(i + 1) for i in range(len(hyps))]
    report = metrics.evaluate(ids, hyps, refs, tokenizer=tokenizer)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "bleu", "chrf"])
            for s in report.per_sentence:
                writer.writerow([s.id, round(s.bleu, 2), round(s.chrf, 2)])
    _emit(report.to_dict())
    return 0


def _cmd_run(args) -> int:
    config = pipeline.ExperimentConfig.load(args.config)
    report, manifest = pipeline.run_experiment(config)
    _emit({
        "corpus_bleu": round(report.corpus_bleu, 2),
        "corpus_chrf": round(report.corpus_chrf, 2),
        "bleu_label": report.bleu_label,
        "sentences": len(manifest.records),
        "effective_k_mean": round(manifest.effective_k_mean, 2),
    })
    return 0


def _int_list(text: str) -> list[int]:
    """argparse type: comma-separated integers."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _cmd_sweep(args) -> int:
    config = pipeline.ExperimentConfig.load(args.config)
    rows = pipeline.sweep(config, args.values, csv_path=args.csv)
    _emit(rows)
    return 0


def _cmd_compare(args) -> int:
    reports = {
        Path(path).stem: metrics.EvalReport.load(path) for path in args.reports
    }
    rows = pipeline.compare(reports, baseline=args.baseline)
    _emit(rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ragmt")
    sub = parser.add_subparsers(dest="command", required=True)

    p_corpus = sub.add_parser("corpus", help="corpus loading and partitioning")
    corpus_sub = p_corpus.add_subparsers(dest="subcommand", required=True)
    p = corpus_sub.add_parser("validate")
    p.add_argument("file")
    p.set_defaults(func=_cmd_corpus_validate)
    p = corpus_sub.add_parser("split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--train-frac", type=float, default=0.95)
    p.add_argument("--test-book", default="GEN")
    p.add_argument("--test-verses", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="splits")
    p.set_defaults(func=_cmd_corpus_split)
    p = corpus_sub.add_parser("leak-check")
    p.add_argument("--test", required=True)
    p.add_argument("--aux", required=True)
    p.set_defaults(func=_cmd_corpus_leak_check)

    p_analyze = sub.add_parser("analyze", help="domain-shift diagnostics")
    analyze_sub = p_analyze.add_subparsers(dest="subcommand", required=True)
    p = analyze_sub.add_parser("oov")
    p.add_argument("--train", required=True)
    p.add_argument("--eval", required=True)
    p.set_defaults(func=_cmd_analyze_oov)
    p = analyze_sub.add_parser("termfreq")
    p.add_argument("--terms-file", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--label", default="corpus")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_analyze_termfreq)

    p = sub.add_parser("retrieve", help="query one retrieval strategy")
    p.add_argument("--strategy", choices=sorted(STRATEGY_NAMES), required=True)
    p.add_argument("--corpus-file", required=True)
    p.add_argument("--corpus", choices=["nt", "nt+grammar"], default="nt")
    p.add_argument("--query", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--provider-config", help="JSON ProviderConfig (dense only)")
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("prompt", help="prompt rendering")
    prompt_sub = p.add_subparsers(dest="subcommand", required=True)
    p = prompt_sub.add_parser("render")
    p.add_argument("--mode", choices=["direct", "postedit"], required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--draft", default="")
    p.set_defaults(func=_cmd_prompt_render)

    p = sub.add_parser("score", help="chrF++/BLEU scoring")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--tokenizer-model")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("run", help="run one experiment config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="sweep k or n over one strategy")
    p.add_argument("--config", required=True)
    p.add_argument("--values", required=True, type=_int_list, help="comma-separated ints")
    p.add_argument("--csv", default="sweep.csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare", help="delta table across report files")
    p.add_argument("reports", nargs="+")
    p.add_argument("--baseline", required=True)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "retrieve":
        if args.strategy == "dense" and not args.provider_config:
            parser.error("retrieve --strategy dense needs --provider-config")
        if args.k < 1 or args.n < 1:
            parser.error("retrieve --k and --n must be >= 1")
        if not 0.0 <= args.gamma <= 1.0:
            parser.error(f"retrieve --gamma must be in [0, 1], got {args.gamma!r}")
        if not args.query.strip():
            parser.error("retrieve --query must not be blank")
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        where = f" --config {args.config}" if args.command in ("run", "sweep") else ""
        command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
        parser.error(f"{command}{where}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
