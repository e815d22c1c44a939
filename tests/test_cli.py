from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from conftest import DEMO_DATA, REPO_ROOT
from mock_server import MockProviderServer
from ragmt.cli import main
from ragmt.corpus import load_parallel
from ragmt.pipeline import ExperimentConfig, run_experiment
from ragmt.provider import ProviderConfig

CORPUS = str(DEMO_DATA / "corpus.tsv")
TEST = str(DEMO_DATA / "test.tsv")
DRAFTS = str(DEMO_DATA / "drafts.tsv")
LEXICON = str(DEMO_DATA / "lexicon.tsv")


# characters str.splitlines() breaks a line at that a text file's lines can hold
INLINE_BREAKS = pytest.mark.parametrize("mark", [
    "\u2028", "\u2029", "\x85", "\x1c", "\x1d", "\x1e", "\x0b", "\x0c",
], ids=["u2028", "u2029", "x85", "x1c", "x1d", "x1e", "vt", "ff"])


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestCorpusCommands:
    def test_validate(self, capsys):
        code, out = run_cli(capsys, "corpus", "validate", CORPUS)
        payload = json.loads(out)
        assert code == 0
        assert payload == {"file": CORPUS, "pairs": 40, "valid": True}

    def test_validate_rejects_malformed(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only two\tcolumns\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["corpus", "validate", str(bad)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"ragmt: error: corpus validate: {bad}: line 1: expected 4 or 5 TSV columns, got 2")

    def test_split_writes_three_files(self, tmp_path, capsys):
        # the split needs NT pairs for train/validation and OT pairs for test
        combined = tmp_path / "combined.tsv"
        combined.write_text(
            (DEMO_DATA / "corpus.tsv").read_text(encoding="utf-8")
            + (DEMO_DATA / "test.tsv").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        code, out = run_cli(
            capsys, "corpus", "split", "--corpus", str(combined),
            "--train-frac", "0.8", "--test-book", "GEN", "--test-verses", "3",
            "--seed", "7", "--out-dir", str(tmp_path / "splits"),
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["test"] == 3
        for name in ("train", "validation", "test"):
            assert (tmp_path / "splits" / f"{name}.tsv").exists()

    def test_leak_check_clean_vs_dirty(self, tmp_path, capsys):
        code, out = run_cli(capsys, "corpus", "leak-check", "--test", TEST,
                            "--aux", CORPUS)
        assert code == 0
        assert json.loads(out)["clean"] is True
        # an aux file containing a test verse must fail with exit code 1
        leaky = tmp_path / "leaky.tsv"
        test_lines = (DEMO_DATA / "test.tsv").read_text(encoding="utf-8").splitlines()
        leaky.write_text(test_lines[0] + "\n", encoding="utf-8")
        code, out = run_cli(capsys, "corpus", "leak-check", "--test", TEST,
                            "--aux", str(leaky))
        assert code == 1
        assert json.loads(out)["clean"] is False


class TestAnalyzeCommands:
    def test_oov(self, tmp_path, capsys):
        train = tmp_path / "train.txt"
        eval_file = tmp_path / "eval.txt"
        train.write_text("the lord spoke\nthe people heard\n", encoding="utf-8")
        eval_file.write_text("the lord created leviathan\n", encoding="utf-8")
        code, out = run_cli(capsys, "analyze", "oov", "--train", str(train),
                            "--eval", str(eval_file))
        payload = json.loads(out)
        assert code == 0
        assert payload["oov_rate_token"] == pytest.approx(0.5)
        assert 0.0 <= payload["oov_rate_type"] <= 1.0

    def test_termfreq_with_csv(self, tmp_path, capsys):
        corpus_file = tmp_path / "text.txt"
        corpus_file.write_text("sin and grace and sin\n", encoding="utf-8")
        terms = tmp_path / "terms.txt"
        terms.write_text("sin\ngrace\ncovenant\n", encoding="utf-8")
        csv_path = tmp_path / "tf.csv"
        code, out = run_cli(
            capsys, "analyze", "termfreq", "--terms-file", str(terms),
            "--corpus", str(corpus_file), "--label", "toy", "--csv", str(csv_path),
        )
        rows = json.loads(out)
        assert code == 0
        by_term = {r["term"]: r for r in rows}
        assert by_term["sin"]["raw_count"] == 2
        assert by_term["sin"]["count_per_10k"] == pytest.approx(4000.0)
        assert by_term["covenant"]["raw_count"] == 0
        assert csv_path.read_text(encoding="utf-8").startswith("term,")

    @INLINE_BREAKS
    def test_termfreq_reads_one_term_per_line(self, tmp_path, capsys, mark):
        corpus_file = tmp_path / "text.txt"
        corpus_file.write_text(f"sin and{mark}grace\n", encoding="utf-8")
        terms = tmp_path / "terms.txt"
        terms.write_text(f"sin\ngrace{mark}covenant\n", encoding="utf-8")
        code, out = run_cli(capsys, "analyze", "termfreq", "--terms-file", str(terms),
                            "--corpus", str(corpus_file))
        assert code == 0
        assert [(r["term"], r["raw_count"]) for r in json.loads(out)] == [
            ("sin", 1), (f"grace{mark}covenant", 0)]


class TestRetrieveCommand:
    @pytest.mark.parametrize("strategy", ["bm25", "chrf-cw", "fuzzy-word"])
    def test_offline_strategies(self, strategy, capsys):
        code, out = run_cli(
            capsys, "retrieve", "--strategy", strategy, "--corpus-file", CORPUS,
            "--query", "In the beginning was the Word", "--k", "3", "--n", "2",
        )
        results = json.loads(out)
        assert code == 0
        assert results
        assert all(r["score"] > 0 for r in results)
        assert all(r["target"] for r in results)

    @pytest.mark.parametrize("strategy, context, size", [
        ("bm25", "BM25", "k"), ("chrf-cw", "CHRF_CW", "k"), ("fuzzy-word", "FUZZY_WORD", "n"),
    ])
    def test_same_ids_as_a_run(self, tmp_path, capsys, strategy, context, size):
        config = ExperimentConfig(
            mode="NMT_ONLY", context=context, corpus_path=CORPUS, test_path=TEST,
            draft_path=DRAFTS, output_dir=str(tmp_path), **{size: 2},
        )
        _, manifest = run_experiment(config)
        for record in manifest.records:
            code, out = run_cli(
                capsys, "retrieve", "--strategy", strategy, "--corpus-file", CORPUS,
                "--query", record.source, f"--{size}", "2",
            )
            assert code == 0
            assert [r["id"] for r in json.loads(out)] == record.retrieved_ids

    def test_grammar_pool_flag(self, capsys):
        code, out = run_cli(
            capsys, "retrieve", "--strategy", "bm25", "--corpus-file", CORPUS,
            "--corpus", "nt+grammar", "--query", "I am eating rice", "--k", "3",
        )
        results = json.loads(out)
        assert any(r["id"].startswith("GRM.") for r in results)

    def test_dense_via_provider_config(self, tmp_path, capsys):
        with MockProviderServer() as server:
            provider_file = tmp_path / "provider.json"
            provider_file.write_text(json.dumps({
                "base_url": server.base_url,
                "model_name": "mock-chat",
                "embedding_model_name": "mock-embed",
                "cache_dir": str(tmp_path / "cache"),
            }), encoding="utf-8")
            code, out = run_cli(
                capsys, "retrieve", "--strategy", "dense", "--corpus-file", CORPUS,
                "--query", "light shines in darkness", "--k", "2",
                "--provider-config", str(provider_file),
            )
        results = json.loads(out)
        assert code == 0
        assert len(results) == 2

    def test_dense_sends_pool_and_query_in_one_request(self, tmp_path, capsys):
        query = "light shines in darkness"
        with MockProviderServer() as server:
            provider_file = tmp_path / "provider.json"
            provider_file.write_text(json.dumps({
                "base_url": server.base_url, "model_name": "mock-chat",
                "embedding_model_name": "mock-embed",
            }), encoding="utf-8")
            code, _ = run_cli(
                capsys, "retrieve", "--strategy", "dense", "--corpus-file", CORPUS,
                "--query", query, "--k", "2", "--provider-config", str(provider_file),
            )
            sent = [r["body"]["input"] for r in server.requests]
        pool = [p.source_text for p in load_parallel(CORPUS) if p.origin == "NT"]
        assert code == 0
        assert sent == [pool + [query]]  # the default 128 texts per request hold all 31

    def test_dense_without_provider_config_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["retrieve", "--strategy", "dense", "--corpus-file", CORPUS,
                  "--query", "light shines in darkness"])
        assert exc.value.code == 2
        assert "--provider-config" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy, flags", [
        ("bm25", ["--k", "0"]),
        ("chrf-cw", ["--k", "-1"]),
        ("fuzzy-word", ["--n", "0"]),
        ("bm25", ["--query", "   "]),
        ("chrf-cw", ["--query", ""]),
        ("chrf-cw", ["--gamma", "nan"]),
        ("chrf-cw", ["--gamma", "-2"]),
        ("chrf-cw", ["--gamma", "1.5"]),
    ])
    def test_bad_values_are_usage_errors(self, capsys, strategy, flags):
        with pytest.raises(SystemExit) as exc:
            main(["retrieve", "--strategy", strategy, "--corpus-file", CORPUS,
                  "--query", "light shines in darkness", *flags])
        assert exc.value.code == 2
        assert "retrieve --" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy, flags, named", [
        ("dense", ["--provider-config", "typo.json"],
         "typo.json: unknown provider field(s): 'typo'"),
        ("dense", ["--provider-config", "missing.json"], "missing.json"),
        ("dense", ["--provider-config", "empty.json"],
         "empty.json: provider: base_url is required without replay_dir"),
        ("dense", ["--provider-config", "not-json.json"], "not-json.json: not JSON"),
        ("bm25", ["--corpus-file", "missing.tsv"], "missing.tsv"),
        ("bm25", ["--corpus-file", "grammar.tsv"], "BM25: the retrieval pool is empty"),
        ("chrf-cw", ["--corpus-file", "grammar.tsv"], "CHRF_CW: the retrieval pool is empty"),
        ("fuzzy-word", ["--corpus-file", "grammar.tsv"], "(no NT pairs in grammar.tsv)"),
    ], ids=["unknown-provider-field", "missing-provider-config", "provider-without-url",
            "provider-config-not-json", "missing-corpus",
            "bm25-empty-pool", "chrf-cw-empty-pool", "fuzzy-word-empty-pool"])
    def test_bad_input_is_usage_error(self, tmp_path, monkeypatch, capsys, strategy, flags,
                                      named):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "typo.json").write_text(json.dumps({"replay_dir": "fixtures", "typo": 1}),
                                            encoding="utf-8")
        (tmp_path / "empty.json").write_text("{}", encoding="utf-8")
        (tmp_path / "not-json.json").write_text("{not json", encoding="utf-8")
        (tmp_path / "grammar.tsv").write_text("GRM.1\tI eat rice.\tt\tGRAMMAR\n",
                                              encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["retrieve", "--strategy", strategy, "--corpus-file", CORPUS,
                  "--query", "I am eating rice", *flags])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("ragmt: error: retrieve: ")
        assert named in last

    @pytest.mark.parametrize("gamma", ["0", "1"])
    def test_gamma_bounds_are_valid(self, capsys, gamma):
        code, out = run_cli(
            capsys, "retrieve", "--strategy", "chrf-cw", "--corpus-file", CORPUS,
            "--query", "light shines in darkness", "--k", "2", "--gamma", gamma,
        )
        assert code == 0
        assert len(json.loads(out)) == 2


class TestPromptCommand:
    def test_render_direct(self, capsys):
        code, out = run_cli(capsys, "prompt", "render", "--mode", "direct",
                            "--source", "God is love.")
        assert code == 0
        assert "--- system ---" in out
        assert "Source text (English): God is love." in out

    def test_render_postedit_includes_draft(self, capsys):
        code, out = run_cli(capsys, "prompt", "render", "--mode", "postedit",
                            "--source", "God is love.", "--draft", "Lamatua hia.")
        assert code == 0
        assert "Machine translation (Dhao): Lamatua hia." in out


class TestScoreCommand:
    def test_score_with_csv(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("the quick brown fox\nhello world\n", encoding="utf-8")
        ref.write_text("the quick brown fox\nhello there world\n", encoding="utf-8")
        csv_path = tmp_path / "scores.csv"
        code, out = run_cli(capsys, "score", "--hyp", str(hyp), "--ref", str(ref),
                            "--csv", str(csv_path))
        payload = json.loads(out)
        assert code == 0
        assert payload["bleu_label"] == "BLEU(whitespace)"
        assert len(payload["per_sentence"]) == 2
        assert payload["per_sentence"][0]["chrf"] == pytest.approx(100.0)
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "id,bleu,chrf"
        assert len(lines) == 3

    @INLINE_BREAKS
    def test_segments_end_at_line_ends_only(self, tmp_path, capsys, mark):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        # in one file only, and in both files on different lines
        for hyp_text, ref_text in [
            (f"the quick{mark}brown fox\nhello to the world\n",
             "the quick brown fox\nhello to the world\n"),
            (f"the quick{mark}brown fox\nhello to the world\n",
             f"the quick brown fox\nhello to{mark}the world\n"),
        ]:
            hyp.write_text(hyp_text, encoding="utf-8")
            ref.write_text(ref_text, encoding="utf-8")
            code, out = run_cli(capsys, "score", "--hyp", str(hyp), "--ref", str(ref))
            assert code == 0
            # the mark splits words as a space does, so each segment matches
            assert [(s["id"], s["bleu"], s["chrf"]) for s in json.loads(out)["per_sentence"]] == [
                ("1", 100.0, 100.0), ("2", 100.0, 100.0)]


class TestRunSweepCompare:
    def write_config(self, tmp_path, **overrides) -> str:
        data = dict(
            mode="NMT_ONLY",
            corpus_path=CORPUS,
            lexicon_path=LEXICON,
            test_path=TEST,
            draft_path=DRAFTS,
            output_dir=str(tmp_path / "runs"),
        )
        data.update(overrides)
        ExperimentConfig.from_dict(data)  # validate before writing
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    def test_run_nmt_only(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        code, out = run_cli(capsys, "run", "--config", config)
        payload = json.loads(out)
        assert code == 0
        assert payload["sentences"] == 10
        assert 0.0 < payload["corpus_chrf"] < 100.0

    def test_sweep_and_compare_round_trip(self, tmp_path, capsys):
        with MockProviderServer() as server:
            provider = vars(ProviderConfig(
                base_url=server.base_url, model_name="mock-chat",
                cache_dir=str(tmp_path / "cache"),
            )).copy()
            config = self.write_config(
                tmp_path, mode="POST_EDIT", context="BM25", k=1,
                provider=provider,
            )
            code, out = run_cli(capsys, "sweep", "--config", config,
                                "--values", "1,2",
                                "--csv", str(tmp_path / "sweep.csv"))
            assert code == 0
            rows = json.loads(out)
            assert [r["k_or_n"] for r in rows] == [1, 2]
            assert (tmp_path / "sweep.csv").exists()

        # compare the two reports the sweep produced
        runs = tmp_path / "runs"
        reports = sorted(runs.glob("report-*.json"))
        assert len(reports) == 2
        code, out = run_cli(capsys, "compare", str(reports[0]), str(reports[1]),
                            "--baseline", reports[0].stem)
        table = json.loads(out)
        assert code == 0
        baseline_row = next(r for r in table if r["label"] == reports[0].stem)
        assert baseline_row["delta_chrF++"] == "+0.00"


class TestBadRunInput:
    """A config, or an input file it names, that fails to load is a one-line
    usage error (exit 2) for run and sweep, before any manifest is written."""

    CONFIG = dict(mode="NMT_ONLY", context="BM25", k=1, corpus_path=CORPUS,
                  lexicon_path=LEXICON, test_path=TEST, draft_path=DRAFTS, output_dir="runs")

    @staticmethod
    def ragmt(cwd, *argv) -> subprocess.CompletedProcess:
        """``python -m ragmt.cli`` in a fresh interpreter, as a shell runs it."""
        path = os.pathsep.join([str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        return subprocess.run([sys.executable, "-m", "ragmt.cli", *argv], cwd=cwd,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})

    @pytest.mark.parametrize("command, config, named", [
        ("run", {"mode": "BOGUS"}, ""),
        ("run", {"corpus_path": "two-columns.tsv"}, "two-columns.tsv"),
        ("run", {"corpus_path": "latin-1.tsv"}, "latin-1.tsv"),
        ("run", {"corpus_path": "missing.tsv"}, ""),
        ("run", "{not json", ""),
        ("run", None, ""),
        ("sweep", {"mode": "BOGUS"}, ""),
        ("sweep", None, ""),
        ("run", {"typo_field": 1}, "'typo_field'"),
        ("run", {"mode": "DIRECT_LLM", "provider": {"replay_dir": "fixtures", "typo": 1}},
         "'typo'"),
        ("run", "[1, 2]", "JSON object"),
        ("run", {"mode": "DIRECT_LLM", "provider": {"replay_dir": "fixtures",
                                                     "temperature": -1}}, "temperature"),
        ("run", {"mode": "DIRECT_LLM", "provider": {"replay_dir": "fixtures",
                                                     "max_in_flight": 0}}, "max_in_flight"),
        ("run", {"mode": "DIRECT_LLM", "provider": {}},
         "base_url is required without replay_dir"),
        *[("run", {"mode": "DIRECT_LLM", "provider": {"base_url": url}}, "base_url")
          for url in ("localhost:8000", "htp://x", "http://")],
        ("run", {"mode": "DIRECT_LLM", "provider": {"base_url": "http://127.0.0.1:9",
                                                     "temperature": float("nan")}},
         "temperature"),
        *[("run", {"mode": "DIRECT_LLM", "provider": {"replay_dir": "fixtures", **change}},
           next(iter(change)))
          for change in ({"embed_batch_size": 0}, {"max_retries": -1},
                         {"request_timeout": 0}, {"request_timeout": float("inf")},
                         {"backoff_base": -1}, {"backoff_base": float("nan")})],
        ("run", {"k": "3"}, "'k'"),
        ("run", {"k": True}, "'k'"),
        ("run", '{"context": "NONE"}', "'mode'"),
        ("sweep", {"typo_field": 1}, "'typo_field'"),
        ("run", {"lexicon_path": "latin-1.tsv", "lexicon_mode": "FULL"}, "latin-1.tsv"),
        ("run", {"draft_path": "latin-1.tsv"}, "latin-1.tsv"),
        ("run", {"draft_path": "three-columns.tsv"}, "three-columns.tsv"),
        ("run", {"draft_path": "duplicate-ids.tsv"},
         "duplicate-ids.tsv: duplicate id 'GEN.1.1' on lines 1 and 3"),
        ("run", {"mode": "DIRECT_LLM", "provider": {"replay_dir": "typo/dir"}},
         "replay_dir 'typo/dir' is not a directory"),
    ], ids=["bogus-mode", "malformed-line", "not-utf8", "missing-corpus", "not-json",
            "missing-config", "sweep-bogus-mode", "sweep-missing-config", "unknown-field",
            "unknown-provider-field", "json-array", "negative-temperature",
            "no-requests-in-flight", "provider-without-url", "url-without-scheme",
            "url-bad-scheme", "url-without-host", "nan-temperature", "no-embed-batch",
            "negative-retries", "zero-timeout", "inf-timeout", "negative-backoff",
            "nan-backoff", "string-k", "bool-k", "no-mode", "sweep-unknown-field",
            "lexicon-not-utf8", "drafts-not-utf8", "drafts-malformed-line",
            "drafts-duplicate-id", "missing-replay-dir"])
    def test_is_usage_error(self, tmp_path, command, config, named):
        (tmp_path / "two-columns.tsv").write_text("only two\tcolumns\n", encoding="utf-8")
        (tmp_path / "three-columns.tsv").write_text("GEN.1.1\tdraft\textra\n", encoding="utf-8")
        (tmp_path / "duplicate-ids.tsv").write_text("GEN.1.1\tone\nGEN.1.2\ttwo\nGEN.1.1\tthree\n",
                                                    encoding="utf-8")
        (tmp_path / "latin-1.tsv").write_bytes("GEN.1.1\tcafé\tt\tNT\n".encode("latin-1"))
        if isinstance(config, dict):
            config = json.dumps({**self.CONFIG, **config})
        if config is not None:
            (tmp_path / "config.json").write_text(config, encoding="utf-8")
        values = ["--values", "1,2", "--csv", "sweep.csv"] if command == "sweep" else []
        result = self.ragmt(tmp_path, command, "--config", "config.json", *values)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        last = result.stderr.splitlines()[-1]
        assert last.startswith(f"ragmt: error: {command} --config config.json: ")
        assert named in last
        assert not list(tmp_path.rglob("manifest-*.json"))
        assert not (tmp_path / "typo").exists()


@pytest.mark.parametrize("values", ["1,,2", "a", "1,2,"])
def test_sweep_rejects_values_that_are_not_integers(values, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", "unread.json", "--values", values])
    assert exc.value.code == 2  # a usage error, before any file is read
    assert "--values: expected comma-separated integers" in capsys.readouterr().err


@pytest.mark.parametrize("argv, prefix", [
    (["corpus", "split", "--corpus", "missing.tsv"], "corpus split: "),
    (["corpus", "leak-check", "--test", TEST, "--aux", "bad.jsonl"], "corpus leak-check: "),
    (["analyze", "oov", "--train", "missing.txt", "--eval", "missing.txt"], "analyze oov: "),
    (["score", "--hyp", "latin-1.txt", "--ref", "latin-1.txt"], "score: "),
    (["compare", "missing.json", "--baseline", "missing"], "compare: "),
    (["score", "--hyp", "two-lines.txt", "--ref", "one-line.txt"], "score: "),
    (["score", "--hyp", "empty.txt", "--ref", "empty.txt"], "score: "),
    (["analyze", "termfreq", "--terms-file", "blank.txt", "--corpus", "one-line.txt"],
     "analyze termfreq: "),
    (["compare", "a.json", "--baseline", "a"], "compare: "),
    (["compare", "a.json", "b.json", "--baseline", "c"], "compare: "),
    (["compare", "a.json", "not-a-report.json", "--baseline", "a"],
     "compare: not-a-report.json: not an evaluation report"),
    (["compare", "a.json", "empty.txt", "--baseline", "a"], "compare: empty.txt: not JSON"),
], ids=["split-missing-corpus", "leak-check-not-an-object", "oov-missing-file",
        "score-not-utf8", "compare-missing-report", "score-unequal-lengths", "score-empty",
        "termfreq-no-terms", "compare-one-report", "compare-unknown-baseline",
        "compare-not-a-report", "compare-not-json"])
def test_bad_input_is_usage_error_for_every_command(tmp_path, monkeypatch, capsys, argv,
                                                    prefix):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.jsonl").write_text("[1, 2]\n", encoding="utf-8")
    (tmp_path / "latin-1.txt").write_bytes("café\n".encode("latin-1"))
    (tmp_path / "two-lines.txt").write_text("a b\nc d\n", encoding="utf-8")
    (tmp_path / "one-line.txt").write_text("a b\n", encoding="utf-8")
    (tmp_path / "empty.txt").write_text("", encoding="utf-8")
    (tmp_path / "blank.txt").write_text("\n  \n", encoding="utf-8")
    for name in ("a", "b"):
        report = {"corpus_bleu": 1.0, "corpus_chrf": 2.0, "metadata": {"test_fingerprint": "t"}}
        (tmp_path / f"{name}.json").write_text(json.dumps(report), encoding="utf-8")
    (tmp_path / "not-a-report.json").write_text('{"corpus_chrf": 2.0}', encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"ragmt: error: {prefix}")


def test_unreadable_manifest_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config = ExperimentConfig.from_dict(TestBadRunInput.CONFIG)
    (tmp_path / "config.json").write_text(json.dumps(config.to_dict()), encoding="utf-8")
    manifest = tmp_path / "runs" / f"manifest-{config.fingerprint()}.json"
    manifest.parent.mkdir()
    manifest.write_text('{"config_fingerprint": "', encoding="utf-8")  # cut off mid-write
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", "config.json"])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    named = manifest.relative_to(tmp_path)
    assert last.startswith(f"ragmt: error: run --config config.json: {named}: not JSON")


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["no-such-command"])
