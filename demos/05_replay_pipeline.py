"""Running the full post-editing pipeline offline with replay fixtures.

The provider reads every request from a record directory, keyed by a
content hash of the request: one JSON file per chat request, and one
``emb-<hash>.json`` file per embedding reply that maps each text's key to
its record. A live run writes its misses there as its cache; point
``replay_dir`` at such a directory and the same provider never sends, so
the whole pipeline becomes bit-reproducible with zero network traffic. The
fixtures below are hand-written one file per request, chat and embedding
alike; that older per-text embedding layout is still read.

This demo synthesizes its own fixtures with a toy "post-editor" (it just
collapses repetition loops in the NMT drafts), then runs the pipeline in
replay mode and compares the result against the NMT-only baseline.

    python3 demos/05_replay_pipeline.py
"""

import json
import tempfile
from pathlib import Path

from ragmt.corpus import load_lexicon, load_parallel
from ragmt.pipeline import ExperimentConfig, compare, load_drafts, run_experiment
from ragmt.prompt import ContextBundle, render_postedit
from ragmt.provider import Provider, ProviderConfig, chat_request_key, embedding_request_key
from ragmt.retrieval import (
    EmbeddingIndex,
    TokenIndex,
    dense_retrieve,
    fuzzy_word_retrieve,
    lexicon_full,
)

DATA = Path(__file__).resolve().parent / "data"
WORK = Path(tempfile.mkdtemp(prefix="ragmt-demo-"))
FIXTURES = WORK / "fixtures"
FIXTURES.mkdir()
MODEL = "demo-editor"


def simulated_postedit(draft: str) -> str:
    """Stand-in for an LLM post-editor: collapse repetition loops."""
    out = []
    for tok in draft.split():
        if not out or out[-1] != tok:
            out.append(tok)
    return " ".join(out)


# ---------------------------------------------------------------------------
# Baseline: score the raw NMT drafts. No provider, no network.

def config_for(mode, **overrides):
    data = dict(
        mode=mode,
        corpus_path=str(DATA / "corpus.tsv"),
        lexicon_path=str(DATA / "lexicon.tsv"),
        test_path=str(DATA / "test.tsv"),
        draft_path=str(DATA / "drafts.tsv"),
        output_dir=str(WORK / "runs"),
    )
    data.update(overrides)
    return ExperimentConfig.from_dict(data)


baseline_config = config_for("NMT_ONLY")
baseline_report, _ = run_experiment(baseline_config)
print(f"NMT-only baseline: chrF++ {baseline_report.corpus_chrf:.2f}, "
      f"{baseline_report.bleu_label} {baseline_report.corpus_bleu:.2f}\n")

# ---------------------------------------------------------------------------
# Synthesize chat fixtures: render the exact prompt the pipeline will
# send for each test sentence, answer it with the toy editor, and store
# the exchange under its content-hash key.

postedit_kwargs = dict(context="FUZZY_WORD", n=2, lexicon_mode="FULL",
                       retrieval_corpus="NT_PLUS_GRAMMAR")
pairs = load_parallel(DATA / "corpus.tsv")
pool = [p for p in pairs if p.origin in ("NT", "GRAMMAR")]
lexicon = load_lexicon(DATA / "lexicon.tsv")
drafts = load_drafts(DATA / "drafts.tsv")
test_pairs = load_parallel(DATA / "test.tsv")

words = TokenIndex.over_pairs(pool)  # built once, shared by every sentence
for pair in test_pairs:
    bundle = ContextBundle(
        examples=fuzzy_word_retrieve(words, pair.source_text, 2),
        lexicon=lexicon_full(lexicon),
    )
    rendered = render_postedit(pair.source_text, drafts[pair.id], bundle)
    key = chat_request_key(MODEL, 0.0, rendered.system, rendered.user)
    record = {
        "kind": "chat",
        "request": {"model": MODEL, "temperature": 0.0,
                    "system": rendered.system, "user": rendered.user},
        "response_text": simulated_postedit(drafts[pair.id]),
        "latency": 0.0,
        "token_usage": None,
    }
    (FIXTURES / f"{key}.json").write_text(
        json.dumps(record, sort_keys=True, ensure_ascii=False), encoding="utf-8"
    )
print(f"wrote {len(test_pairs)} chat fixtures to {FIXTURES}\n")

# ---------------------------------------------------------------------------
# Replay run: identical retrieval + prompts regenerate identical request
# keys, so every completion is served from disk.

replay = ProviderConfig(model_name=MODEL, replay_dir=str(FIXTURES))
postedit_config = config_for("POST_EDIT", provider=vars(replay).copy(),
                             **postedit_kwargs)
postedit_report, manifest = run_experiment(postedit_config)
print(f"post-edit (replay): chrF++ {postedit_report.corpus_chrf:.2f}, "
      f"{postedit_report.bleu_label} {postedit_report.corpus_bleu:.2f}")
print(f"mean effective k:   {manifest.effective_k_mean:.1f} examples/sentence\n")

table = compare(
    {"nmt_only": baseline_report, "post_edit_replay": postedit_report},
    baseline="nmt_only",
)
print(f"{'system':<18} {'chrF++':>7} {'delta':>7}")
for row in table:
    print(f"{row['label']:<18} {row['chrF++']:7.2f} {row['delta_chrF++']:>7}")
print()

# ---------------------------------------------------------------------------
# Dense retrieval through the same fixture mechanism: store one embedding
# record per sentence (a toy character-histogram vector) and query the
# index through a provider with replay_dir set.

import math  # noqa: E402

EMBED_MODEL = "demo-embed"


def toy_embedding(text: str) -> list[float]:
    vec = [1.0] + [0.0] * 15
    for ch in text:
        vec[ord(ch) % 16] += 1.0
    norm = math.sqrt(sum(v * v for v in vec))
    return [v / norm for v in vec]


query = test_pairs[0].source_text
for text in [p.source_text for p in pool] + [query]:
    key = embedding_request_key(EMBED_MODEL, text)
    record = {"kind": "embedding",
              "request": {"model": EMBED_MODEL, "text": text},
              "vector": toy_embedding(text)}
    (FIXTURES / f"{key}.json").write_text(
        json.dumps(record, sort_keys=True, ensure_ascii=False), encoding="utf-8"
    )

provider = Provider(ProviderConfig(
    model_name=MODEL, embedding_model_name=EMBED_MODEL,
    replay_dir=str(FIXTURES),
))
# .vectors is one (pool size × 16) float64 array of unit rows, in pool
# order; the index adopts it without a copy
matrix = provider.embed([p.source_text for p in pool]).vectors
index = EmbeddingIndex(pool, matrix)
hits = dense_retrieve(index, provider.embed([query]).vectors[0], 3)
print("dense retrieval (replayed embeddings) for:", query)
for r in hits:
    print(f"  {r.score:7.4f}  {r.pair.id:<10} {r.pair.source_text}")
print(f"\nnetwork requests issued in replay: {provider.request_count}")
print(f"work dir (fixtures, manifests, reports): {WORK}")
