"""Building the translation and post-editing prompts.

Two prompt modes share one layout:

  * direct    - ask the model to translate the source sentence
  * post-edit - additionally show the NMT draft and ask for a correction

Retrieved parallel examples and glossary entries slot into the same user
message in both modes. This script renders the full grid and prints the
exact text that would be sent to the chat endpoint.

    python3 demos/04_prompt_construction.py
"""

from pathlib import Path

from ragmt.corpus import load_lexicon, load_parallel
from ragmt.prompt import (DHAO_PROFILE, ContextBundle, glossary_block, parse_prompt,
                          render_direct, render_postedit)
from ragmt.retrieval import TokenIndex, fuzzy_word_lists, lexicon_fuzzy_retrieve

DATA = Path(__file__).resolve().parent / "data"

pairs = load_parallel(DATA / "corpus.tsv")
lexicon = load_lexicon(DATA / "lexicon.tsv")

SOURCE = "In the beginning, God created the heavens and the earth."
DRAFT = "Pa petari, Lamatua tao lani ma rai balu."

# ---------------------------------------------------------------------------
# Zero-shot direct prompt: just the system blurb and the source.

zero = render_direct(SOURCE)
print("=== system message (shared by every direct prompt) ===")
print(zero.system)
print()
print("=== zero-shot user message ===")
print(zero.user)
print()

# ---------------------------------------------------------------------------
# Retrieval fills the bundle: fuzzy-word examples plus fuzzy glossary hits.

examples = fuzzy_word_lists(TokenIndex.over_pairs(pairs), SOURCE, 1).union(1)[:3]
gloss = lexicon_fuzzy_retrieve(TokenIndex.over_lexicon(lexicon), SOURCE, 1)[:4]
bundle = ContextBundle(examples=examples,
                       glossary=glossary_block((hit.entry for hit in gloss), DHAO_PROFILE))

postedit = render_postedit(SOURCE, DRAFT, bundle)
print("=== post-edit user message with 3 examples + glossary ===")
print(postedit.user)
print()

# ---------------------------------------------------------------------------
# parse_prompt recovers the structure, which the tests use to audit what
# was actually sent.

parsed = parse_prompt(postedit)
print("parsed back out of the rendered text:")
print("  source:       ", parsed.source)
print("  draft:        ", parsed.draft)
print("  example count:", parsed.example_count)
print("  glossary rows:", parsed.lexicon_count)
