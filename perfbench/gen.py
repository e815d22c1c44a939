"""Seeded synthetic inputs for the benchmark: pool, test set, lexicon, drafts.

The English side is built from English-like syllables with Zipfian word
frequencies, so fuzzy matching sees the many short, similar words that real
English has. The target side maps each English word to a fixed target word,
so retrieved examples and lexicon entries carry real signal. Test sentences
draw part of their words from an OT-only vocabulary, which gives the
domain-shift OOV the pipeline exists for. Drafts corrupt about 30% of the
reference tokens; a third of the corruptions duplicate a token, which the
mock editor's repeat-collapsing undoes.

Usage: python3 perfbench/gen.py --seed 0 --out DIR [--nt 7500 --grammar 500
       --test 500 --lexicon 3000]
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import random
from pathlib import Path

PAPER_SCALE = {"nt": 7500, "grammar": 500, "test": 500, "lexicon": 3000}

ONSETS = ["", "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
          "s", "t", "v", "w", "y", "ch", "sh", "th", "st", "br", "tr", "gr", "pl"]
NUCLEI = ["a", "e", "i", "o", "u", "a", "e", "i", "o", "ea", "ou", "ee"]
CODAS = ["", "", "", "", "", "n", "r", "s", "t", "d", "l", "m", "ng", "st"]
TARGET_ONSETS = ["", "b", "d", "dh", "h", "k", "l", "m", "n", "ng", "p", "r", "t", "w"]
TARGET_NUCLEI = ["a", "e", "i", "o", "u", "aa", "ae"]
POS_TAGS = ["n", "v", "adj", "adv", "prep", ""]

MAIN_TYPES = 24000
OT_ONLY_TYPES = 3000
OT_SLOT_EVERY = 14  # one test word in 14 is OT-only
ZIPF_EXPONENT = 1.05
DRAFT_CORRUPTION = 0.3
STRATA = 16


def _words(rng: random.Random, count: int, syllables: list[str], taken: set[str],
           length_of_rank) -> list[str]:
    """``count`` new distinct words; the word of rank r has length_of_rank(r) letters."""
    out: list[str] = []
    while len(out) < count:
        length = length_of_rank(len(out))
        word = ""
        while len(word) < length:
            word += rng.choice(syllables)
        if len(word) == length and word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _english_length(rank: int) -> int:
    # frequent words are short, as in English; lengths depend on rank only,
    # so the cost of comparing words does not change with the seed
    if rank < 60:
        return 2 + rank % 4
    if rank < 1500:
        return 4 + rank % 5
    return 5 + rank % 7


def _verse_length(i: int) -> int:
    """10..30 words; every run of 21 consecutive verses has each length once."""
    return 10 + (13 * i + 10) % 21


def _zipf_cum_weights(n: int) -> list[float]:
    return list(itertools.accumulate(1.0 / (r + 1) ** ZIPF_EXPONENT for r in range(n)))


class _Language:
    """Vocabularies, word translations and sentence sampling for one seed."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        syllables = [o + n + c for o in ONSETS for n in NUCLEI for c in CODAS]
        taken: set[str] = set()
        self.main = _words(rng, MAIN_TYPES, syllables, taken, _english_length)
        self.ot_only = _words(rng, OT_ONLY_TYPES, syllables, taken, lambda r: 5 + r % 7)
        target_syllables = [o + n for o in TARGET_ONSETS for n in TARGET_NUCLEI]
        target_taken: set[str] = set()
        english = self.main + self.ot_only
        self.target_words = _words(
            rng, len(english), target_syllables, target_taken, _english_length
        )
        self.translate = dict(zip(english, self.target_words))
        self.main_cum = _zipf_cum_weights(len(self.main))
        self.ot_cum = _zipf_cum_weights(len(self.ot_only))
        self.draws = 0

    def _zipf_draw(self, words: list[str], cum: list[float]) -> str:
        # stratified inverse-CDF draw: every run of STRATA consecutive draws
        # covers the frequency range evenly, so a short text gets its fair
        # share of frequent and rare words whatever the seed
        stratum = (self.draws * 7) % STRATA
        self.draws += 1
        u = (stratum + self.rng.random()) / STRATA * cum[-1]
        return words[min(bisect.bisect(cum, u), len(words) - 1)]

    def sentence(self, length: int, ot_slots=()) -> tuple[str, str]:
        """One pair of ``length`` words; the words at ``ot_slots`` are OT-only."""
        words = [
            self._zipf_draw(self.ot_only, self.ot_cum) if j in ot_slots
            else self._zipf_draw(self.main, self.main_cum)
            for j in range(length)
        ]
        source = " ".join(words)
        target = " ".join(self.translate[w] for w in words)
        return source[0].upper() + source[1:] + ".", target + "."

    def draft(self, target: str) -> str:
        """The reference with ~30% of its tokens duplicated, replaced or dropped."""
        rng = self.rng
        tokens = target.rstrip(".").split()
        out: list[str] = []
        for tok in tokens:
            if rng.random() >= DRAFT_CORRUPTION:
                out.append(tok)
                continue
            kind = rng.randrange(3)
            if kind == 0:
                out += [tok, tok]
            elif kind == 1:
                out.append(rng.choice(self.target_words))
        if not out:
            out.append(tokens[0])
        return " ".join(out) + "."


def generate(seed: int, out_dir: str | Path, nt: int = PAPER_SCALE["nt"],
             grammar: int = PAPER_SCALE["grammar"], test: int = PAPER_SCALE["test"],
             lexicon: int = PAPER_SCALE["lexicon"]) -> dict[str, Path]:
    """Write corpus.tsv, test.tsv, lexicon.tsv and drafts.tsv; return their paths."""
    rng = random.Random(seed)
    lang = _Language(rng)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / f"{name}.tsv" for name in ("corpus", "test", "lexicon", "drafts")}

    # Lengths and OOV slots follow a fixed pattern, and only the words
    # depend on the seed, so any prefix of the files costs about the same
    # to process whatever the seed.
    corpus_rows = []
    for i in range(nt):
        src, tgt = lang.sentence(_verse_length(i))
        corpus_rows.append(f"NT{i:05d}\t{src}\t{tgt}\tNT")
    for i in range(grammar):
        src, tgt = lang.sentence(3 + (5 * i + 3) % 8)
        corpus_rows.append(f"GR{i:04d}\t{src}\t{tgt}\tGRAMMAR")
    paths["corpus"].write_text("\n".join(corpus_rows) + "\n", encoding="utf-8")

    test_rows, draft_rows = [], []
    for i in range(test):
        length = _verse_length(i)
        ot_slots = {j for j in range(length) if (7 * i + j) % OT_SLOT_EVERY == 0}
        src, tgt = lang.sentence(length, ot_slots)
        test_rows.append(f"OT{i:04d}\t{src}\t{tgt}\tOT")
        draft_rows.append(f"OT{i:04d}\t{lang.draft(tgt)}")
    paths["test"].write_text("\n".join(test_rows) + "\n", encoding="utf-8")
    paths["drafts"].write_text("\n".join(draft_rows) + "\n", encoding="utf-8")

    # headwords: the most frequent English types, each with one tag
    lex_rows = [
        f"{word}\t{rng.choice(POS_TAGS)}\t{lang.translate[word]}"
        for word in lang.main[:lexicon]
    ]
    paths["lexicon"].write_text("\n".join(lex_rows) + "\n", encoding="utf-8")
    return paths


def input_properties(paths: dict[str, Path], origins=("NT", "GRAMMAR")) -> dict:
    """The input sizes and OOV rates that retrieval and prompt costs depend on."""
    from ragmt.analysis import build_vocab, oov_report
    from ragmt.corpus import load_lexicon, load_parallel

    pool = [p for p in load_parallel(paths["corpus"]) if p.origin in origins]
    test = load_parallel(paths["test"])
    pool_texts = [p.source_text for p in pool]
    test_texts = [p.source_text for p in test]
    oov = oov_report(pool_texts, test_texts)
    return {
        "pool_origins": list(origins),
        "pool_size": len(pool),
        "pool_type_count": len(build_vocab(pool_texts).tokens),
        "test_size": len(test),
        "mean_test_tokens": oov["eval_token_count"] / len(test),
        "lexicon_size": len(load_lexicon(paths["lexicon"])),
        "test_oov_rate_token": oov["oov_rate_token"],
        "test_oov_rate_type": oov["oov_rate_type"],
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    for name, default in PAPER_SCALE.items():
        parser.add_argument(f"--{name}", type=int, default=default)
    args = parser.parse_args(argv)
    paths = generate(args.seed, args.out, args.nt, args.grammar, args.test, args.lexicon)
    print(json.dumps(input_properties(paths), indent=1))


if __name__ == "__main__":
    main()
