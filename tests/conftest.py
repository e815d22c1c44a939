from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import settings

from ragmt.corpus import LexiconEntry, ParallelPair, load_lexicon, load_parallel

# Property tests draw the same examples on every run, and a slow host cannot
# fail them on time alone. "ragmt-deep" draws five times as many; select it
# with pytest's --hypothesis-profile=ragmt-deep.
settings.register_profile("ragmt", derandomize=True, deadline=None, max_examples=60)
settings.register_profile("ragmt-deep", settings.get_profile("ragmt"), max_examples=300)
settings.load_profile("ragmt")

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMO_DATA = REPO_ROOT / "demos" / "data"
GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "goldens"

WORDS = [
    "father", "mother", "water", "light", "darkness", "earth", "sky", "sea",
    "day", "night", "king", "sheep", "shepherd", "bread", "wine", "fish",
    "mountain", "river", "city", "garden", "tree", "stone", "fire", "wind",
    "voice", "word", "heart", "hand", "eye", "house", "road", "door",
]


def make_pairs(count: int, seed: int, origin: str = "NT") -> list[ParallelPair]:
    """Synthetic corpus with overlapping vocabulary for retrieval tests."""
    rng = random.Random(seed)
    pairs = []
    for i in range(count):
        length = rng.randint(4, 12)
        source = " ".join(rng.choice(WORDS) for _ in range(length))
        target = " ".join(rng.choice(WORDS)[::-1] for _ in range(length))
        pairs.append(
            ParallelPair(id=f"doc{i:04d}", source_text=source, target_text=target,
                         origin=origin)
        )
    return pairs


def char_ngrams(text: str, n_min: int, n_max: int) -> Counter:
    """Multiset of character n-grams of orders n_min..n_max, whitespace
    removed first: the Counter oracle for the numpy n-gram counts."""
    squeezed = "".join(text.split())
    grams: Counter = Counter()
    for n in range(n_min, n_max + 1):
        grams.update(squeezed[i : i + n] for i in range(len(squeezed) - n + 1))
    return grams


@pytest.fixture(scope="session")
def demo_corpus() -> list[ParallelPair]:
    return load_parallel(DEMO_DATA / "corpus.tsv")


@pytest.fixture(scope="session")
def demo_test_pairs() -> list[ParallelPair]:
    return load_parallel(DEMO_DATA / "test.tsv")


@pytest.fixture(scope="session")
def demo_lexicon() -> list[LexiconEntry]:
    return load_lexicon(DEMO_DATA / "lexicon.tsv")
