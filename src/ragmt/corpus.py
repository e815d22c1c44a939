"""Parallel corpus and lexicon loading, partitioning, and leakage checking.

File formats:
  TSV  — ``id \\t source \\t target \\t origin [\\t book.chapter.verse]``
  JSONL — one object per line with keys id, source, target, origin, ref

When the optional ref column is absent, ids of the form ``BOOK.C.V`` are
parsed into a verse reference; anything else leaves the ref unset.
"""

from __future__ import annotations

import json
import random
import string
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ORIGINS = ("NT", "OT", "GRAMMAR")


class CorpusError(ValueError):
    """Raised for malformed corpus or lexicon files."""


@contextmanager
def naming_errors(path, error: type[ValueError] = CorpusError):
    """Re-raise an ``error`` raised in the block, or a failure to decode
    ``path`` as UTF-8 or as JSON, as an ``error`` whose message starts with
    ``path``."""
    try:
        yield
    except UnicodeDecodeError as exc:  # before ``error``, which may be ValueError
        raise error(f"{path}: not UTF-8 ({exc})") from None
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not JSON ({exc})") from None
    except error as exc:
        raise error(f"{path}: {exc}") from None


@dataclass(frozen=True, order=True)
class VerseRef:
    book: str
    chapter: int
    verse: int

    def __post_init__(self):
        if not self.book:
            raise CorpusError("verse ref requires a non-empty book name")
        if self.chapter < 1 or self.verse < 1:
            raise CorpusError(f"chapter/verse must be >= 1, got {self.chapter}:{self.verse}")

    @classmethod
    def parse(cls, text: str) -> "VerseRef":
        parts = text.split(".")
        if len(parts) != 3:
            raise CorpusError(f"cannot parse verse ref {text!r} (want BOOK.C.V)")
        book, chapter, verse = parts
        try:
            return cls(book, int(chapter), int(verse))
        except ValueError as exc:
            raise CorpusError(f"cannot parse verse ref {text!r}: {exc}") from None

    def __str__(self) -> str:
        return f"{self.book}.{self.chapter}.{self.verse}"


@dataclass(frozen=True)
class ParallelPair:
    id: str
    source_text: str
    target_text: str
    origin: str
    ref: VerseRef | None = None

    def __post_init__(self):
        if not self.id:
            raise CorpusError("pair id must be non-empty")
        if not self.source_text.strip():
            raise CorpusError(f"empty source_text for id {self.id!r}")
        if not self.target_text.strip():
            raise CorpusError(f"empty target_text for id {self.id!r}")
        if self.origin not in ORIGINS:
            raise CorpusError(f"unknown origin {self.origin!r} for id {self.id!r}")


@dataclass(frozen=True)
class LexiconEntry:
    source_word: str
    target_word: str
    pos: str | None = None

    def __post_init__(self):
        if not self.source_word or not self.target_word:
            raise CorpusError("lexicon entries need non-empty source and target words")


@dataclass(frozen=True)
class PartitionSpec:
    train_fraction: float
    test_book: str
    test_verses: int
    seed: int

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise CorpusError(f"train_fraction must be in (0,1), got {self.train_fraction}")
        if self.test_verses < 1:
            raise CorpusError("test_verses must be >= 1")


@dataclass
class Partition:
    train: list[ParallelPair]
    validation: list[ParallelPair]
    test: list[ParallelPair]


@dataclass
class LeakageCollision:
    test_id: str
    aux_id: str
    side: str  # "source" or "target"


@dataclass
class LeakageReport:
    collisions: list[LeakageCollision]

    @property
    def clean(self) -> bool:
        return not self.collisions


_FIELD_NAMES = {"id": "id", "source": "source_text", "target": "target_text", "origin": "origin"}


def _json_fields(line: str, lineno: int, keys: tuple[str, ...]) -> dict:
    """One JSONL line as an object whose ``keys`` hold strings or null, when
    present."""
    try:
        fields = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"line {lineno}: invalid JSON ({exc.msg})") from None
    if not isinstance(fields, dict):
        raise CorpusError(f"line {lineno}: expected a JSON object, got {type(fields).__name__}")
    for key in keys:
        if not isinstance(fields.get(key, ""), (str, type(None))):
            raise CorpusError(
                f"line {lineno}: {key} must be a string, got {type(fields[key]).__name__}")
    return fields


def _pair_from_fields(fields: dict, lineno: int) -> ParallelPair:
    for key, name in _FIELD_NAMES.items():
        if not str(fields.get(key, "") or "").strip():
            raise CorpusError(f"line {lineno}: empty {name}")
    ref = None
    ref_text = fields.get("ref")
    if ref_text:
        ref = VerseRef.parse(str(ref_text))
    else:
        try:
            ref = VerseRef.parse(fields["id"])
        except CorpusError:
            ref = None
    try:
        return ParallelPair(
            id=fields["id"],
            source_text=fields["source"],
            target_text=fields["target"],
            origin=fields["origin"],
            ref=ref,
        )
    except CorpusError as exc:
        raise CorpusError(f"line {lineno}: {exc}") from None


def _is_jsonl(path: Path) -> bool:
    """Whether ``path`` is read and written as JSON lines: its suffix alone
    decides, and every other suffix is TSV."""
    return path.suffix.lower() in (".jsonl", ".json")


def load_parallel(path: str | Path) -> list[ParallelPair]:
    """Load and validate a parallel corpus file, preserving row order."""
    path = Path(path)
    jsonl = _is_jsonl(path)
    pairs: list[ParallelPair] = []
    seen: dict[str, int] = {}
    with naming_errors(path), open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if not jsonl:
                cols = line.split("\t")
                if len(cols) not in (4, 5):
                    raise CorpusError(f"line {lineno}: expected 4 or 5 TSV columns, got {len(cols)}")
                fields = dict(zip(("id", "source", "target", "origin", "ref"), cols))
            else:
                fields = _json_fields(line, lineno, (*_FIELD_NAMES, "ref"))
            pair = _pair_from_fields(fields, lineno)
            if pair.id in seen:
                raise CorpusError(
                    f"duplicate id {pair.id!r} on lines {seen[pair.id]} and {lineno}"
                )
            seen[pair.id] = lineno
            pairs.append(pair)
    return pairs


def save_parallel(path: str | Path, pairs: list[ParallelPair]) -> None:
    path = Path(path)
    jsonl = _is_jsonl(path)
    with open(path, "w", encoding="utf-8") as fh:
        for pair in pairs:
            if not jsonl:
                cols = [pair.id, pair.source_text, pair.target_text, pair.origin]
                if pair.ref is not None:
                    cols.append(str(pair.ref))
                fh.write("\t".join(cols) + "\n")
            else:
                obj = {
                    "id": pair.id,
                    "source": pair.source_text,
                    "target": pair.target_text,
                    "origin": pair.origin,
                }
                if pair.ref is not None:
                    obj["ref"] = str(pair.ref)
                fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def load_lexicon(path: str | Path) -> list[LexiconEntry]:
    """Load a lexicon file (TSV: source \\t pos \\t target, pos may be blank)."""
    path = Path(path)
    jsonl = _is_jsonl(path)
    entries: list[LexiconEntry] = []
    seen: dict[tuple, int] = {}
    with naming_errors(path), open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if not jsonl:
                cols = line.split("\t")
                if len(cols) == 3:
                    source, pos, target = cols
                elif len(cols) == 2:
                    source, pos, target = cols[0], "", cols[1]
                else:
                    raise CorpusError(f"line {lineno}: expected 2 or 3 TSV columns, got {len(cols)}")
            else:
                obj = _json_fields(line, lineno, ("source_word", "pos", "target_word"))
                source = obj.get("source_word") or ""
                pos = obj.get("pos") or ""
                target = obj.get("target_word") or ""
            if not source.strip():
                raise CorpusError(f"line {lineno}: empty source_word")
            if not target.strip():
                raise CorpusError(f"line {lineno}: empty target_word")
            entry = LexiconEntry(source_word=source, target_word=target, pos=pos or None)
            key = (entry.source_word, entry.pos, entry.target_word)
            if key in seen:
                raise CorpusError(
                    f"duplicate lexicon entry {key} on lines {seen[key]} and {lineno}"
                )
            seen[key] = lineno
            entries.append(entry)
    return entries


def save_lexicon(path: str | Path, entries: list[LexiconEntry]) -> None:
    path = Path(path)
    jsonl = _is_jsonl(path)
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            if not jsonl:
                fh.write(f"{entry.source_word}\t{entry.pos or ''}\t{entry.target_word}\n")
            else:
                obj = {"source_word": entry.source_word, "target_word": entry.target_word}
                if entry.pos:
                    obj["pos"] = entry.pos
                fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def partition(pairs: list[ParallelPair], spec: PartitionSpec) -> Partition:
    """Split NT pairs into train/validation and select the held-out test book.

    The NT split is a seeded shuffle; the test set is the first
    ``spec.test_verses`` verses of ``spec.test_book`` in canonical
    (chapter, verse) order, with sub-verse segments keeping file order.
    """
    nt = [p for p in pairs if p.origin == "NT"]
    if not nt:
        raise CorpusError("no NT pairs to partition")

    order = list(range(len(nt)))
    random.Random(spec.seed).shuffle(order)
    n_train = int(round(spec.train_fraction * len(nt)))
    n_train = min(max(n_train, 0), len(nt))
    train = [nt[i] for i in sorted(order[:n_train])]
    validation = [nt[i] for i in sorted(order[n_train:])]

    candidates = [
        (idx, p) for idx, p in enumerate(pairs)
        if p.origin == "OT" and p.ref is not None and p.ref.book == spec.test_book
    ]
    if not candidates:
        raise CorpusError(f"test selector matched no OT pairs for book {spec.test_book!r}")
    candidates.sort(key=lambda item: (item[1].ref.chapter, item[1].ref.verse, item[0]))

    test: list[ParallelPair] = []
    verses_seen: set[tuple[int, int]] = set()
    for _, pair in candidates:
        key = (pair.ref.chapter, pair.ref.verse)
        if key not in verses_seen and len(verses_seen) >= spec.test_verses:
            break
        verses_seen.add(key)
        test.append(pair)
    return Partition(train=train, validation=validation, test=test)


def normalize_for_leakage(text: str) -> str:
    """Lowercase, collapse whitespace, strip leading/trailing punctuation."""
    collapsed = " ".join(text.lower().split())
    return collapsed.strip(string.punctuation + " ")


def leakage_check(test: list[ParallelPair], aux: list[ParallelPair]) -> LeakageReport:
    """Report test pairs whose normalized source or target appears in aux."""
    aux_sources: dict[str, str] = {}
    aux_targets: dict[str, str] = {}
    for pair in aux:
        aux_sources.setdefault(normalize_for_leakage(pair.source_text), pair.id)
        aux_targets.setdefault(normalize_for_leakage(pair.target_text), pair.id)

    collisions: list[LeakageCollision] = []
    for pair in test:
        src = normalize_for_leakage(pair.source_text)
        tgt = normalize_for_leakage(pair.target_text)
        if src in aux_sources:
            collisions.append(LeakageCollision(pair.id, aux_sources[src], "source"))
        if tgt in aux_targets:
            collisions.append(LeakageCollision(pair.id, aux_targets[tgt], "target"))
    return LeakageReport(collisions=collisions)
