"""Prompt rendering for direct translation and post-editing.

The templates are frozen byte-for-byte (golden files live in the test
suite); only the language profile text is configurable. Rendering is pure:
identical inputs always produce identical bytes.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass, field

from .corpus import LexiconEntry
from .retrieval import RetrievedExample, RetrievedLexicon

MODE_DIRECT = "direct"
MODE_POST_EDIT = "postedit"

DHAO_BLURB = (
    "Dhao is a member of the Sumba-Flores branch of the Malayo-Polynesian "
    "language family. It is spoken in Ndao Island in the Lesser Sunda Islands "
    "in Indonesia by about 5,000 people. It is classified as a member of the "
    "Sumba branch of Malayo-Polynesian languages, but may be a Papuan "
    "language. It is also known as Ndao, Ndaonese or Ndaundau."
)


@dataclass(frozen=True)
class LanguageProfile:
    """Target-language identity injected into the system messages; a
    language without a blurb gets no blurb paragraph."""

    name: str
    blurb: str = ""


DHAO_PROFILE = LanguageProfile("Dhao", DHAO_BLURB)


def _blurb(profile: LanguageProfile) -> str:
    return f"{profile.blurb}\n\n" if profile.blurb else ""


@dataclass
class ContextBundle:
    """What a prompt shows besides its source and draft. ``glossary``, when
    not empty, is a glossary block ``glossary_block`` rendered ahead, which
    many prompts share; it stands in for ``lexicon``."""

    examples: list[RetrievedExample] = field(default_factory=list)
    lexicon: list[RetrievedLexicon] = field(default_factory=list)
    glossary: str = ""


@dataclass(frozen=True)
class RenderedPrompt:
    system: str
    user: str
    mode: str


@dataclass
class ParsedPrompt:
    source: str
    draft: str | None
    example_count: int
    lexicon_count: int


def _direct_system(profile: LanguageProfile) -> str:
    return (
        _blurb(profile)
        + f"You are an expert Bible translator in {profile.name} language. "
        f"Your job is to translate bible verses from English to {profile.name} "
        "language, providing accurate and faithful translations that maintain "
        "the meaning and context of the source text. When provided with "
        "glossary entries or example translations, use them as reference to "
        "help ensure correct translation. You must respond ONLY with your "
        f"translation in {profile.name} - no explanations, no reasoning, no "
        "additional text."
    )


def _postedit_system(profile: LanguageProfile) -> str:
    return (
        _blurb(profile)
        + f"You are an expert Bible translator in {profile.name} language. "
        f"Your job is to correct and verify machine generated bible verses in "
        f"{profile.name} language which is translated from the English "
        "language. Only make changes when necessary, ensuring that the "
        f"post-edited {profile.name.lower()} verse is aligned with the source "
        "English verse. When provided with glossary entries or example "
        "translations, use them as reference to help ensure correct "
        "translation. You must respond ONLY with the corrected translation "
        "text - no explanations, no reasoning, no additional text."
    )


def _example_block(examples: list[RetrievedExample], profile: LanguageProfile) -> str:
    header = (
        "To help with the translation, here are some example parallel "
        f"sentences between {profile.name} and English:"
    )
    rendered = [
        f"{profile.name}: {ex.pair.target_text}\nEnglish translation: {ex.pair.source_text}"
        for ex in examples
    ]
    return header + "\n\n" + "\n\n".join(rendered)


def glossary_block(entries: Iterable[LexiconEntry], profile: LanguageProfile) -> str:
    """The glossary block of a prompt: a header and one line per entry."""
    header = (
        "To help with the translation, here is a word list between English "
        f"and {profile.name} in the format: English word (pos tag) -> "
        f"{profile.name} word:"
    )
    lines = []
    for entry in entries:
        if entry.pos:
            lines.append(f"- {entry.source_word} ({entry.pos}) -> {entry.target_word}")
        else:
            lines.append(f"- {entry.source_word} -> {entry.target_word}")
    return header + "\n" + "\n".join(lines)


def _context_blocks(bundle: ContextBundle, profile: LanguageProfile) -> list[str]:
    blocks = []
    if bundle.examples:
        blocks.append(_example_block(bundle.examples, profile))
    if bundle.glossary:
        blocks.append(bundle.glossary)
    elif bundle.lexicon:
        blocks.append(glossary_block((item.entry for item in bundle.lexicon), profile))
    return blocks


def render_direct(
    source: str,
    bundle: ContextBundle | None = None,
    profile: LanguageProfile = DHAO_PROFILE,
) -> RenderedPrompt:
    """Direct-translation prompt: context blocks, source line, instruction."""
    if not source.strip():
        raise ValueError("source must be non-empty")
    bundle = bundle or ContextBundle()
    parts = _context_blocks(bundle, profile)
    parts.append(
        f"Source text (English): {source}\n\n"
        f"Translate the above text from English to {profile.name}:"
    )
    return RenderedPrompt(
        system=_direct_system(profile), user="\n\n".join(parts), mode=MODE_DIRECT
    )


def render_postedit(
    source: str,
    draft: str,
    bundle: ContextBundle | None = None,
    profile: LanguageProfile = DHAO_PROFILE,
) -> RenderedPrompt:
    """Post-editing prompt: context blocks, source, machine draft, instruction."""
    if not source.strip():
        raise ValueError("source must be non-empty")
    if not draft.strip():
        raise ValueError("post-editing requires a non-empty draft; use direct mode instead")
    bundle = bundle or ContextBundle()
    parts = _context_blocks(bundle, profile)
    parts.append(
        f"Source text (English): {source}\n\n"
        f"Machine translation ({profile.name}): {draft}\n\n"
        "Correct the machine translation if necessary:"
    )
    return RenderedPrompt(
        system=_postedit_system(profile), user="\n\n".join(parts), mode=MODE_POST_EDIT
    )


def parse_prompt(
    prompt: RenderedPrompt, profile: LanguageProfile = DHAO_PROFILE
) -> ParsedPrompt:
    """Recover source, draft, and context counts from a rendered prompt."""
    user = prompt.user
    example_count = len(re.findall(rf"^{re.escape(profile.name)}: ", user, flags=re.M))
    lexicon_count = len(re.findall(r"^- .+ -> .+$", user, flags=re.M))

    source_match = re.search(
        r"^Source text \(English\): (.*)$", user, flags=re.M
    )
    if not source_match:
        raise ValueError("prompt does not contain a source line")
    draft_match = re.search(
        rf"^Machine translation \({re.escape(profile.name)}\): (.*)$", user, flags=re.M
    )
    return ParsedPrompt(
        source=source_match.group(1),
        draft=draft_match.group(1) if draft_match else None,
        example_count=example_count,
        lexicon_count=lexicon_count,
    )
