from __future__ import annotations

import pytest

from conftest import GOLDEN_DIR
from ragmt.prompt import (
    DHAO_BLURB,
    DHAO_PROFILE,
    ContextBundle,
    LanguageProfile,
    glossary_block,
    parse_prompt,
    render_direct,
    render_postedit,
)
from ragmt.retrieval import RetrievedExample

SOURCE = "In the beginning, God created the heavens and the earth."
DRAFT = "Pa petari, Lamatua tao lani ma rai balu."


@pytest.fixture
def examples(demo_corpus):
    by_id = {p.id: p for p in demo_corpus}
    return [
        RetrievedExample(pair=by_id["JHN.1.1"], score=0.9, strategy="BM25"),
        RetrievedExample(pair=by_id["MAT.6.9"], score=0.7, strategy="BM25"),
    ]


@pytest.fixture
def glossary_pos(demo_lexicon):
    by_word = {e.source_word: e for e in demo_lexicon}
    return glossary_block([by_word["father"], by_word["light"]], DHAO_PROFILE)


@pytest.fixture
def glossary_nopos(demo_lexicon):
    by_word = {e.source_word: e for e in demo_lexicon}
    return glossary_block([by_word["love"], by_word["father"]], DHAO_PROFILE)


def bundle_grid(examples, glossary_pos, glossary_nopos):
    return {
        "zero": ContextBundle(),
        "two_examples": ContextBundle(examples=examples),
        "glossary_pos": ContextBundle(glossary=glossary_pos),
        "glossary_nopos": ContextBundle(glossary=glossary_nopos),
        "combined_pos": ContextBundle(examples=examples, glossary=glossary_pos),
        "combined_nopos": ContextBundle(examples=examples, glossary=glossary_nopos),
    }


class TestGoldens:
    @pytest.mark.parametrize("case", [
        "zero", "two_examples", "glossary_pos", "glossary_nopos",
        "combined_pos", "combined_nopos",
    ])
    @pytest.mark.parametrize("mode", ["direct", "postedit"])
    def test_user_matches_golden_bytes(self, mode, case, examples, glossary_pos,
                                       glossary_nopos):
        bundle = bundle_grid(examples, glossary_pos, glossary_nopos)[case]
        if mode == "direct":
            rendered = render_direct(SOURCE, bundle)
        else:
            rendered = render_postedit(SOURCE, DRAFT, bundle)
        golden = (GOLDEN_DIR / f"{mode}_{case}.user.txt").read_bytes()
        assert rendered.user.encode("utf-8") == golden

    @pytest.mark.parametrize("mode", ["direct", "postedit"])
    def test_system_matches_golden_bytes(self, mode):
        if mode == "direct":
            rendered = render_direct(SOURCE)
        else:
            rendered = render_postedit(SOURCE, DRAFT)
        golden = (GOLDEN_DIR / f"{mode}.system.txt").read_bytes()
        assert rendered.system.encode("utf-8") == golden


class TestRenderContracts:
    def test_zero_shot_user_is_source_plus_instruction(self):
        rendered = render_direct(SOURCE)
        assert rendered.user == (
            f"Source text (English): {SOURCE}\n\n"
            "Translate the above text from English to Dhao:"
        )

    def test_postedit_includes_draft_line(self):
        rendered = render_postedit(SOURCE, DRAFT)
        assert f"Machine translation (Dhao): {DRAFT}" in rendered.user

    def test_example_count_matches_bundle(self, examples):
        rendered = render_direct(SOURCE, ContextBundle(examples=examples))
        assert rendered.user.count("Dhao: ") == 2
        assert rendered.user.count("English translation: ") == 2

    def test_glossary_line_count_matches_bundle(self, glossary_pos):
        rendered = render_direct(SOURCE, ContextBundle(glossary=glossary_pos))
        assert rendered.user.count("\n- ") == 2

    def test_entry_without_pos_has_no_parenthetical(self, glossary_nopos):
        rendered = render_direct(SOURCE, ContextBundle(glossary=glossary_nopos))
        assert "- love -> hia" in rendered.user
        assert "- love (" not in rendered.user

    def test_rendering_is_pure(self, examples, glossary_pos):
        bundle = ContextBundle(examples=examples, glossary=glossary_pos)
        a = render_postedit(SOURCE, DRAFT, bundle)
        b = render_postedit(SOURCE, DRAFT, bundle)
        assert a == b

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            render_direct("   ")

    def test_empty_draft_rejected(self):
        with pytest.raises(ValueError, match="direct mode"):
            render_postedit(SOURCE, "")

    def test_large_context_renders_without_truncation(self, demo_corpus, demo_lexicon):
        examples = [
            RetrievedExample(pair=p, score=1.0, strategy="FUZZY_WORD", matched_token="x")
            for p in demo_corpus
        ] * 4  # 160 examples
        glossary = glossary_block(demo_lexicon, DHAO_PROFILE)
        rendered = render_postedit(SOURCE, DRAFT, ContextBundle(examples, glossary))
        assert rendered.user.count("English translation: ") == len(examples)
        assert rendered.user.count("\n- ") == len(demo_lexicon)
        # total length is the sum of its parts; nothing dropped
        assert len(rendered.user) > len(examples) * 30

    def test_language_profile_swaps_name(self):
        profile = LanguageProfile(name="Sabu", blurb="Sabu is a language.")
        rendered = render_direct(SOURCE, profile=profile)
        assert "Translate the above text from English to Sabu:" in rendered.user
        assert rendered.system.startswith("Sabu is a language.")
        assert "Dhao" not in rendered.system

    @pytest.mark.parametrize("render", [
        lambda profile: render_direct(SOURCE, profile=profile),
        lambda profile: render_postedit(SOURCE, DRAFT, ContextBundle(), profile=profile),
    ], ids=["direct", "postedit"])
    def test_language_without_blurb_has_no_blurb_paragraph(self, render):
        rendered = render(LanguageProfile(name="Sabu"))
        assert rendered.system.startswith("You are an expert Bible translator in Sabu")
        assert "Dhao" not in rendered.system + rendered.user
        assert render(DHAO_PROFILE).system.startswith(DHAO_BLURB + "\n\nYou are ")


class TestParseRoundTrip:
    def test_recovers_source_and_counts(self, examples, glossary_pos):
        bundle = ContextBundle(examples=examples, glossary=glossary_pos)
        parsed = parse_prompt(render_direct(SOURCE, bundle))
        assert parsed.source == SOURCE
        assert parsed.draft is None
        assert parsed.example_count == 2
        assert parsed.lexicon_count == 2

    def test_recovers_draft(self, examples):
        parsed = parse_prompt(render_postedit(SOURCE, DRAFT, ContextBundle(examples=examples)))
        assert parsed.source == SOURCE
        assert parsed.draft == DRAFT
        assert parsed.example_count == 2
        assert parsed.lexicon_count == 0
