from __future__ import annotations

import json

import pytest

from ragmt.corpus import (
    CorpusError,
    LexiconEntry,
    ParallelPair,
    PartitionSpec,
    VerseRef,
    leakage_check,
    load_lexicon,
    load_parallel,
    normalize_for_leakage,
    partition,
    save_lexicon,
    save_parallel,
)


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadParallel:
    def test_tsv_row_maps_fields(self, tmp_path):
        f = _write(tmp_path / "c.tsv", ["GEN.1.1\tIn the beginning...\tPa petari...\tOT"])
        pairs = load_parallel(f)
        assert len(pairs) == 1
        p = pairs[0]
        assert p.origin == "OT"
        assert p.ref == VerseRef("GEN", 1, 1)
        assert p.source_text == "In the beginning..."

    def test_row_order_preserved(self, tmp_path):
        rows = [f"id{i}\tsource {i}\ttarget {i}\tNT" for i in (3, 1, 2)]
        pairs = load_parallel(_write(tmp_path / "c.tsv", rows))
        assert [p.id for p in pairs] == ["id3", "id1", "id2"]

    def test_duplicate_id_cites_both_lines(self, tmp_path):
        rows = [
            "a\ts\tt\tNT", "b\ts\tt\tNT", "dup\ts\tt\tNT",
            "c\ts\tt\tNT", "d\ts\tt\tNT", "e\ts\tt\tNT",
            "f\ts\tt\tNT", "g\ts\tt\tNT", "dup\ts\tt\tNT",
        ]
        with pytest.raises(CorpusError, match=r"dup.*lines 3 and 9"):
            load_parallel(_write(tmp_path / "c.tsv", rows))

    def test_empty_target_names_line(self, tmp_path):
        rows = ["a\ts\tt\tNT", "b\tsource\t\tNT"]
        with pytest.raises(CorpusError, match=r"line 2.*empty target_text"):
            load_parallel(_write(tmp_path / "c.tsv", rows))

    def test_bad_origin_rejected(self, tmp_path):
        with pytest.raises(CorpusError, match="origin"):
            load_parallel(_write(tmp_path / "c.tsv", ["a\ts\tt\tAPOCRYPHA"]))

    def test_jsonl_round_trip_identity(self, tmp_path):
        pairs = [
            ParallelPair("GEN.2.3", "source one", "target one", "OT", VerseRef("GEN", 2, 3)),
            ParallelPair("x1", "source two", "target two", "GRAMMAR"),
        ]
        for fmt in ("tsv", "jsonl"):
            path = tmp_path / f"c.{fmt}"
            save_parallel(path, pairs)
            assert load_parallel(path) == pairs

    @pytest.mark.parametrize("bad, message", [
        ([1, 2], "expected a JSON object, got list"),
        ("GEN.1.1", "expected a JSON object, got str"),
        (None, "expected a JSON object, got NoneType"),
        ({"id": 5, "source": "s", "target": "t", "origin": "NT"}, "id must be a string, got int"),
        ({"id": "a", "source": ["s"], "target": "t", "origin": "NT"},
         "source must be a string, got list"),
        ({"id": "a", "source": "s", "target": {"t": 1}, "origin": "NT"},
         "target must be a string, got dict"),
        ({"id": "a", "source": "s", "target": "t", "origin": True},
         "origin must be a string, got bool"),
        ({"id": "GEN.1.1", "source": "s", "target": "t", "origin": "OT", "ref": 1.5},
         "ref must be a string, got float"),
    ], ids=["array", "string", "null", "int-id", "list-source", "object-target",
            "bool-origin", "float-ref"])
    def test_jsonl_line_that_is_not_a_pair_names_file_and_line(self, tmp_path, bad, message):
        good = json.dumps({"id": "x1", "source": "s", "target": "t", "origin": "NT"})
        path = _write(tmp_path / "c.jsonl", [good, json.dumps(bad)])
        with pytest.raises(CorpusError) as exc:
            load_parallel(path)
        assert str(exc.value) == f"{path}: line 2: {message}"


class TestLoadLexicon:
    def test_row_with_pos(self, tmp_path):
        entries = load_lexicon(_write(tmp_path / "l.tsv", ["father\tnoun\tama"]))
        assert entries == [LexiconEntry("father", "ama", "noun")]

    def test_missing_target_errors_with_line(self, tmp_path):
        with pytest.raises(CorpusError, match="line 2"):
            load_lexicon(_write(tmp_path / "l.tsv", ["father\tnoun\tama", "mother\tnoun\t"]))

    def test_duplicate_triple_rejected(self, tmp_path):
        rows = ["father\tnoun\tama", "father\tnoun\tama"]
        with pytest.raises(CorpusError, match="duplicate"):
            load_lexicon(_write(tmp_path / "l.tsv", rows))

    def test_same_word_different_pos_allowed(self, tmp_path):
        rows = ["run\tnoun\trora", "run\tverb\trari"]
        assert len(load_lexicon(_write(tmp_path / "l.tsv", rows))) == 2

    def test_large_file_count(self, tmp_path):
        rows = [f"word{i}\tnoun\ttarget{i}" for i in range(2377)]
        assert len(load_lexicon(_write(tmp_path / "l.tsv", rows))) == 2377

    def test_round_trip(self, tmp_path, demo_lexicon):
        path = tmp_path / "l.tsv"
        save_lexicon(path, demo_lexicon)
        assert load_lexicon(path) == demo_lexicon

    @pytest.mark.parametrize("bad, message", [
        ([1, 2], "expected a JSON object, got list"),
        (3, "expected a JSON object, got int"),
        ({"source_word": 3, "target_word": "ama"}, "source_word must be a string, got int"),
        ({"source_word": "father", "target_word": ["ama"]},
         "target_word must be a string, got list"),
        ({"source_word": "father", "target_word": "ama", "pos": 1},
         "pos must be a string, got int"),
        ({"source_word": None, "target_word": "ama"}, "empty source_word"),
    ], ids=["array", "number", "int-source", "list-target", "int-pos", "null-source"])
    def test_jsonl_line_that_is_not_an_entry_names_file_and_line(self, tmp_path, bad,
                                                                 message):
        good = json.dumps({"source_word": "mother", "target_word": "ina"})
        path = _write(tmp_path / "l.jsonl", [good, json.dumps(bad)])
        with pytest.raises(CorpusError) as exc:
            load_lexicon(path)
        assert str(exc.value) == f"{path}: line 2: {message}"

    def test_jsonl_null_pos_is_no_pos(self, tmp_path):
        line = json.dumps({"source_word": "father", "target_word": "ama", "pos": None})
        assert load_lexicon(_write(tmp_path / "l.jsonl", [line])) == [
            LexiconEntry("father", "ama")]


def _nt_pairs(n):
    return [ParallelPair(f"nt{i}", f"src {i}", f"tgt {i}", "NT") for i in range(n)]


def _ot_pairs(book="GEN", chapters=2, verses=300):
    pairs = []
    for c in range(1, chapters + 1):
        for v in range(1, verses + 1):
            pairs.append(ParallelPair(
                f"{book}.{c}.{v}", f"ot src {c} {v}", f"ot tgt {c} {v}", "OT",
                VerseRef(book, c, v),
            ))
    return pairs


class TestPartition:
    def test_95_5_split(self):
        spec = PartitionSpec(0.95, "GEN", 500, seed=7)
        part = partition(_nt_pairs(100) + _ot_pairs(), spec)
        assert len(part.train) == 95
        assert len(part.validation) == 5
        assert not {p.id for p in part.train} & {p.id for p in part.validation}

    def test_set_partition_of_nt(self):
        pairs = _nt_pairs(137) + _ot_pairs()
        part = partition(pairs, PartitionSpec(0.95, "GEN", 10, seed=1))
        nt_ids = {p.id for p in pairs if p.origin == "NT"}
        assert {p.id for p in part.train} | {p.id for p in part.validation} == nt_ids
        assert len(part.train) + len(part.validation) == len(nt_ids)
        assert all(p.origin == "OT" for p in part.test)

    def test_first_500_genesis_in_canonical_order(self):
        part = partition(_nt_pairs(20) + _ot_pairs(chapters=3, verses=200),
                         PartitionSpec(0.95, "GEN", 500, seed=0))
        assert len(part.test) == 500
        refs = [(p.ref.chapter, p.ref.verse) for p in part.test]
        assert refs == sorted(refs)
        assert refs[0] == (1, 1)
        assert refs[-1] == (3, 100)

    def test_subverse_segments_keep_file_order(self):
        sub = [
            ParallelPair("GEN.1.1a", "first half", "tgt a", "OT", VerseRef("GEN", 1, 1)),
            ParallelPair("GEN.1.1b", "second half", "tgt b", "OT", VerseRef("GEN", 1, 1)),
        ]
        part = partition(_nt_pairs(5) + sub, PartitionSpec(0.5, "GEN", 1, seed=0))
        assert [p.id for p in part.test] == ["GEN.1.1a", "GEN.1.1b"]

    def test_deterministic_under_seed(self):
        pairs = _nt_pairs(100) + _ot_pairs()
        spec = PartitionSpec(0.95, "GEN", 500, seed=42)
        a = partition(pairs, spec)
        b = partition(pairs, spec)
        assert a.train == b.train and a.validation == b.validation and a.test == b.test
        c = partition(pairs, PartitionSpec(0.95, "GEN", 500, seed=43))
        assert c.train != a.train

    def test_selector_matching_nothing_errors(self):
        with pytest.raises(CorpusError, match="matched no OT pairs"):
            partition(_nt_pairs(10) + _ot_pairs(), PartitionSpec(0.95, "EXO", 10, seed=0))

    def test_bad_train_fraction(self):
        for frac in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(CorpusError, match="train_fraction"):
                PartitionSpec(frac, "GEN", 500, seed=0)


class TestLeakage:
    def test_verbatim_target_collision(self):
        test = [ParallelPair("t1", "some source", "shared target", "OT")]
        aux = [ParallelPair("a1", "other source", "shared target", "GRAMMAR")]
        report = leakage_check(test, aux)
        assert len(report.collisions) == 1
        assert report.collisions[0].side == "target"
        assert report.collisions[0].aux_id == "a1"

    def test_case_and_trailing_period_collide(self):
        # normalize("The Lord Spoke.") == normalize("the lord  spoke") == "the lord spoke"
        assert normalize_for_leakage("The Lord Spoke.") == "the lord spoke"
        assert normalize_for_leakage("the lord  spoke") == "the lord spoke"
        test = [ParallelPair("t1", "The Lord Spoke.", "ttt", "OT")]
        aux = [ParallelPair("a1", "the lord  spoke", "uuu", "GRAMMAR")]
        assert len(leakage_check(test, aux).collisions) == 1

    def test_disjoint_is_clean(self):
        test = [ParallelPair("t1", "alpha beta", "gamma", "OT")]
        aux = [ParallelPair("a1", "delta epsilon", "zeta", "NT")]
        assert leakage_check(test, aux).clean

    def test_empty_inputs_clean(self):
        assert leakage_check([], []).clean

    def test_source_side_also_checked(self):
        test = [ParallelPair("t1", "In The Beginning", "x", "OT")]
        aux = [ParallelPair("a1", "in the beginning.", "y", "NT")]
        sides = {c.side for c in leakage_check(test, aux).collisions}
        assert sides == {"source"}
