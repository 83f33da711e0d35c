import pytest
from hypothesis import given, strategies as st

from protgo import ingest
from protgo.ingest import (
    CLS_ID, SEP_ID, VOCAB_SIZE, GoAspect, IngestError, ProteinRecord,
    build_vocabulary, encode_labels, filter_unannotated,
    parse_fasta_tsv, parse_tsv, read_vocabulary, tokenize, write_vocabulary,
)
from conftest import random_corpus
from oracles import detokenize, recount_terms


def _rec(accession, seq, anns=()):
    return ProteinRecord(accession, seq, frozenset(anns))


class TestParseTsv:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "in.tsv"
        path.write_text("P1\tMKV\tGO:0003824|MF\n")
        (rec,) = parse_tsv(path)
        assert rec.accession == "P1"
        assert rec.sequence == "MKV"
        assert rec.annotations == {("GO:0003824", GoAspect.MF)}

    def test_empty_annotation_column(self, tmp_path):
        path = tmp_path / "in.tsv"
        path.write_text("P1\tMKV\t\n")
        (rec,) = parse_tsv(path)
        assert rec.annotations == frozenset()

    def test_unknown_residue_names_character_and_line(self, tmp_path):
        path = tmp_path / "in.tsv"
        path.write_text("P1\tMKV\t\nP2\tMK9\t\n")
        with pytest.raises(IngestError, match="unknown residue '9' at line 2"):
            parse_tsv(path)

    @pytest.mark.parametrize("seq, message", [
        ("mkvj", "unknown residue 'J' at line 2"),
        ("MK*V", "unknown residue '*' at line 2"),
        ("mkéJ", "unknown residue 'É' at line 2"),
        ("MKΩV", "unknown residue 'Ω' at line 2"),
    ])
    def test_unknown_residue_message_names_the_first_after_uppercasing(self, tmp_path, seq, message):
        first_unknown = next(ch for ch in seq.upper() if ch not in ingest.RESIDUE_ALPHABET)
        assert f"'{first_unknown}'" in message  # the per-character scan's answer
        path = tmp_path / "in.tsv"
        path.write_text(f"P1\tMKV\t\nP2\t{seq}\t\n", encoding="utf-8")
        with pytest.raises(IngestError) as err:
            parse_tsv(path)
        assert str(err.value) == message

    def test_duplicate_accession(self, tmp_path):
        path = tmp_path / "in.tsv"
        path.write_text("P1\tMKV\t\nP1\tMV\t\n")
        with pytest.raises(IngestError, match="duplicate accession 'P1'"):
            parse_tsv(path)

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "in.tsv"
        path.write_text("P1\tMKV\t\nbroken line\n")
        with pytest.raises(IngestError, match="line 2"):
            parse_tsv(path)

    def test_comments_and_lowercase(self, tmp_path):
        path = tmp_path / "in.tsv"
        path.write_text("# header\nP1\tmkv\tGO:0000001|BP\n")
        (rec,) = parse_tsv(path)
        assert rec.sequence == "MKV"

    def test_multiple_annotations(self, tmp_path):
        path = tmp_path / "in.tsv"
        path.write_text("P1\tMKV\tGO:0003824|MF;GO:0000001|BP\n")
        (rec,) = parse_tsv(path)
        assert len(rec.annotations) == 2


class TestParseFasta:
    def test_fasta_with_wrapped_lines(self, tmp_path):
        fasta = tmp_path / "in.fa"
        fasta.write_text(">P1\nMKV\nLAE\n>P2\nGG\n")
        ann = tmp_path / "ann.tsv"
        ann.write_text("P1\tGO:0003824\tMF\n")
        records = parse_fasta_tsv(fasta, ann)
        assert records[0].sequence == "MKVLAE"
        assert records[0].annotations == {("GO:0003824", GoAspect.MF)}
        assert records[1].annotations == frozenset()

    def test_annotation_for_unknown_accession(self, tmp_path):
        fasta = tmp_path / "in.fa"
        fasta.write_text(">P1\nMKV\n")
        ann = tmp_path / "ann.tsv"
        ann.write_text("P9\tGO:0003824\tMF\n")
        with pytest.raises(IngestError, match="P9"):
            parse_fasta_tsv(fasta, ann)


class TestFilterUnannotated:
    def test_keeps_only_annotated_in_order(self):
        r1 = _rec("A", "MK", [("GO:0000001", GoAspect.BP), ("GO:0000002", GoAspect.BP)])
        r2 = _rec("B", "MK")
        r3 = _rec("C", "MK", [("GO:0000003", GoAspect.MF)])
        assert filter_unannotated([r1, r2, r3]) == [r1, r3]

    def test_identity_when_all_annotated(self):
        recs = [_rec("A", "MK", [("GO:0000001", GoAspect.BP)])]
        assert filter_unannotated(recs) == recs

    def test_empty_when_none_annotated(self):
        assert filter_unannotated([_rec("A", "MK")]) == []

    def test_idempotent(self):
        recs = random_corpus(20, seed=1) + [_rec("X", "MK")]
        once = filter_unannotated(recs)
        assert filter_unannotated(once) == once


class TestBuildVocabulary:
    def test_tie_broken_lexicographically(self):
        recs = []
        for i in range(5):
            recs.append(_rec(f"a{i}", "MK", [("GO:0000001", GoAspect.MF)]))
        for i in range(3):
            recs.append(_rec(f"b{i}", "MK", [("GO:0000002", GoAspect.MF)]))
            recs.append(_rec(f"c{i}", "MK", [("GO:0000003", GoAspect.MF)]))
        vocab = build_vocabulary(recs, GoAspect.MF, 2)
        assert vocab.terms == ("GO:0000001", "GO:0000002")
        assert vocab.counts == (5, 3)

    def test_k_equals_distinct_terms(self):
        recs = [_rec("A", "MK", [("GO:0000002", GoAspect.BP)]),
                _rec("B", "MK", [("GO:0000001", GoAspect.BP)])]
        vocab = build_vocabulary(recs, GoAspect.BP, 2)
        assert sorted(vocab.terms) == ["GO:0000001", "GO:0000002"]

    def test_too_few_terms(self):
        recs = [_rec("A", "MK", [("GO:0000001", GoAspect.BP)]),
                _rec("B", "MK", [("GO:0000002", GoAspect.BP)])]
        with pytest.raises(IngestError, match="only 2 distinct terms"):
            build_vocabulary(recs, GoAspect.BP, 3)

    def test_counts_match_brute_force_recount(self):
        recs = random_corpus(200, seed=3)
        for aspect in ingest.ASPECTS:
            expected = recount_terms(recs, aspect)
            vocab = build_vocabulary(recs, aspect, len(expected))
            assert dict(zip(vocab.terms, vocab.counts)) == expected
            assert list(vocab.counts) == sorted(vocab.counts, reverse=True)

    def test_roundtrip_through_tsv(self, tmp_path):
        recs = random_corpus(50, seed=4)
        vocab = build_vocabulary(recs, GoAspect.BP, 3)
        write_vocabulary(vocab, tmp_path / "v.tsv")
        back = read_vocabulary(tmp_path / "v.tsv", GoAspect.BP)
        assert back == vocab


class TestEncodeLabels:
    VOCAB = ingest.LabelVocabulary(GoAspect.MF, ("GO:0003824", "GO:0005515", "GO:0016020"), (3, 2, 1))

    def test_single_hit(self):
        rec = _rec("A", "MK", [("GO:0003824", GoAspect.MF)])
        assert encode_labels(rec, self.VOCAB).tolist() == [1, 0, 0]

    def test_no_hits(self):
        rec = _rec("A", "MK", [("GO:9999999", GoAspect.MF)])
        assert encode_labels(rec, self.VOCAB).tolist() == [0, 0, 0]

    def test_all_hits(self):
        rec = _rec("A", "MK", [(t, GoAspect.MF) for t in self.VOCAB.terms])
        assert encode_labels(rec, self.VOCAB).tolist() == [1, 1, 1]

    def test_other_aspect_ignored(self):
        rec = _rec("A", "MK", [("GO:0003824", GoAspect.BP)])
        assert encode_labels(rec, self.VOCAB).tolist() == [0, 0, 0]

    @given(st.permutations(["GO:0003824", "GO:0005515", "GO:9999999"]))
    def test_insertion_order_irrelevant(self, order):
        rec = _rec("A", "MK", [(t, GoAspect.MF) for t in order])
        assert encode_labels(rec, self.VOCAB).tolist() == [1, 1, 0]


class TestTokenize:
    def test_basic(self):
        toks = tokenize("MKV", 1000)
        expected = [CLS_ID, ingest.TOKEN_VOCAB["M"], ingest.TOKEN_VOCAB["K"], ingest.TOKEN_VOCAB["V"], SEP_ID]
        assert toks.ids == expected
        assert toks.original_length == 3

    def test_truncation_keeps_prefix(self):
        seq = "A" * 1200
        toks = tokenize(seq, 1000)
        assert len(toks.ids) == 1002
        assert toks.original_length == 1200

    def test_single_residue_boundary(self):
        toks = tokenize("A", 1)
        assert toks.ids == [CLS_ID, ingest.TOKEN_VOCAB["A"], SEP_ID]

    def test_vocab_is_dense_bijection(self):
        ids = sorted(ingest.TOKEN_VOCAB.values())
        assert ids == list(range(VOCAB_SIZE))
        assert VOCAB_SIZE == 30

    @given(st.text(alphabet=ingest.RESIDUE_ALPHABET, min_size=1, max_size=80))
    def test_roundtrip(self, seq):
        assert detokenize(tokenize(seq, 100)) == seq

    def test_rejects_empty(self):
        with pytest.raises(IngestError):
            tokenize("", 10)
