from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from protgo import splitter
from protgo.ingest import RESIDUE_ALPHABET, ProteinRecord
from protgo.splitter import (
    ClusterAssignment, SplitError, audit_leakage, cluster_sequences,
    clustered_split, kmer_similarity, random_split, read_split, write_split,
)
from conftest import RESIDUES, random_corpus
import oracles
from oracles import cluster_sequences_pairwise


def _rec(accession, seq):
    return ProteinRecord(accession, seq, frozenset())


class TestRandomSplit:
    @pytest.mark.parametrize("n,expected", [
        (100, (80, 10, 10)),
        (10, (8, 1, 1)),
        (101, (81, 10, 10)),
        (999, (801, 99, 99)),
    ])
    def test_sizes(self, n, expected):
        split = random_split([f"P{i}" for i in range(n)], seed=1)
        assert (len(split.train), len(split.dev), len(split.test)) == expected

    def test_partition(self):
        accs = [f"P{i}" for i in range(57)]
        split = random_split(accs, seed=3)
        assert split.all_accessions() == set(accs)
        assert not set(split.train) & set(split.dev)
        assert not set(split.train) & set(split.test)
        assert not set(split.dev) & set(split.test)

    def test_deterministic(self):
        accs = [f"P{i}" for i in range(40)]
        a = random_split(accs, seed=9)
        b = random_split(accs, seed=9)
        assert (a.train, a.dev, a.test) == (b.train, b.dev, b.test)

    def test_too_small(self):
        with pytest.raises(SplitError):
            random_split([f"P{i}" for i in range(9)], seed=0)


def _similarity(a, b, k):
    return kmer_similarity(splitter._kmer_codes(a, k), splitter._kmer_codes(b, k))


class TestKmerSimilarity:
    def test_identical(self):
        assert _similarity("MKVLAE", "MKVLAE", 3) == 1.0

    def test_disjoint(self):
        assert _similarity("AAAA", "CCCC", 3) == 0.0

    def test_hand_case(self):
        # AAAAA has {AAA x3}; AAAAC has {AAA x2, AAC}; shared multiset = 2
        assert _similarity("AAAAA", "AAAAC", 3) == pytest.approx(2 / 3)

    def test_too_short(self):
        assert _similarity("MK", "MKVLAE", 3) == 0.0
        assert _similarity("MKVLAE", "MK", 3) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["AC", "ACD", RESIDUE_ALPHABET]).flatmap(
               lambda alphabet: st.tuples(*[st.text(alphabet=alphabet, max_size=40)] * 2)),
           st.integers(2, 13))
    def test_equals_the_counter_oracle(self, pair, k):
        # integer codes and sorted-array intersection against Counters of
        # k-mer strings: the same integers, so the same float
        assert _similarity(*pair, k) == oracles.kmer_similarity(*pair, k)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=RESIDUE_ALPHABET, max_size=40), st.integers(2, 13))
    def test_codes_are_the_kmers_read_in_base_25(self, sequence, k):
        # Python's integers do not overflow: a collision or a wrapped code shows
        want = Counter(sum(RESIDUE_ALPHABET.index(c) * 25 ** (k - 1 - i) for i, c in enumerate(sequence[j:j + k]))
                       for j in range(len(sequence) - k + 1))
        codes, counts = splitter._kmer_codes(sequence, k)
        assert codes.dtype == np.int64
        assert dict(zip(codes.tolist(), counts.tolist())) == want
        assert codes.tolist() == sorted(want)

    @pytest.mark.parametrize("k", [1, 14])
    def test_kmer_outside_what_the_codes_hold(self, k):
        with pytest.raises(SplitError, match="kmer"):
            splitter._kmer_codes("MKVLAEWWKQRRPLAG", k)

    @pytest.mark.parametrize("residue", ["k", "-", "\xe9", "\u0416", "\U0001f9ec"])
    @pytest.mark.parametrize("short", [False, True])
    def test_a_character_outside_the_alphabet(self, residue, short):
        # lowercase, punctuation, Latin-1, Cyrillic and an astral character,
        # also in a sequence shorter than k
        seq = "MK" + residue if short else "MKVLAE" + residue + "WWKQ"
        with pytest.raises(SplitError, match="not a residue letter"):
            splitter._kmer_codes(seq, 5)


class TestClusterSequences:
    def test_identical_sequences_join(self):
        a = cluster_sequences([_rec("A", "MKVLAE"), _rec("B", "MKVLAE")], 1.0, 3)
        assert a.cluster_of["A"] == a.cluster_of["B"]

    def test_disjoint_sequences_split(self):
        a = cluster_sequences([_rec("A", "AAAAAA"), _rec("B", "CCCCCC")], 0.5, 3)
        assert a.cluster_of["A"] != a.cluster_of["B"]

    def test_hand_threshold_case(self):
        recs = [_rec("A", "AAAAA"), _rec("B", "AAAAC")]
        same = cluster_sequences(recs, 0.5, 3)
        assert same.cluster_of["A"] == same.cluster_of["B"]
        distinct = cluster_sequences(recs, 0.7, 3)
        assert distinct.cluster_of["A"] != distinct.cluster_of["B"]

    def test_every_accession_assigned_with_representative(self):
        recs = random_corpus(40, seed=5)
        a = cluster_sequences(recs, 0.5, 5)
        assert set(a.cluster_of) == {r.accession for r in recs}
        for cid, rep in a.representative.items():
            assert a.cluster_of[rep] == cid

    def test_parameter_validation(self):
        with pytest.raises(SplitError):
            cluster_sequences([], 0.5, 1)
        with pytest.raises(SplitError):
            cluster_sequences([], 0.0, 3)
        # 25 ** 14 does not fit in int64
        with pytest.raises(SplitError, match="kmer"):
            cluster_sequences([], 0.5, 14)
        assert cluster_sequences([_rec("A", "M" * 20)], 0.5, 13).num_clusters == 1

    @pytest.mark.parametrize("residue", ["k", "\xe9", "\u0416"])
    def test_a_character_outside_the_alphabet(self, residue):
        recs = [_rec("A", "MKVLAEWWKQ"), _rec("B", "MKVLAE" + residue + "WWKQ")]
        with pytest.raises(SplitError, match=repr(residue)):
            cluster_sequences(recs, 0.5, 5)

    @pytest.mark.xfail(strict=False,
                       reason="first-match greedy placement does not guarantee monotone "
                              "cluster counts: a new founder at a higher threshold can "
                              "absorb records that previously founded their own clusters")
    def test_threshold_monotonicity(self):
        # seed 1415 is a known counterexample
        for seed in [1415] + list(range(40)):
            recs = random_corpus(25, seed=seed, alphabet="ACDE", min_len=6, max_len=30)
            counts = [cluster_sequences(recs, t, 3).num_clusters
                      for t in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
            assert counts == sorted(counts), (seed, counts)


def _assert_same_as_pairwise(records, threshold, k):
    got = cluster_sequences(records, threshold, k)
    want = cluster_sequences_pairwise(records, threshold, k)
    assert got.cluster_of == want.cluster_of
    assert got.representative == want.representative


def _families(seed, families=40, size=5, step=5, rate=0.04):
    """Founders of 400, 395, ... residues; each family member is one residue
    shorter than the last and has about `rate` of its residues substituted."""
    rng = np.random.default_rng(seed)
    residues = np.array(list(RESIDUES))
    records = []
    for f in range(families):
        base = rng.choice(residues, size=400 - step * f)
        for j in range(size):
            member = base[:len(base) - j].copy()
            if j:
                hit = rng.random(len(member)) < rate
                member[hit] = rng.choice(residues, size=int(hit.sum()))
            records.append(_rec(f"F{f * size + j:05d}", "".join(member)))
    return records


class TestClusterSequencesMatchesPairwise:
    def test_near_duplicate_corpora(self):
        for corpus_seed in range(100):
            records = random_corpus(20, seed=corpus_seed, min_len=12, max_len=40)
            records = records + [_rec(f"D{i}", records[i].sequence) for i in range(5)]
            _assert_same_as_pairwise(records, 0.5, 5)

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("threshold", [0.05, 0.2, 0.5, 0.8, 1.0])
    def test_small_alphabet_corpora(self, threshold, k):
        # lengths 1..12 over three letters: k-mers repeat, many records are
        # shorter than k, and many share a length
        for seed in range(10):
            records = random_corpus(30, seed=seed, alphabet="ACD", min_len=1, max_len=12)
            _assert_same_as_pairwise(records, threshold, k)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(alphabet="AC", max_size=14), max_size=25),
           st.floats(min_value=0.01, max_value=1.0), st.integers(2, 5))
    def test_any_corpus(self, sequences, threshold, k):
        _assert_same_as_pairwise([_rec(f"P{i:03d}", s) for i, s in enumerate(sequences)], threshold, k)

    def test_only_joining_records_are_checked(self, monkeypatch):
        records = _families(seed=101)
        calls = []
        monkeypatch.setattr(splitter, "kmer_similarity",
                            lambda a, b: calls.append(1) or kmer_similarity(a, b))
        assignment = cluster_sequences(records, 0.5, 5)
        assert assignment.num_clusters == 40
        # one check per record that joins a family; comparing with every
        # representative makes 4060
        assert len(calls) == len(records) - assignment.num_clusters == 160

    def test_each_record_is_encoded_once(self, monkeypatch):
        records = _families(seed=101)
        encoded = []
        kmer_codes = splitter._kmer_codes
        monkeypatch.setattr(splitter, "_kmer_codes",
                            lambda sequence, k: encoded.append(sequence) or kmer_codes(sequence, k))
        cluster_sequences(records, 0.5, 5)
        # re-encoding both sides of each of the 160 checks makes 520
        assert sorted(encoded) == sorted(r.sequence for r in records)
        assert len(encoded) == 200


class TestClusteredSplit:
    def test_singleton_clusters_near_equal_thirds(self):
        recs = random_corpus(30, seed=2, alphabet="ACDEFGHIKLMNPQRSTVWY")
        assignment = ClusterAssignment(
            cluster_of={r.accession: i for i, r in enumerate(recs)},
            representative={i: r.accession for i, r in enumerate(recs)},
        )
        split = clustered_split(assignment, seed=4)
        for side in (split.train, split.dev, split.test):
            assert abs(len(side) - 10) <= 1

    def test_giant_cluster_stays_whole(self):
        cluster_of = {f"G{i}": 0 for i in range(90)}
        cluster_of.update({f"S{i}": i + 1 for i in range(10)})
        representative = {0: "G0"}
        representative.update({i + 1: f"S{i}" for i in range(10)})
        assignment = ClusterAssignment(cluster_of, representative)
        split = clustered_split(assignment, seed=1)
        sides = [set(split.train), set(split.dev), set(split.test)]
        giants = {f"G{i}" for i in range(90)}
        assert any(giants <= side for side in sides)

    def test_deterministic(self):
        recs = random_corpus(25, seed=6)
        assignment = cluster_sequences(recs, 0.4, 4)
        a = clustered_split(assignment, seed=11)
        b = clustered_split(assignment, seed=11)
        assert (a.train, a.dev, a.test) == (b.train, b.dev, b.test)

    def test_too_few_clusters(self):
        assignment = ClusterAssignment({"A": 0, "B": 1}, {0: "A", 1: "B"})
        with pytest.raises(SplitError):
            clustered_split(assignment, seed=0)

    def test_partition(self):
        recs = random_corpus(50, seed=8)
        assignment = cluster_sequences(recs, 0.4, 4)
        split = clustered_split(assignment, seed=2)
        assert split.all_accessions() == {r.accession for r in recs}


class TestAuditLeakage:
    def test_clustered_split_has_no_leakage(self):
        for seed in range(5):
            recs = random_corpus(40, seed=100 + seed)
            assignment = cluster_sequences(recs, 0.4, 4)
            split = clustered_split(assignment, seed=seed)
            assert audit_leakage(split, assignment) == []

    def test_detects_spanning_cluster(self):
        assignment = ClusterAssignment({"A": 0, "B": 0, "C": 1}, {0: "A", 1: "C"})
        from protgo.splitter import DatasetSplit
        split = DatasetSplit(train=["A", "C"], dev=[], test=["B"], seed=0, kind="random")
        assert audit_leakage(split, assignment) == [0]

    def test_empty_dev_is_fine(self):
        assignment = ClusterAssignment({"A": 0, "B": 1}, {0: "A", 1: "B"})
        from protgo.splitter import DatasetSplit
        split = DatasetSplit(train=["A"], dev=[], test=["B"], seed=0, kind="random")
        assert audit_leakage(split, assignment) == []

    def test_accession_mismatch(self):
        assignment = ClusterAssignment({"A": 0}, {0: "A"})
        from protgo.splitter import DatasetSplit
        split = DatasetSplit(train=["A", "B"], dev=[], test=[], seed=0, kind="random")
        with pytest.raises(SplitError):
            audit_leakage(split, assignment)


class TestSplitFiles:
    def test_roundtrip_and_byte_determinism(self, tmp_path):
        recs = random_corpus(30, seed=12)
        split = random_split([r.accession for r in recs], seed=5)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_split(split, d1)
        write_split(random_split([r.accession for r in recs], seed=5), d2)
        for name in ("train.ids", "dev.ids", "test.ids", "split.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        back = read_split(d1)
        assert back.train == split.train
        assert back.kind == "random"
