import os
import threading
import time

import numpy as np
import pytest

from protgo import autodiff as ad
from protgo import fusion as fusion_mod
from protgo import ingest
from protgo.fusion import FusionError, FusionModel, format_prediction, predict_batch
from protgo.ingest import ASPECTS, GoAspect, LabelVocabulary
from protgo.model import ModelConfig, ProteinEncoder, pad_batch
from conftest import blas_threads
from oracles import predict_batch_serial

CFG = ModelConfig(num_layers=1, d_model=8, num_heads=2, d_ff=16, max_len=16,
                  num_labels=2, dropout=0.0)


def _vocab(aspect, base):
    return LabelVocabulary(aspect, (f"GO:{base:07d}", f"GO:{base + 1:07d}"), (5, 3))


@pytest.fixture
def fusion():
    models = {a: ProteinEncoder(CFG, seed=i) for i, a in enumerate(ASPECTS)}
    vocabs = {a: _vocab(a, 1000000 + 10 * i) for i, a in enumerate(ASPECTS)}
    return FusionModel(models, vocabs, threshold=0.5)


class TestConstruction:
    def test_missing_aspect_rejected(self):
        models = {a: ProteinEncoder(CFG, seed=0) for a in ASPECTS[:2]}
        vocabs = {a: _vocab(a, 1000000) for a in ASPECTS}
        with pytest.raises(FusionError, match="CC"):
            FusionModel(dict(list(models.items())), vocabs)

    def test_vocab_size_mismatch(self):
        models = {a: ProteinEncoder(CFG, seed=0) for a in ASPECTS}
        vocabs = {a: _vocab(a, 1000000) for a in ASPECTS}
        vocabs[GoAspect.MF] = LabelVocabulary(GoAspect.MF, ("GO:0000001",), (1,))
        with pytest.raises(FusionError, match="1 terms"):
            FusionModel(models, vocabs)


class TestPredict:
    def test_threshold_one_keeps_only_exact_ones(self, fusion):
        fusion.set_threshold(1.0)
        pred = fusion.predict("MKVLAE")
        assert all(score == 1.0 for _, _, score in pred.predicted_terms)

    def test_threshold_zero_emits_all_terms(self, fusion):
        fusion.set_threshold(0.0)
        pred = fusion.predict("MKVLAE")
        assert len(pred.predicted_terms) == 6  # 2 per aspect

    def test_empty_predictions_keep_scores(self, fusion):
        fusion.set_threshold(1.0)
        pred = fusion.predict("MKV")
        if not pred.predicted_terms:
            assert all(len(pred.scores[a]) == 2 for a in ASPECTS)

    def test_threshold_monotonicity(self, fusion):
        pred_sets = []
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            fusion.set_threshold(t)
            pred = fusion.predict("MKVLAEGH")
            pred_sets.append({(g, a) for g, a, _ in pred.predicted_terms})
        for lo, hi in zip(pred_sets, pred_sets[1:]):
            assert hi <= lo

    def test_aspect_independence(self, fusion):
        before = fusion.predict("MKVLAE").scores
        fusion.models[GoAspect.BP].params["classifier.b"].data[:] += 3.0
        after = fusion.predict("MKVLAE").scores
        np.testing.assert_array_equal(before[GoAspect.MF], after[GoAspect.MF])
        np.testing.assert_array_equal(before[GoAspect.CC], after[GoAspect.CC])
        assert not np.array_equal(before[GoAspect.BP], after[GoAspect.BP])

    def test_scores_match_standalone_models(self, fusion):
        from protgo.autodiff import sigmoid

        pred = fusion.predict("MKVLAE")
        toks = ingest.tokenize("MKVLAE", 16)
        ids, mask = pad_batch([toks])
        for a in ASPECTS:
            standalone = sigmoid(fusion.models[a].forward_classify(ids, mask).data[0])
            np.testing.assert_array_equal(pred.scores[a], standalone)

    def test_invalid_threshold(self, fusion):
        with pytest.raises(FusionError):
            fusion.set_threshold(1.5)


class TestPredictBatch:
    def test_empty_input(self, fusion, tmp_path):
        inp = tmp_path / "in.tsv"
        inp.write_text("")
        out = tmp_path / "out.tsv"
        assert predict_batch(inp, fusion, out) == 0
        assert out.read_text() == ""

    def test_malformed_rows_reported_and_skipped(self, fusion, tmp_path):
        inp = tmp_path / "in.tsv"
        inp.write_text("P1\tMKV\t\nP2\tMK9\t\nP3\tAAAA\t\nP4\tGGG\t\n")
        out = tmp_path / "out.tsv"
        diags = []
        n = predict_batch(inp, fusion, out, diagnostics=diags.append)
        assert n == 3
        assert len(diags) == 1 and "line 2" in diags[0]
        accs = {line.split("\t")[0] for line in out.read_text().splitlines()}
        assert accs == {"P1", "P3", "P4"}

    def test_identical_rows_identical_predictions(self, fusion, tmp_path):
        inp = tmp_path / "in.tsv"
        inp.write_text("P1\tMKVLAE\t\nP2\tMKVLAE\t\n")
        out = tmp_path / "out.tsv"
        predict_batch(inp, fusion, out)
        lines = out.read_text().splitlines()
        a = [l.split("\t", 1)[1] for l in lines if l.startswith("P1\t")]
        b = [l.split("\t", 1)[1] for l in lines if l.startswith("P2\t")]
        assert a == b

    def test_no_prediction_placeholder_line(self, fusion, tmp_path):
        fusion.set_threshold(1.0)
        inp = tmp_path / "in.tsv"
        inp.write_text("P1\tMKV\t\n")
        out = tmp_path / "out.tsv"
        predict_batch(inp, fusion, out)
        text = out.read_text()
        lines = text.splitlines()
        assert lines and (lines[0] == "P1\t-\t-\t-" or lines[0].split("\t")[3] == "1.000000")


def _mixed_queries(path, n):
    """n input lines of every kind predict_batch meets: queries of 2 and 3
    columns, blank and comment lines, and rows it must reject."""
    rng = np.random.default_rng(0)
    kinds = [
        lambda i, seq: f"P{i}\t{seq}",
        lambda i, seq: f"P{i}\t{seq.lower()}\t",
        lambda i, seq: "",
        lambda i, seq: f"# comment {i}",
        lambda i, seq: f"P{i}\t{seq}9\t",  # unknown residue
        lambda i, seq: f"P{i}",  # one column
        lambda i, seq: f"\t{seq}",  # empty accession
        lambda i, seq: f"P{i}\t{seq}\t\textra",  # four columns
    ]
    lines = []
    for i in range(n):
        seq = "".join(rng.choice(list("ACDEFGHIKLMNPQRSTVWY"), size=int(rng.integers(1, 30))))
        lines.append(kinds[i % len(kinds)](i, seq))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestScoringPool:
    @pytest.mark.parametrize("blas", ["bundled", "missing"])
    def test_matches_the_serial_loop(self, fusion, tmp_path, monkeypatch, two_blas_threads, blas):
        if blas == "missing":
            monkeypatch.setattr(ad, "_openblas", lambda: None)
        monkeypatch.setattr(fusion_mod, "BLOCK_LINES", 5)
        before = threading.active_count(), blas_threads()
        inp = _mixed_queries(tmp_path / "in.tsv", 43)
        fusion.set_threshold(0.4)
        expected_diags, diags = [], []
        expected = predict_batch_serial(inp, fusion, tmp_path / "serial.tsv", expected_diags.append)

        original, workers = FusionModel.predict, set()

        def predict(self, sequence, accession="-"):
            workers.add(threading.get_ident())
            return original(self, sequence, accession)

        monkeypatch.setattr(FusionModel, "predict", predict)
        assert predict_batch(inp, fusion, tmp_path / "pooled.tsv", diagnostics=diags.append) == expected
        assert (tmp_path / "pooled.tsv").read_bytes() == (tmp_path / "serial.tsv").read_bytes()
        assert diags == expected_diags and len(diags) == 20
        assert (threading.active_count(), blas_threads()) == before
        size = ad.pool_threads()[0]
        assert 1 <= len(workers) <= size
        if blas == "missing":
            assert ad.pool_threads() == (1, None)
        else:
            assert size == (len(os.sched_getaffinity(0)) if ad._openblas() else 1)

    def test_a_failed_write_cancels_queued_calls_and_joins_the_workers(
            self, fusion, tmp_path, monkeypatch, half_writes, two_blas_threads):
        inp = tmp_path / "in.tsv"
        inp.write_text("".join(f"P{i}\tMKVLAE\n" for i in range(40)))
        threads_before, blas_before = threading.active_count(), blas_threads()
        original, blas_seen = FusionModel.predict, []

        def predict(self, sequence, accession="-"):
            blas_seen.append(blas_threads())
            if len(blas_seen) > 1:
                time.sleep(0.02)  # the write of the first query fails while later ones wait
            return original(self, sequence, accession)

        monkeypatch.setattr(FusionModel, "predict", predict)
        half_writes()
        with pytest.raises(OSError, match="no space"):
            predict_batch(inp, fusion, tmp_path / "out.tsv")
        assert threading.active_count() == threads_before
        assert blas_threads() == blas_before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.tsv"]
        assert 1 <= len(blas_seen) < 40
        assert set(blas_seen) == {1 if ad._openblas() else None}


class TestFormat:
    def test_six_decimal_scores(self, fusion):
        fusion.set_threshold(0.0)
        text = format_prediction(fusion.predict("MKV", accession="P9"))
        for line in text.strip().split("\n"):
            acc, go, aspect, score = line.split("\t")
            assert acc == "P9"
            assert go.startswith("GO:")
            assert aspect in ("BP", "MF", "CC")
            assert len(score.split(".")[1]) == 6
