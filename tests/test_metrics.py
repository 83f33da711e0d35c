import numpy as np
import pytest
from hypothesis import given, strategies as st

from protgo.metrics import (
    ConfusionCounts, MetricsError, confusion, length_analysis, micro_accuracy,
    micro_roc, prf1, subset_accuracy,
)
from oracles import pairwise_auc, roc_points_loop

# published (precision, recall, f1) rows: 3 models x 3 aspects x 2 splits
PUBLISHED_PRF = [
    # random split
    (0.9725, 0.8821, 0.9251),
    (0.8447, 0.9409, 0.8902),
    (0.8652, 0.9570, 0.9088),
    (0.9882, 0.9568, 0.9722),
    (0.9166, 0.9677, 0.9415),
    (0.9344, 0.9797, 0.9565),
    (0.9469, 0.8189, 0.8783),
    (0.7386, 0.9191, 0.8191),
    (0.7928, 0.9390, 0.8597),
    # clustered split
    (0.9532, 0.8561, 0.9021),
    (0.8940, 0.7965, 0.8424),
    (0.8618, 0.8683, 0.8650),
    (0.9785, 0.9338, 0.9556),
    (0.9241, 0.8756, 0.8992),
    (0.9012, 0.9312, 0.9159),
    (0.9215, 0.7817, 0.8458),
    (0.8014, 0.7563, 0.7782),
    (0.7832, 0.8277, 0.8047),
]


def counts_realizing(p, r, scale=10**6):
    """Integer confusion counts whose precision/recall approximate (p, r)."""
    tp = round(p * scale)
    fp = scale - tp
    fn = round(tp * (1 - r) / r)
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=0)


class TestConfusion:
    def test_perfect_predictor(self):
        t = np.array([[1, 0], [0, 1]])
        c = confusion(t.astype(float), t, 0.5)
        assert (c.fp, c.fn) == (0, 0)
        assert (c.tp, c.tn) == (2, 2)

    def test_degenerate_all_zero_scores(self):
        targets = np.array([[1, 0, 1], [0, 0, 1]])
        c = confusion(np.zeros((2, 3)), targets, 0.5)
        assert (c.tp, c.fp, c.fn) == (0, 0, 3)

    def test_hand_2x2(self):
        c = confusion(np.array([[0.9, 0.1], [0.6, 0.4]]),
                      np.array([[1, 0], [0, 1]]), 0.5)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)

    def test_total_is_cells(self):
        rng = np.random.default_rng(1)
        scores = rng.random((7, 11))
        targets = rng.integers(0, 2, size=(7, 11))
        assert confusion(scores, targets).total == 77


class TestPrf1:
    def test_zero_over_zero_convention(self):
        assert prf1(ConfusionCounts(0, 0, 0, 10)) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("p,r,f1", PUBLISHED_PRF)
    def test_f1_identity_against_published_rows(self, p, r, f1):
        cp, cr, cf1 = prf1(counts_realizing(p, r))
        assert cp == pytest.approx(p, abs=1e-4)
        assert cr == pytest.approx(r, abs=1e-4)
        assert cf1 == pytest.approx(f1, abs=5e-4)

    @given(st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 1000))
    def test_micro_f1_is_harmonic_mean(self, tp, fp, fn):
        p, r, f1 = prf1(ConfusionCounts(tp, fp, fn, 5))
        expected = 2 * p * r / (p + r) if p + r else 0.0
        assert f1 == pytest.approx(expected, abs=1e-12)


class TestSubsetAccuracy:
    def test_perfect(self):
        t = np.array([[1, 0, 1], [0, 1, 0]])
        assert subset_accuracy(t.astype(float), t) == 1.0

    def test_counting(self):
        targets = np.array([[1, 0]] * 4)
        scores = np.array([[1.0, 0.0]] * 3 + [[1.0, 1.0]])
        assert subset_accuracy(scores, targets) == 0.75

    def test_random_100_labels_near_zero(self):
        rng = np.random.default_rng(0)
        scores = rng.random((200, 100))
        targets = rng.integers(0, 2, size=(200, 100))
        assert subset_accuracy(scores, targets) < 0.01


class TestMicroRoc:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        bits = np.array([1, 1, 0, 0])
        assert micro_roc(scores, bits).auc == 1.0

    @pytest.mark.parametrize("shape, levels", [((50,), 10), ((100, 50), 1000), ((400, 500), 0)])
    def test_matches_loop_oracle(self, shape, levels):
        rng = np.random.default_rng(sum(shape))
        scores = rng.random(shape)
        if levels:  # quantized scores force ties
            scores = np.round(scores * levels) / levels
        bits = rng.random(shape) < 0.3
        curve = micro_roc(scores, bits)
        fpr, tpr, thresholds, auc = roc_points_loop(scores, bits)
        assert (curve.fpr, curve.tpr, curve.thresholds) == (fpr, tpr, thresholds)
        assert curve.auc == pytest.approx(auc, abs=1e-12)

    def test_all_ties_is_diagonal(self):
        curve = micro_roc(np.full(10, 0.5), np.array([1, 0] * 5))
        assert curve.auc == 0.5
        assert curve.fpr == [0.0, 1.0]
        assert curve.tpr == [0.0, 1.0]

    def test_hand_four_point_case(self):
        curve = micro_roc(np.array([0.9, 0.8, 0.3, 0.1]), np.array([1, 0, 1, 0]))
        assert curve.auc == pytest.approx(0.75, abs=1e-12)

    def test_curve_monotone_and_anchored(self):
        rng = np.random.default_rng(5)
        scores = rng.random((6, 9))
        targets = rng.integers(0, 2, size=(6, 9))
        curve = micro_roc(scores, targets)
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert all(np.diff(curve.fpr) >= 0) and all(np.diff(curve.tpr) >= 0)
        assert 0.0 <= curve.auc <= 1.0

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            # quantized scores force plenty of ties
            scores = np.round(rng.random(n), 1)
            bits = rng.integers(0, 2, size=n)
            if bits.sum() in (0, n):
                continue
            assert micro_roc(scores, bits).auc == pytest.approx(pairwise_auc(scores, bits), abs=1e-9)

    def test_reversed_scores_antisymmetry(self):
        rng = np.random.default_rng(2)
        scores = rng.random(30)
        bits = rng.integers(0, 2, size=30)
        assert micro_roc(-scores, bits).auc == pytest.approx(1 - micro_roc(scores, bits).auc, abs=1e-12)

    def test_single_class_error(self):
        with pytest.raises(MetricsError, match="ROC undefined"):
            micro_roc(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_threshold_sweep_consistency_with_confusion(self):
        rng = np.random.default_rng(7)
        scores = rng.random((5, 4))
        targets = rng.integers(0, 2, size=(5, 4))
        curve = micro_roc(scores, targets)
        n_pos = targets.sum()
        n_neg = targets.size - n_pos
        for t, fpr, tpr in zip(curve.thresholds[1:], curve.fpr[1:], curve.tpr[1:]):
            c = confusion(scores, targets, t)
            assert c.tp / n_pos == pytest.approx(tpr, abs=1e-12)
            assert c.fp / n_neg == pytest.approx(fpr, abs=1e-12)


class TestLengthAnalysis:
    def test_single_bucket(self):
        targets = np.ones((3, 2))
        report = length_analysis([750, 750, 750], targets.astype(float), targets)
        nonempty = [i for i, c in enumerate(report.counts) if c]
        assert nonempty == [7]  # the [700, 800) bucket
        assert report.counts[7] == 3

    def test_constant_predictions_full_accuracy(self):
        targets = np.ones((4, 2))
        report = length_analysis([10, 250, 1500, 3000], targets.astype(float), targets)
        assert sum(report.counts) == 4
        for count, acc in zip(report.counts, report.accuracies):
            assert acc == 1.0 if count else acc is None

    def test_hand_bucket_accuracies(self):
        targets = np.array([[1], [1], [1], [1]])
        scores = np.array([[1.0], [0.0], [1.0], [1.0]])
        report = length_analysis([50, 60, 150, 160], scores, targets)
        assert report.counts[0] == 2 and report.accuracies[0] == 0.5
        assert report.counts[1] == 2 and report.accuracies[1] == 1.0

    def test_overflow_bucket(self):
        targets = np.ones((1, 1))
        report = length_analysis([5000], targets.astype(float), targets)
        assert report.counts[-1] == 1

    def test_alignment_mismatch(self):
        with pytest.raises(MetricsError):
            length_analysis([1, 2], np.ones((3, 2)), np.ones((3, 2)))


class TestMicroAccuracy:
    def test_matches_cellwise_fraction(self):
        rng = np.random.default_rng(3)
        scores = rng.random((8, 5))
        targets = rng.integers(0, 2, size=(8, 5))
        c = confusion(scores, targets, 0.5)
        expected = np.mean((scores >= 0.5) == targets.astype(bool))
        assert micro_accuracy(c) == pytest.approx(expected, abs=1e-12)
