import numpy as np
import pytest

from starctr.errors import DataError, MetricError, UndefinedAucError
from starctr.metrics import (
    auc,
    build_report,
    pcoc,
    pcoc_scatter_svg,
    weighted_auc,
    weighted_auc_detail,
)
from starctr.tensor import make_rng

from prediction_rows import Prediction, columns


def pairwise_auc(scores, labels):
    """O(n^2) oracle: fraction of positive/negative pairs ordered correctly,
    ties counting one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def eq9_oracle(predictions):
    """Direct two-loop evaluation of the impression-weighted per-user AUC."""
    users = sorted({p.user for p in predictions})
    num = 0.0
    den = 0.0
    for user in users:
        group = [p for p in predictions if p.user == user]
        labels = [p.y for p in group]
        if len(set(labels)) < 2:
            continue
        value = pairwise_auc([p.yhat for p in group], labels)
        num += len(group) * value
        den += len(group)
    return num / den


class TestAuc:
    def test_perfectly_ordered(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auc([0.3] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_matches_pairwise_oracle_exactly(self):
        rng = make_rng(31)
        scores = np.round(rng.uniform(size=50), 2)  # induce ties
        labels = (rng.uniform(size=50) < 0.4).astype(int)
        if labels.sum() in (0, 50):
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) == pairwise_auc(scores, labels)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_groups_match_oracle(self, seed):
        rng = make_rng(seed, stream=5)
        n = int(rng.integers(5, 60))
        scores = np.round(rng.uniform(size=n), 1)
        labels = (rng.uniform(size=n) < 0.5).astype(int)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) == pairwise_auc(scores, labels)

    def test_single_class_raises(self):
        with pytest.raises(UndefinedAucError):
            auc([0.2, 0.4], [1, 1])

    def test_invariant_under_strictly_increasing_transform(self):
        rng = make_rng(32)
        scores = rng.uniform(size=40)
        labels = (rng.uniform(size=40) < 0.5).astype(int)
        transformed = scores ** 3 + scores
        assert auc(scores, labels) == auc(transformed, labels)


class TestWeightedAuc:
    def test_single_user_equals_plain_auc(self):
        preds = [Prediction(5, 1, s, y) for s, y in
                 [(0.1, 0), (0.7, 1), (0.4, 0), (0.9, 1)]]
        assert weighted_auc(columns(preds)) == auc([0.1, 0.7, 0.4, 0.9],
                                                   [0, 1, 0, 1])

    def test_hand_arithmetic(self):
        # Two users: AUC 1.0 with 10 impressions, AUC 0.5 with 30.
        preds = []
        for i in range(5):
            preds.append(Prediction(1, 1, 0.9, 1))
            preds.append(Prediction(1, 1, 0.1, 0))
        for i in range(30):
            preds.append(Prediction(2, 1, 0.5, 1 if i < 10 else 0))
        assert weighted_auc(columns(preds)) == pytest.approx(0.625, abs=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_two_loop_oracle(self, seed):
        rng = make_rng(seed, stream=6)
        preds = [
            Prediction(int(rng.integers(0, 8)), 1,
                       float(np.round(rng.uniform(), 2)),
                       int(rng.integers(0, 2)))
            for _ in range(120)
        ]
        assert weighted_auc(columns(preds)) == eq9_oracle(preds)

    def test_bounded_by_user_aucs(self):
        rng = make_rng(33)
        preds = [
            Prediction(int(rng.integers(0, 5)), 1, float(rng.uniform()),
                       int(rng.integers(0, 2)))
            for _ in range(200)
        ]
        per_user = []
        for user in {p.user for p in preds}:
            group = [p for p in preds if p.user == user]
            try:
                per_user.append(auc([g.yhat for g in group],
                                    [g.y for g in group]))
            except UndefinedAucError:
                pass
        value = weighted_auc(columns(preds))
        assert min(per_user) <= value <= max(per_user)

    def test_single_class_users_excluded_and_counted(self):
        preds = [
            Prediction(1, 1, 0.2, 0), Prediction(1, 1, 0.9, 1),
            Prediction(2, 1, 0.5, 1), Prediction(2, 1, 0.6, 1),  # all clicks
        ]
        value, used, excluded = weighted_auc_detail(columns(preds))
        assert (used, excluded) == (1, 1)
        assert value == 1.0

    def test_no_defined_user_raises(self):
        with pytest.raises(MetricError):
            weighted_auc(columns([Prediction(1, 1, 0.5, 1),
                                  Prediction(1, 1, 0.6, 1)]))


class TestPcoc:
    def test_constant_predictor_at_empirical_ctr_is_exactly_one(self):
        y = np.array([0, 1, 0, 0, 1, 0, 0, 0])
        yhat = np.full(8, y.mean())
        assert pcoc(yhat, y) == 1.0

    def test_linear_in_predictions(self):
        rng = make_rng(34)
        y = (rng.uniform(size=50) < 0.3).astype(float)
        if y.sum() == 0:
            y[0] = 1.0
        yhat = rng.uniform(0.05, 0.4, size=50)
        assert pcoc(2 * yhat, y) == pytest.approx(2 * pcoc(yhat, y), rel=1e-12)

    def test_hand_arithmetic(self):
        assert pcoc([0.2, 0.4], [0, 1]) == pytest.approx(0.6, abs=1e-15)

    def test_zero_clicks_undefined(self):
        with pytest.raises(MetricError):
            pcoc([0.2, 0.3], [0, 0])


class TestReport:
    def make_preds(self):
        rng = make_rng(35)
        preds = []
        for i in range(300):
            p = int(rng.integers(1, 4))
            preds.append(Prediction(int(rng.integers(0, 20)), p,
                                    float(rng.uniform(0.01, 0.99)),
                                    int(rng.uniform() < 0.3)))
        return preds

    def test_report_fields(self):
        report = build_report(columns(self.make_preds()))
        assert set(report.per_domain_auc) == {1, 2, 3}
        assert 0.0 <= report.overall_auc <= 1.0
        assert report.pcoc_std is not None
        assert report.n_examples == 300

    def test_per_domain_weighted_auc_is_per_domain_subset(self):
        # (domain, user) grouping equals weighting users within each
        # domain's own predictions, bit for bit.
        preds = self.make_preds()
        report = build_report(columns(preds))
        for p, value in report.per_domain_weighted_auc.items():
            subset = [pred for pred in preds if pred.p == p]
            expected, used, _ = weighted_auc_detail(columns(subset))
            assert value == (expected if used else None)
            assert report.per_domain_weighted_auc[p] == eq9_oracle(subset)

    def test_kv_and_json_deterministic(self):
        preds = self.make_preds()
        r1, r2 = build_report(columns(preds)), build_report(columns(preds))
        assert r1.to_kv_text() == r2.to_kv_text()
        assert r1.to_json() == r2.to_json()

    def test_out_of_range_prediction_rejected(self):
        with pytest.raises(DataError):
            build_report(columns([Prediction(1, 1, 1.0, 1),
                                  Prediction(1, 1, 0.5, 0)]))

    def test_svg_well_formed(self):
        report = build_report(columns(self.make_preds()))
        svg = pcoc_scatter_svg(report.per_domain_pcoc)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") == 3
