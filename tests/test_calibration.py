import math

import numpy as np
import pytest

from dropuq.calibration import (
    CalibrationRecord,
    LogitVector,
    ace,
    fit_temperature,
    focal_loss,
    mce,
    negative_log_likelihood,
    parse_calibration_records,
    reliability,
    reliability_csv,
    scaled_softmax,
    serialize_calibration_records,
    softmax,
)
from dropuq.ingest import ParseError
from dropuq.model import ScoreVector
from dropuq.synth import generate_calibration_records


def grid_search_nll(records, step=0.01):
    """Oracle: exhaustive NLL over T in {step, 2*step, ..., 100}."""
    z = np.array([r.logits.logits for r in records])
    y = np.array([r.true_class for r in records])
    z = z - z.max(axis=1, keepdims=True)
    grid = np.arange(1, int(round(100 / step)) + 1) * step
    best_t, best_nll = None, np.inf
    for chunk in np.array_split(grid, 40):
        zt = z[None, :, :] / chunk[:, None, None]
        nll = (
            np.log(np.exp(zt).sum(axis=2)) - zt[:, np.arange(len(y)), y]
        ).sum(axis=1)
        i = int(np.argmin(nll))
        if nll[i] < best_nll:
            best_nll, best_t = float(nll[i]), float(chunk[i])
    return best_t, best_nll


class TestSoftmax:
    def test_uniform(self):
        assert softmax(LogitVector((0.0, 0.0, 0.0))).scores == pytest.approx(
            (1 / 3, 1 / 3, 1 / 3), abs=1e-12
        )

    @pytest.mark.parametrize("shift", [-100.0, 0.0, 3.5, 250.0])
    def test_log_ratio(self, shift):
        p = softmax(LogitVector((shift, shift + math.log(2.0))))
        assert p.scores[0] == pytest.approx(1 / 3, abs=1e-12)
        assert p.scores[1] == pytest.approx(2 / 3, abs=1e-12)

    def test_no_overflow(self):
        p = softmax(LogitVector((1000.0, 0.0)))
        assert p.scores[0] == pytest.approx(1.0, abs=1e-12)
        assert p.scores[1] == pytest.approx(0.0, abs=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = softmax(LogitVector(tuple(rng.normal(0, 5, 6))))
            assert abs(sum(p.scores) - 1.0) < 1e-12


class TestScaledSoftmax:
    def test_identity_temperature(self):
        z = LogitVector((0.3, -1.2, 2.0))
        assert scaled_softmax(z, 1.0) == softmax(z)

    def test_large_temperature_uniform(self):
        p = scaled_softmax(LogitVector((5.0, -3.0, 1.0)), 1e6)
        assert max(abs(v - 1 / 3) for v in p.scores) < 1e-5

    def test_argmax_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            z = LogitVector(tuple(rng.normal(0, 4, 5)))
            t = float(rng.uniform(0.01, 50.0))
            assert int(np.argmax(scaled_softmax(z, t).scores)) == int(
                np.argmax(z.logits)
            )

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError):
            scaled_softmax(LogitVector((0.0, 1.0)), 0.0)
        with pytest.raises(ValueError):
            scaled_softmax(LogitVector((0.0, 1.0)), -1.0)


class TestFitTemperature:
    def test_recovers_two(self):
        records = generate_calibration_records(10000, 2.0, 5, seed=42)
        t = fit_temperature(records)
        assert abs(t - 2.0) / 2.0 < 0.02
        _, oracle_nll = grid_search_nll(records)
        assert negative_log_likelihood(records, t) <= oracle_nll + 1e-6 * abs(oracle_nll)

    def test_already_calibrated(self):
        records = generate_calibration_records(10000, 1.0, 5, seed=7)
        assert 0.9 <= fit_temperature(records) <= 1.1

    def test_single_record_correct_dominant_pushes_low(self):
        # confidence helps: NLL keeps improving toward the low-T boundary
        records = [CalibrationRecord(LogitVector((0.0, 3.0, 1.0)), 1)] * 20
        t = fit_temperature(records)
        _, oracle_nll = grid_search_nll(records, step=0.01)
        assert t < 0.2
        assert negative_log_likelihood(records, t) <= oracle_nll + 1e-9

    def test_single_record_wrong_dominant_pushes_to_upper_bound(self):
        records = [CalibrationRecord(LogitVector((0.0, 3.0, 1.0)), 2)] * 20
        t = fit_temperature(records)
        oracle_t, oracle_nll = grid_search_nll(records, step=0.01)
        assert t > 99.0
        assert oracle_t == pytest.approx(100.0)
        assert negative_log_likelihood(records, t) <= oracle_nll + 1e-6 * abs(oracle_nll)

    def test_never_worse_than_unit_temperature(self):
        for seed in range(10):
            tstar = float(np.random.default_rng(seed).uniform(0.3, 4.0))
            records = generate_calibration_records(500, tstar, 4, seed=seed)
            t = fit_temperature(records)
            assert negative_log_likelihood(records, t) <= negative_log_likelihood(
                records, 1.0
            ) + 1e-9

    def test_empty_records_error(self):
        with pytest.raises(ValueError):
            fit_temperature([])


class TestReliability:
    def test_perfect_confidence(self):
        records = [CalibrationRecord(LogitVector((0.0, 200.0)), 1)] * 5
        d = reliability(records, 1.0, 10)
        assert d.bins[-1].count == 5
        assert d.bins[-1].accuracy == 1.0
        assert d.bins[-1].mean_confidence == pytest.approx(1.0, abs=1e-9)
        assert mce(d) == pytest.approx(0.0, abs=1e-9)

    def test_bin_counts_conserved(self):
        records = generate_calibration_records(500, 1.3, 4, seed=2)
        d = reliability(records, 1.0, 10)
        assert sum(b.count for b in d.bins) == 500

    def test_empty_bins_excluded(self):
        # two-class records: confidence >= 0.5, low bins stay empty
        records = [CalibrationRecord(LogitVector((0.0, 0.1)), 1)] * 9
        d = reliability(records, 1.0, 10)
        assert sum(1 for b in d.bins if b.count > 0) == 1
        assert mce(d) == ace(d)

    def test_known_per_bin_accuracy(self):
        # construct records with confidence c and accuracy p per bin, then
        # recount with a direct loop oracle
        rng = np.random.default_rng(3)
        records = []
        plan = [(0.55, 0.6), (0.75, 0.7), (0.95, 0.9)]
        for conf, acc in plan:
            gap = math.log(conf / (1.0 - conf))
            for _ in range(1000):
                correct = rng.random() < acc
                records.append(
                    CalibrationRecord(LogitVector((0.0, gap)), 1 if correct else 0)
                )
        d = reliability(records, 1.0, 10)
        counts = {}
        hits = {}
        for r in records:
            p = softmax(r.logits)
            conf = max(p.scores)
            b = min(int(conf * 10), 9)
            counts[b] = counts.get(b, 0) + 1
            hits[b] = hits.get(b, 0) + (
                1 if int(np.argmax(p.scores)) == r.true_class else 0
            )
        for i, b in enumerate(d.bins):
            assert b.count == counts.get(i, 0)
            if b.count:
                assert b.accuracy == pytest.approx(hits[i] / counts[i], abs=1e-12)

    def test_csv_shape(self):
        records = generate_calibration_records(100, 1.0, 3, seed=1)
        text = reliability_csv(reliability(records, 1.0, 10))
        lines = text.strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,confidence,accuracy,count"
        assert len(lines) == 11


class TestMceAce:
    def test_single_bin_gap(self):
        # accuracy 0.7 vs confidence 0.9 in one populated bin -> 0.2
        rng = np.random.default_rng(4)
        gap = math.log(0.9 / 0.1)
        records = [
            CalibrationRecord(LogitVector((0.0, gap)), 1 if rng.random() < 0.7 else 0)
            for _ in range(4000)
        ]
        d = reliability(records, 1.0, 10)
        assert mce(d) == pytest.approx(0.2, abs=0.03)
        assert ace(d) == pytest.approx(0.2, abs=0.03)

    def test_mce_at_least_ace(self):
        for seed in range(10):
            records = generate_calibration_records(400, 2.5, 4, seed=seed)
            d = reliability(records, 1.0, 10)
            assert mce(d) >= ace(d) - 1e-12

    def test_all_empty_error(self):
        d = reliability([], 1.0, 5)
        with pytest.raises(ValueError):
            mce(d)


class TestFocalLoss:
    def test_gamma_zero_is_cross_entropy(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            raw = rng.dirichlet(np.ones(4))
            p = ScoreVector(tuple(raw))
            t = int(rng.integers(0, 4))
            if p.scores[t] == 0.0:
                continue
            assert focal_loss(p, t, gamma=0.0) == pytest.approx(
                -math.log(p.scores[t]), abs=1e-12
            )

    def test_certain_prediction_zero_loss(self):
        assert focal_loss(ScoreVector((0.0, 1.0)), 1, gamma=2.0) == 0.0

    def test_half_probability_value(self):
        got = focal_loss(ScoreVector((0.5, 0.5)), 1, gamma=2.0)
        assert got == pytest.approx(0.25 * math.log(2.0), abs=1e-12)

    def test_never_exceeds_cross_entropy(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            raw = rng.dirichlet(np.ones(5))
            t = int(rng.integers(0, 5))
            if raw[t] == 0.0:
                continue
            p = ScoreVector(tuple(raw))
            gamma = float(rng.uniform(0, 6))
            assert focal_loss(p, t, gamma=gamma) <= -math.log(p.scores[t]) + 1e-12

    def test_alpha_weights(self):
        p = ScoreVector((0.25, 0.75))
        assert focal_loss(p, 1, alpha=(1.0, 2.0), gamma=0.0) == pytest.approx(
            -2.0 * math.log(0.75), abs=1e-12
        )

    def test_zero_probability_error(self):
        with pytest.raises(ValueError):
            focal_loss(ScoreVector((1.0, 0.0)), 1)


class TestRecordIo:
    def test_round_trip(self):
        records = generate_calibration_records(20, 1.7, 3, seed=9)
        text = serialize_calibration_records(records)
        assert parse_calibration_records(text) == records

    def test_rejects_unknown_fields(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_calibration_records('{"logits": [0, 1], "true_class": 1, "x": 2}')

    def test_rejects_bad_class(self):
        with pytest.raises(ParseError):
            parse_calibration_records('{"logits": [0, 1], "true_class": 5}')

    def test_rejects_mixed_logit_counts(self):
        text = '{"logits": [1, 2], "true_class": 1}\n\n{"logits": [1, 2, 3], "true_class": 1}\n'
        with pytest.raises(ParseError, match="^line 3: 3 logits, but line 1 has 2") as err:
            parse_calibration_records(text)
        assert err.value.line_number == 3
