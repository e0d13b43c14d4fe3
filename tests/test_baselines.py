"""Bin-voting and HMM baselines, including the decode-vs-enumeration check."""
import datetime as dt

import numpy as np
import pytest

from helpers import (
    enumerate_best_score,
    fold_path_score,
    random_trajectory,
    traj_from_meters,
)
from sparsemob.baselines import (
    DEFAULT_TZ_OFFSET,
    HOURS_PER_WEEK,
    STATE_LABELS,
    BucketConfig,
    HmmModel,
    SpatioTemporalBin,
    VotingModel,
    grid_index,
    hmm_predict,
    hmm_train,
    hour_index,
    observations,
    spatiotemporal_bin,
    viterbi,
    voting_train,
)
from sparsemob.core import LABEL_STAY, LABEL_TRAVEL, LABEL_UNLABELED

S, T, U = LABEL_STAY, LABEL_TRAVEL, LABEL_UNLABELED


class TestGridIndex:
    def test_known_point(self):
        assert grid_index(116.523625, 39.792935) == (116523, 39792)

    def test_origin(self):
        assert grid_index(0.0, 0.0) == (0, 0)

    def test_small_negative_floors_down(self):
        assert grid_index(-0.0005, -0.0005) == (-1, -1)

    def test_interior_points_hit_their_cell(self, rng):
        # offsets well inside a milli-degree cell avoid edge round-off
        for _ in range(200):
            klon = int(rng.integers(-10000, 10000))
            klat = int(rng.integers(-10000, 10000))
            u, v = rng.uniform(0.1, 0.9, size=2)
            assert grid_index((klon + u) / 1000.0, (klat + v) / 1000.0) == (klon, klat)


def oracle_hour(t: int, week_start: str, tz_offset: int = DEFAULT_TZ_OFFSET) -> int:
    """Second route via the datetime module's calendar arithmetic."""
    local = dt.datetime.fromtimestamp(t + tz_offset, dt.timezone.utc)
    wd = local.weekday()
    if week_start == "sunday":
        wd = (wd + 1) % 7
    return wd * 24 + local.hour


class TestHourIndex:
    def test_monday_noon_local(self):
        # 2023-01-02 12:30 in UTC+8
        assert hour_index(1672633800) == 12
        assert hour_index(1672633800, week_start="sunday") == 36

    def test_sunday_half_past_midnight_local(self):
        # 2023-01-01 00:30 in UTC+8
        assert hour_index(1672504200) == 144
        assert hour_index(1672504200, week_start="sunday") == 0

    def test_matches_datetime_route(self, rng):
        for _ in range(300):
            t = int(rng.integers(0, 2_000_000_000))
            tz = int(rng.choice([0, 3600, 28800, -18000]))
            for ws in ("monday", "sunday"):
                assert hour_index(t, week_start=ws, tz_offset=tz) == oracle_hour(
                    t, ws, tz
                )

    def test_always_in_week_range(self, rng):
        for _ in range(200):
            t = int(rng.integers(-100_000, 2_000_000_000))
            h = hour_index(t)
            assert 0 <= h < HOURS_PER_WEEK

    def test_unknown_week_start_rejected(self):
        with pytest.raises(ValueError, match="week_start"):
            hour_index(0, week_start="saturday")


class TestSpatioTemporalBin:
    def test_composition(self):
        b = spatiotemporal_bin(116.523625, 39.792935, 1672633800)
        assert (b.grid_lon, b.grid_lat) == (116523, 39792)
        assert b.hour == 12

    def test_week_start_flows_through(self):
        b = spatiotemporal_bin(0.0, 0.0, 1672504200, week_start="sunday")
        assert b.hour == 0

    def test_hour_bounds_enforced(self):
        with pytest.raises(ValueError):
            SpatioTemporalBin(0, 0, 168)
        with pytest.raises(ValueError):
            SpatioTemporalBin(0, 0, -1)


def crlf_rows(data: bytes) -> bytes:
    """A model file in the older layout: comment lines end in LF, CSV rows
    in CRLF (``csv.writer``'s default)."""
    return b"".join(
        line + (b"\n" if line.startswith(b"#") else b"\r\n")
        for line in data.splitlines()
    )


class TestVotingModel:
    def test_majority_wins(self):
        model = VotingModel()
        b = SpatioTemporalBin(1, 2, 3)
        for _ in range(3):
            model.add(b, S)
        model.add(b, T)
        assert model.predict_bin(b) == S

    def test_doubling_counts_preserves_predictions(self):
        model = VotingModel()
        bins = [SpatioTemporalBin(0, 0, h) for h in range(6)]
        votes = [(3, 1), (1, 4), (2, 2), (0, 0), (5, 5), (1, 0)]
        for b, (stay, travel) in zip(bins, votes):
            model.counts[b] = (stay, travel)
        doubled = VotingModel(
            counts={b: (2 * s, 2 * t) for b, (s, t) in model.counts.items()}
        )
        for b in bins:
            assert model.predict_bin(b) == doubled.predict_bin(b)

    def test_unseen_bin_coin_is_seed_and_bin_keyed(self):
        b = SpatioTemporalBin(116523, 39792, 36)
        assert VotingModel(seed=0).predict_bin(b) == S
        assert VotingModel(seed=7).predict_bin(b) == T
        assert VotingModel(seed=0).predict_bin(SpatioTemporalBin(0, 0, 0)) == S
        assert VotingModel(seed=7).predict_bin(SpatioTemporalBin(5, -3, 100)) == T

    def test_tie_falls_back_to_the_same_coin(self):
        b = SpatioTemporalBin(116523, 39792, 36)
        for seed in (0, 7):
            tied = VotingModel(seed=seed)
            tied.add(b, S)
            tied.add(b, T)
            assert tied.predict_bin(b) == VotingModel(seed=seed).predict_bin(b)

    def test_add_rejects_unlabeled(self):
        with pytest.raises(ValueError):
            VotingModel().add(SpatioTemporalBin(0, 0, 0), U)

    def test_never_abstains(self, rng):
        model = VotingModel()
        for _ in range(10):
            predicted = model.predict(random_trajectory(rng))
            assert np.isin(predicted, [S, T]).all()


class TestVotingTrain:
    @staticmethod
    def _pair():
        traj = traj_from_meters([0, 60, 120, 50000], [0.0, 10.0, 20.0, 5000.0])
        labels = np.array([S, S, U, T], dtype=np.int8)
        return traj, labels

    def test_unlabeled_records_contribute_nothing(self):
        traj, labels = self._pair()
        model = voting_train([(traj, labels)])
        assert sum(s + t for s, t in model.counts.values()) == 3

    def test_training_order_irrelevant(self):
        a = self._pair()
        traj_b = traj_from_meters([30, 90], [5.0, 15.0], device="b")
        b = (traj_b, np.array([T, T], dtype=np.int8))
        forward = voting_train([a, b])
        backward = voting_train([b, a])
        assert forward.counts == backward.counts

    def test_label_alignment_enforced(self):
        traj, _ = self._pair()
        with pytest.raises(ValueError, match="align"):
            voting_train([(traj, np.array([S, T], dtype=np.int8))])

    def test_predictions_recover_trained_majorities(self):
        traj, labels = self._pair()
        model = voting_train([(traj, labels)])
        predicted = model.predict(traj)
        # records 0 and 1 share a bin trained stay twice; record 3 trained travel
        assert predicted[0] == S
        assert predicted[1] == S
        assert predicted[3] == T

    def test_save_load_round_trip(self, tmp_path):
        traj, labels = self._pair()
        model = voting_train([(traj, labels)], seed=5)
        first = tmp_path / "vote1.csv"
        second = tmp_path / "vote2.csv"
        model.save(first)
        loaded = VotingModel.load(first)
        assert loaded.seed == 5
        assert loaded.counts == model.counts
        loaded.save(second)
        assert first.read_bytes() == second.read_bytes()
        assert np.array_equal(loaded.predict(traj), model.predict(traj))

    def test_saved_file_ends_lines_in_lf(self, tmp_path):
        traj, labels = self._pair()
        model = voting_train([(traj, labels)], seed=5)
        path = tmp_path / "vote.csv"
        model.save(path)
        assert b"\r" not in path.read_bytes()
        path.write_bytes(crlf_rows(path.read_bytes()))
        assert VotingModel.load(path).counts == model.counts

    def test_load_rejects_other_files(self, tmp_path):
        bogus = tmp_path / "x.csv"
        bogus.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="voting"):
            VotingModel.load(bogus)


class TestBucketConfig:
    def test_alphabet_size(self):
        assert BucketConfig().n_symbols == 16

    def test_distance_edge_rounds_up(self):
        b = BucketConfig()
        assert b.symbol(99.99, 0.0) == 1
        assert b.symbol(100.0, 0.0) == 4
        assert b.symbol(3200.0, 0.0) == 13

    def test_gap_edge_rounds_down(self):
        b = BucketConfig()
        assert b.symbol(0.0, 300.0) == 1
        assert b.symbol(0.0, 301.0) == 2
        assert b.symbol(0.0, 1800.0) == 2
        assert b.symbol(0.0, 1801.0) == 3

    def test_largest_symbol_fits_alphabet(self):
        b = BucketConfig()
        assert b.symbol(1e9, 1e9) == b.n_symbols - 1

    def test_edges_validated(self):
        with pytest.raises(ValueError):
            BucketConfig(distance_edges=())
        with pytest.raises(ValueError):
            BucketConfig(gap_edges=(300.0, 300.0))


class TestObservations:
    def test_first_record_reserved_symbol(self):
        traj = traj_from_meters([0, 100, 500], [0.0, 150.0, 200.0])
        syms = observations(traj, BucketConfig())
        assert syms[0] == 0

    def test_single_record(self):
        syms = observations(traj_from_meters([0], [0.0]), BucketConfig())
        assert list(syms) == [0]

    def test_symbols_match_scalar_bucketing(self):
        # steps of 150 m then 50 m; gaps of 100 s then 400 s
        buckets = BucketConfig()
        traj = traj_from_meters([0, 100, 500], [0.0, 150.0, 200.0])
        syms = observations(traj, buckets, ref_lat=0.0)
        assert list(syms) == [0, buckets.symbol(150.0, 100.0), buckets.symbol(50.0, 400.0)]
        assert list(syms) == [0, 4, 2]


class TestHmmTrain:
    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            hmm_train([])

    def test_label_alignment_enforced(self):
        traj = traj_from_meters([0, 60], [0.0, 10.0])
        with pytest.raises(ValueError, match="align"):
            hmm_train([(traj, np.array([S], dtype=np.int8))])

    def test_counts_and_smoothing_by_hand(self):
        # symbols come out as [0, 10, 10]: 1 km steps, minute gaps
        traj = traj_from_meters([0, 60, 120], [0.0, 1000.0, 2000.0])
        labels = np.array([S, T, T], dtype=np.int8)
        model = hmm_train([(traj, labels)], ref_lat=0.0)
        assert model.initial == pytest.approx([2 / 3, 1 / 3])
        assert model.transition[0] == pytest.approx([1 / 3, 2 / 3])
        assert model.transition[1] == pytest.approx([1 / 3, 2 / 3])
        assert model.emission[0, 0] == pytest.approx(2 / 17)
        assert model.emission[0, 1] == pytest.approx(1 / 17)
        assert model.emission[1, 10] == pytest.approx(3 / 18)
        assert model.emission[1, 0] == pytest.approx(1 / 18)

    def test_unlabeled_gap_not_bridged(self):
        traj = traj_from_meters([0, 60, 120], [0.0, 1000.0, 2000.0])
        labels = np.array([S, U, T], dtype=np.int8)
        model = hmm_train([(traj, labels)], ref_lat=0.0)
        # no transition pair was labeled on both ends
        assert model.transition == pytest.approx(np.full((2, 2), 0.5))

    def test_rows_are_distributions(self, rng):
        pairs = []
        for _ in range(4):
            traj = random_trajectory(rng, max_len=12)
            labels = rng.choice([S, T, U], size=len(traj)).astype(np.int8)
            pairs.append((traj, labels))
        model = hmm_train(pairs)
        assert model.initial.sum() == pytest.approx(1.0)
        assert model.transition.sum(axis=1) == pytest.approx([1.0, 1.0])
        assert model.emission.sum(axis=1) == pytest.approx([1.0, 1.0])
        assert (model.emission > 0).all()


def sharp_emission_model() -> HmmModel:
    """Uniform dynamics, one loud symbol per state: argmax decoding by symbol."""
    buckets = BucketConfig()
    n = buckets.n_symbols
    emission = np.full((2, n), 0.01)
    emission[0, 1] = 1.0 - 0.01 * (n - 1)
    emission[1, 2] = 1.0 - 0.01 * (n - 1)
    return HmmModel(
        initial=np.array([0.5, 0.5]),
        transition=np.full((2, 2), 0.5),
        emission=emission,
        buckets=buckets,
    )


class TestHmmModel:
    def test_shape_validation(self):
        buckets = BucketConfig()
        with pytest.raises(ValueError, match="two-state"):
            HmmModel(
                initial=np.array([1.0]),
                transition=np.eye(2),
                emission=np.full((2, buckets.n_symbols), 1 / buckets.n_symbols),
                buckets=buckets,
            )
        with pytest.raises(ValueError, match="bucket alphabet"):
            HmmModel(
                initial=np.array([0.5, 0.5]),
                transition=np.full((2, 2), 0.5),
                emission=np.full((2, 3), 1 / 3),
                buckets=buckets,
            )

    def test_rows_must_normalize(self):
        buckets = BucketConfig()
        with pytest.raises(ValueError, match="sum to 1"):
            HmmModel(
                initial=np.array([0.7, 0.7]),
                transition=np.full((2, 2), 0.5),
                emission=np.full((2, buckets.n_symbols), 1 / buckets.n_symbols),
                buckets=buckets,
            )

    def test_sharp_emissions_reproduce_symbol_pattern(self):
        model = sharp_emission_model()
        # gaps pick the symbol: 100 s -> symbol 1, 600 s -> symbol 2
        times = np.cumsum([0, 100, 600, 100, 600])
        traj = traj_from_meters(times, [0.0, 50.0, 100.0, 150.0, 200.0])
        predicted = hmm_predict(model, traj, ref_lat=0.0)
        # first record emits the reserved symbol: a tie, resolved to stay
        assert list(predicted) == [S, S, T, S, T]

    def test_save_load_round_trip(self, tmp_path):
        traj = traj_from_meters([0, 60, 120], [0.0, 1000.0, 2000.0])
        model = hmm_train([(traj, np.array([S, T, T], dtype=np.int8))], ref_lat=0.0)
        first = tmp_path / "hmm1.csv"
        second = tmp_path / "hmm2.csv"
        model.save(first)
        loaded = HmmModel.load(first)
        assert np.array_equal(loaded.initial, model.initial)
        assert np.array_equal(loaded.transition, model.transition)
        assert np.array_equal(loaded.emission, model.emission)
        assert loaded.buckets == model.buckets
        loaded.save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_saved_file_ends_lines_in_lf(self, tmp_path):
        traj = traj_from_meters([0, 60, 120], [0.0, 1000.0, 2000.0])
        model = hmm_train([(traj, np.array([S, T, T], dtype=np.int8))], ref_lat=0.0)
        path = tmp_path / "hmm.csv"
        model.save(path)
        assert b"\r" not in path.read_bytes()
        path.write_bytes(crlf_rows(path.read_bytes()))
        assert np.array_equal(HmmModel.load(path).emission, model.emission)

    def test_load_rejects_other_files(self, tmp_path):
        bogus = tmp_path / "x.csv"
        bogus.write_text("# sparsemob voting v1\ngrid_lon,grid_lat,hour,stay,travel\n")
        with pytest.raises(ValueError, match="hmm"):
            HmmModel.load(bogus)

    def test_state_labels_order(self):
        assert STATE_LABELS == (S, T)


def random_model(rng, n_symbols: int = 4):
    initial = rng.random(2) + 0.05
    initial /= initial.sum()
    transition = rng.random((2, 2)) + 0.05
    transition /= transition.sum(axis=1, keepdims=True)
    emission = rng.random((2, n_symbols)) + 0.05
    if rng.random() < 0.25:
        # exercise impossible-emission paths
        emission[rng.integers(0, 2), rng.integers(0, n_symbols)] = 0.0
    emission /= emission.sum(axis=1, keepdims=True)
    return initial, transition, emission


class TestViterbi:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            viterbi(np.array([0.5, 0.5]), np.full((2, 2), 0.5), np.full((2, 4), 0.25), [])

    def test_single_step_is_argmax(self):
        states, score = viterbi(
            np.array([0.9, 0.1]),
            np.full((2, 2), 0.5),
            np.full((2, 4), 0.25),
            np.array([2]),
        )
        assert list(states) == [0]
        assert score == pytest.approx(np.log(0.9) + np.log(0.25))

    def test_all_ties_resolve_to_lower_state(self):
        states, _ = viterbi(
            np.array([0.5, 0.5]),
            np.full((2, 2), 0.5),
            np.full((2, 4), 0.25),
            np.array([0, 1, 2]),
        )
        assert list(states) == [0, 0, 0]

    def test_matches_exhaustive_enumeration(self, rng):
        for _ in range(200):
            n_symbols = 4
            initial, transition, emission = random_model(rng, n_symbols)
            length = int(rng.integers(1, 9))
            symbols = rng.integers(0, n_symbols, size=length)
            states, score = viterbi(initial, transition, emission, symbols)
            best = enumerate_best_score(initial, transition, emission, symbols)
            assert score == best
            assert (
                fold_path_score(initial, transition, emission, list(states), symbols)
                == score
            )

    def test_decoded_path_is_valid(self, rng):
        initial, transition, emission = random_model(rng)
        symbols = rng.integers(0, 4, size=6)
        states, _ = viterbi(initial, transition, emission, symbols)
        assert states.shape == (6,)
        assert np.isin(states, [0, 1]).all()


class TestHmmPredict:
    def test_empty_trajectory(self):
        model = sharp_emission_model()
        from sparsemob.core import Trajectory

        empty = Trajectory(
            device="d",
            times=np.array([], dtype=np.int64),
            lons=np.array([]),
            lats=np.array([]),
        )
        assert len(hmm_predict(model, empty)) == 0

    def test_never_abstains(self, rng):
        traj = traj_from_meters([0, 60, 120], [0.0, 1000.0, 2000.0])
        model = hmm_train([(traj, np.array([S, T, T], dtype=np.int8))], ref_lat=0.0)
        for _ in range(5):
            query = random_trajectory(rng)
            predicted = hmm_predict(model, query)
            assert np.isin(predicted, [S, T]).all()
