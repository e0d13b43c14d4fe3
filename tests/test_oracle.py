"""Exhaustive reference labeling and the bilateral witness checkers."""
import math

import numpy as np
import pytest

from helpers import (
    brute_dense_member,
    brute_stay_oracle,
    brute_travel_witness,
    minutes,
    random_trajectory,
    traj_from_meters,
)
from sparsemob import sds
from sparsemob.core import (
    LABEL_STAY,
    METERS_PER_DEGREE,
    LabeledTrajectory,
    MobilityParams,
)
from sparsemob.oracle import (
    OracleLimitError,
    dense_stay_membership,
    dense_stay_windows,
    exact_label,
    travel_condition_all,
)
from sparsemob.sds import sds_label

PARAMS = MobilityParams(delta_s=800.0, delta_t=1800.0)


class TestExactLabel:
    def test_two_colocated_records_spanning_threshold(self):
        traj = traj_from_meters(minutes(0, 30), [0.0, 10.0])
        assert exact_label(traj, PARAMS, ref_lat=0.0).letters() == ["S", "S"]

    def test_single_record_is_travel(self):
        traj = traj_from_meters([0], [0.0])
        assert exact_label(traj, PARAMS, ref_lat=0.0).letters() == ["T"]

    def test_cluster_plus_escape_total_labeling(self):
        traj = traj_from_meters(
            minutes(0, 10, 25, 40, 50), [0.0, 50.0, 90.0, 30.0, 1000.0]
        )
        assert exact_label(traj, PARAMS, ref_lat=0.0).letters() == [
            "S",
            "S",
            "S",
            "S",
            "T",
        ]

    def test_returns_the_labeled_trajectory_type(self):
        traj = traj_from_meters(minutes(0, 30), [0.0, 10.0])
        labeled = exact_label(traj, PARAMS, ref_lat=0.0)
        assert type(labeled) is LabeledTrajectory is sds.LabeledTrajectory
        assert labeled.trajectory is traj
        assert labeled.labels.tolist() == [LABEL_STAY, LABEL_STAY]

    def test_labels_are_total(self, rng):
        for _ in range(30):
            traj = random_trajectory(rng)
            letters = exact_label(traj, PARAMS, ref_lat=0.0).letters()
            assert set(letters) <= {"S", "T"}

    def test_agrees_with_literal_window_enumeration(self, rng):
        for _ in range(60):
            traj = random_trajectory(rng, max_len=16)
            got = np.array(
                [s == "S" for s in exact_label(traj, PARAMS, ref_lat=0.0).letters()]
            )
            want = brute_stay_oracle(traj, PARAMS.delta_s, PARAMS.delta_t)
            assert (got == want).all()

    def test_size_limit_enforced(self):
        n = 201
        traj = traj_from_meters(np.arange(n) * 10, np.zeros(n))
        with pytest.raises(OracleLimitError):
            exact_label(traj, PARAMS, ref_lat=0.0)
        exact_label(traj, PARAMS, ref_lat=0.0, limit=250)


class TestDenseStayMembership:
    def test_window_with_small_gaps_flags_all(self):
        traj = traj_from_meters(minutes(0, 10, 20, 40), [0.0, 5.0, 10.0, 2.0])
        assert dense_stay_membership(traj, PARAMS, ref_lat=0.0).all()

    def test_large_gap_breaks_density(self):
        traj = traj_from_meters(minutes(0, 40), [0.0, 5.0])
        assert not dense_stay_membership(traj, PARAMS, ref_lat=0.0).any()

    def test_single_record_not_member(self):
        traj = traj_from_meters([0], [0.0])
        assert not dense_stay_membership(traj, PARAMS, ref_lat=0.0).any()

    def test_agrees_with_literal_enumeration(self, rng):
        for _ in range(60):
            traj = random_trajectory(rng, max_len=16)
            got = dense_stay_membership(traj, PARAMS, ref_lat=0.0)
            want = brute_dense_member(traj, PARAMS.delta_s, PARAMS.delta_t)
            assert (got == want).all()

    def test_subset_of_unrestricted_stays(self, rng):
        for _ in range(30):
            traj = random_trajectory(rng)
            dense = dense_stay_membership(traj, PARAMS, ref_lat=0.0)
            stays = np.array(
                [s == "S" for s in exact_label(traj, PARAMS, ref_lat=0.0).letters()]
            )
            assert (dense <= stays).all()


class TestDenseStayWindows:
    def test_windows_qualify_and_cover_membership(self, rng):
        for _ in range(40):
            traj = random_trajectory(rng, max_len=20)
            windows = dense_stay_windows(traj, PARAMS, ref_lat=0.0)
            x = traj.lons * METERS_PER_DEGREE
            y = traj.lats * METERS_PER_DEGREE
            t = traj.times
            covered = np.zeros(len(traj), dtype=bool)
            for p, q in windows:
                assert t[q] - t[p] >= PARAMS.delta_t
                assert (np.diff(t[p : q + 1]) <= PARAMS.delta_t).all()
                for a in range(p, q + 1):
                    for b in range(a + 1, q + 1):
                        assert math.hypot(x[a] - x[b], y[a] - y[b]) < PARAMS.delta_s
                covered[p : q + 1] = True
            member = brute_dense_member(traj, PARAMS.delta_s, PARAMS.delta_t)
            assert (covered == member).all()

    def test_windows_are_maximal(self, rng):
        # no returned window is contained in another
        for _ in range(40):
            traj = random_trajectory(rng, max_len=20)
            windows = dense_stay_windows(traj, PARAMS, ref_lat=0.0)
            for i, (p, q) in enumerate(windows):
                for j, (pp, qq) in enumerate(windows):
                    if i != j:
                        assert not (pp <= p and q <= qq)


class TestTravelCondition:
    def test_middle_record_with_kilometer_witnesses(self):
        traj = traj_from_meters(minutes(0, 10, 20), [0.0, 1000.0, 2000.0])
        assert travel_condition_all(traj, 800.0, 1800.0, ref_lat=0.0)[1]
        assert travel_condition_all(traj, 400.0, 1800.0, ref_lat=0.0)[1]

    def test_endpoints_always_false(self):
        traj = traj_from_meters(minutes(0, 10, 20), [0.0, 1000.0, 2000.0])
        got = travel_condition_all(traj, 800.0, 1800.0, ref_lat=0.0)
        assert not got[0]
        assert not got[2]

    def test_agrees_with_literal_scan(self, rng):
        for _ in range(40):
            traj = random_trajectory(rng, max_len=20)
            got = travel_condition_all(traj, PARAMS.delta_s, PARAMS.delta_t, ref_lat=0.0)
            for i in range(len(traj)):
                want = brute_travel_witness(traj, i, PARAMS.delta_s, PARAMS.delta_t)
                assert got[i] == want


class TestCrossChecks:
    def test_conservative_stays_are_oracle_stays(self, rng):
        # inference at the tightened escape never contradicts the oracle at
        # the full threshold
        for _ in range(80):
            traj = random_trajectory(rng)
            sds_stay = np.array(
                [s == "S" for s in sds_label(traj, PARAMS, ref_lat=0.0).letters()]
            )
            oracle_stay = np.array(
                [s == "S" for s in exact_label(traj, PARAMS, ref_lat=0.0).letters()]
            )
            assert (sds_stay <= oracle_stay).all()

    def test_travel_sandwich(self, rng):
        # sufficiency at the full witness distance, necessity at half
        for _ in range(60):
            traj = random_trajectory(rng)
            sds_travel = np.array(
                [s == "T" for s in sds_label(traj, PARAMS, ref_lat=0.0).letters()]
            )
            strong = travel_condition_all(traj, PARAMS.delta_s, PARAMS.delta_t, ref_lat=0.0)
            weak = travel_condition_all(
                traj, PARAMS.delta_s / 2.0, PARAMS.delta_t, ref_lat=0.0
            )
            assert (strong <= sds_travel).all()
            assert (sds_travel <= weak).all()
