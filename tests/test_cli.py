"""Command-line front end: parsing, ingest, subcommands, determinism."""
import csv
import io
import os
import re
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    SMALLEST_DELTA_S,
    minutes,
    _csv_text,
    random_trajectory,
    reference_bounds,
    reference_generate_ctrw,
    reference_ingest,
    reference_prop1,
    reference_read_labels,
    reference_stats,
    traj_from_meters,
    write_labels_csv as write_labels,
    write_records_csv as write_records,
)
import sparsemob
import sparsemob.cli as cli
import sparsemob.evaluate as evaluate
import sparsemob.sds as sds
from sparsemob.core import (
    LABEL_STAY,
    LABEL_TRAVEL,
    LABEL_UNLABELED,
    METERS_PER_DEGREE,
    MobilityParams,
    Trajectory,
)
from sparsemob.baselines import hmm_predict, hmm_train, voting_train
from sparsemob.oracle import OracleLimitError, exact_label
from sparsemob.sds import sds_label
from sparsemob.simulate import resample
from sparsemob.cli import (
    DataError,
    _device_rng,
    _fmt,
    _load_model,
    _parse_bool,
    _parse_float_list,
    _parse_time_text,
    _parse_tz,
    _ingest_columns,
    _save_model,
    main,
)

TABLE_EPOCH = 1468317761  # 18:02:41 on 2016-07-12 in UTC+8


def label_lines(path):
    """(mid, time, letter) rows of a labels CSV, comments skipped."""
    out = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or line == "mid,time,label":
            continue
        mid, t, letter = line.split(",")
        out.append((mid, int(t), letter))
    return out


def travel_fixture():
    return traj_from_meters(minutes(0, 10, 20), [0.0, 1000.0, 2000.0], device="t")


def stay_fixture():
    return traj_from_meters(
        minutes(0, 10, 25, 40, 50), [0.0, 50.0, 90.0, 30.0, 1000.0], device="s"
    )


class TestParseTimeText:
    def test_epoch_seconds(self):
        assert _parse_time_text("1468317761", 28800) == TABLE_EPOCH
        assert _parse_time_text(" 1468317761 ", 0) == TABLE_EPOCH

    def test_float_epoch_must_be_integral(self):
        assert _parse_time_text("1468317761.0", 0) == TABLE_EPOCH
        with pytest.raises(ValueError, match="non-integer"):
            _parse_time_text("1468317761.5", 0)

    def test_slash_clock_form_uses_configured_zone(self):
        assert _parse_time_text("18:02:41/07/12/2016", 28800) == TABLE_EPOCH
        assert _parse_time_text("18:02:41/07/12/2016", 0) == TABLE_EPOCH + 28800

    def test_iso_naive_uses_configured_zone(self):
        assert _parse_time_text("2016-07-12T18:02:41", 28800) == TABLE_EPOCH

    def test_iso_with_offset_ignores_configured_zone(self):
        assert _parse_time_text("2016-07-12T18:02:41+08:00", 0) == TABLE_EPOCH
        assert _parse_time_text("2016-07-12T10:02:41+00:00", 28800) == TABLE_EPOCH

    def test_iso_z_suffix_is_utc(self):
        for text in ("2016-07-12T10:02:41", "2016-07-12T10:02:41.5"):
            assert _parse_time_text(text + "Z", 28800) == _parse_time_text(
                text + "+00:00", 28800
            )
        assert _parse_time_text("2016-07-12T10:02:41Z", 28800) == TABLE_EPOCH

    @pytest.mark.parametrize(
        "text, tz_offset, want",
        [
            # the whole second a time falls in: floored, not truncated
            # toward zero, and not rounded through a float
            ("1969-12-31T23:59:59.5+00:00", 28800, -1),
            ("3000-01-01T00:00:00.999999+00:00", 0, 32503680000),
            ("9999-12-31T23:59:59.999999", 0, 253402300799),
        ],
    )
    def test_fraction_reads_as_its_whole_second(self, text, tz_offset, want):
        assert _parse_time_text(text, tz_offset) == want

    @pytest.mark.parametrize(
        "text, want",
        [
            # above 2**53 a double would land on its neighbour
            ("9007199254740993.0", 9007199254740993),
            ("9223372036854775807.0", 2**63 - 1),
            ("9223372036854775807.000", 2**63 - 1),
            ("1_0.0e1", 100),
        ],
    )
    def test_decimal_point_epoch_read_exactly(self, text, want):
        assert _parse_time_text(text, 0) == want

    @pytest.mark.parametrize(
        "text", ["0e9999999999999999999", "-0.0E-9999999999999999999", "0_0e1_0"]
    )
    def test_zero_with_any_exponent_reads_zero(self, text):
        # past about 10**18 the exponent is more than Decimal holds
        assert _parse_time_text(text, 0) == 0

    @pytest.mark.parametrize(
        "text",
        ["1e-400", "1e-9999999999999999999", "9007199254740993.5", "inf", "nan"],
    )
    def test_decimal_point_epoch_with_a_fraction_refused(self, text):
        # 1e-400 is a double's 0.0, but not an integer
        with pytest.raises(ValueError) as err:
            _parse_time_text(text, 0)
        assert str(err.value) == f"non-integer epoch time {text!r}"

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="unrecognized"):
            _parse_time_text("yesterday", 0)

    def test_forms_are_disjoint_and_errors_name_the_text(self):
        # neither form reads the other's text, so the order in which the
        # parser tries them changes no value and no error
        clock, iso = "18:02:41/07/12/2016", "2016-07-12T18:02:41"
        with pytest.raises(ValueError):
            datetime.fromisoformat(clock)
        with pytest.raises(ValueError):
            datetime.strptime(iso, "%H:%M:%S/%m/%d/%Y")
        assert _parse_time_text(clock, 28800) == TABLE_EPOCH
        assert _parse_time_text(iso, 28800) == TABLE_EPOCH
        for text in (" yesterday ", "18:02:41/13/12/2016", "2016-13-12T18:02:41",
                     "18:02:41 07/12/2016", ""):
            with pytest.raises(ValueError) as err:
                _parse_time_text(text, 0)
            assert str(err.value) == f"unrecognized time {text!r}"


#: Cells that Python's own int reads, each in another form
_INT_CELLS = [
    "60", "1_000", "\u0661\u0662\u0663", "\xa060\u2009", "+60", " 7 ", "-3",
    str(2**63 - 1),
]
#: Cells that Python's own float reads, every special value among them
_FLOAT_CELLS = _INT_CELLS + [
    "0.5", "-0.0", "1_0.5", "\u0661.5", "\xa01.5\u2009", "+2e1", "inf", "-inf",
    "Infinity", "nan", "-nan", "1e500", "-1e500", "1e-400",
]


class TestColumnConversion:
    """Ingest converts each numeric column in one numpy call, which must read
    every cell as Python's own ``int`` and ``float`` read it one at a time,
    as ``_column`` does, and refuse what they refuse: a numpy release that
    converts otherwise fails here, not in a labels file. A coordinate column
    hands that call only the first cell of each run of equal texts, and must
    still read, bit for bit, and refuse, row by row, as ``_column`` does."""

    def test_int_column_as_int_reads_it(self):
        got = np.array(_INT_CELLS, dtype=np.int64)
        assert got.tolist() == cli._column(int, _INT_CELLS, {}, 0)

    def test_float_column_as_float_reads_it_bit_for_bit(self):
        want = np.array(cli._column(float, _FLOAT_CELLS, {}, 0.0), dtype=np.float64)
        assert np.array(_FLOAT_CELLS, dtype=np.float64).tobytes() == want.tobytes()
        faults = {}
        assert cli._floats(_FLOAT_CELLS, faults).tobytes() == want.tobytes()
        assert faults == {}
        assert np.signbit(want[_FLOAT_CELLS.index("-nan")])

    @pytest.mark.parametrize("cell", ["1.0", "1e3", "", "x", "5\x00", "0x10", "١٫٥"])
    def test_cells_int_refuses_are_refused(self, cell):
        with pytest.raises(ValueError):
            int(cell)
        with pytest.raises(ValueError):
            np.array(["1", cell], dtype=np.int64)

    def test_time_past_int64_overflows_the_conversion(self):
        with pytest.raises(OverflowError):
            np.array(["0", "9223372036854775808"], dtype=np.int64)

    def test_missing_cell_is_refused(self):
        # numpy reads None as NaN in a float array, so _floats reads such a
        # column by _column, which words the fault as indexing the row does
        with pytest.raises(TypeError):
            np.array(["1", None], dtype=np.int64)
        assert np.isnan(np.array(["1", None], dtype=np.float64)[1])
        faults = {}
        assert cli._floats(["1", None], faults).tolist() == [1.0, 0.0]
        assert faults == {1: "list index out of range"}

    @pytest.mark.parametrize(
        "cells",
        [
            # equal values, other texts: each text is a run of its own, and
            # keeps its sign bit
            ["0.0", "0.0", "-0.0", "-0.0", "0.0", "-0", "-0.0"],
            ["nan", "nan", "-nan", "-nan", "nan", "NaN", "-nan"],
            ["1.0", "1.0", "1.00", "+1.0", "+1.0", "1", "1.0", "1e0"],
            # a refused cell inside and as a run; missing cells in a run
            ["0.5", "0.5", "x", "0.5", "0.5", "x", "x", "x", "0.5"],
            ["0.5", "", "", "0.5", None, None, None, "0.5", "0.5", None],
            [None, None, "-0.0", "-0.0", "nan", "nan", "y", None, "1e500", "1e500"],
            ["1", "1", "1", "1"], ["1"], [None], [],
        ],
    )
    def test_runs_read_as_cell_by_cell(self, cells):
        want_faults, got_faults = {}, {}
        want = np.array(cli._column(float, cells, want_faults, 0.0), dtype=np.float64)
        got = cli._floats(cells, got_faults)
        assert got.tobytes() == want.tobytes()
        assert got_faults == want_faults

    @pytest.mark.parametrize("runs", [10, 10_000])
    def test_each_run_converted_once(self, monkeypatch, runs):
        # the float conversion is handed one cell per run: 10 for a column
        # of 10 runs of 1,000 equal cells, and the whole column, in one
        # call, for a column with no repeat
        cells = [repr(k / 8) for k in range(runs) for _ in range(10_000 // runs)]
        calls = []
        array = np.array

        def counted(obj, *args, **kwargs):
            calls.append(len(obj))
            return array(obj, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "array", counted)
            got = cli._floats(cells, {})
        assert calls == [runs]
        assert got.tolist() == list(map(float, cells))

    def test_each_row_of_a_refused_run_is_worded(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text(
            "time,lon,lat,mid\n0,0.5,0.5,a\n60,x,0.5,a\n120,x,0.5,a\n"
            "180,x,0.5,a\n240,0.5,0.5,a\n"
        )
        issues = [f"{path}:{line}: could not convert string to float: 'x'"
                  for line in (3, 4, 5)]
        keys, _, times, _, _ = _ingest_columns(str(path), tz_offset=0, strict=False)
        assert (keys, times.tolist()) == (["a"], [0, 240])
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {issue} (row skipped)" for issue in issues
        ]
        with pytest.raises(DataError) as info:
            _ingest_columns(str(path), tz_offset=0, strict=True)
        assert str(info.value) == "3 bad row(s):\n" + "\n".join(issues)

    def test_coordinate_runs_match_reference(self, tmp_path, capsys):
        rng = np.random.default_rng(20261021)
        path = tmp_path / "r.csv"
        for case in range(300):
            path.write_text(random_run_records_text(rng))
            for strict in (False, True):
                got = ingest_outcome(_ingest_columns, path, strict, capsys)
                want = ingest_outcome(reference_columns, path, strict, capsys)
                assert got == want, (case, strict, path.read_text())

    @pytest.mark.parametrize("row", ["60,a", "60,a,0.5"])
    def test_short_row_warns_index_out_of_range(self, tmp_path, capsys, row):
        path = tmp_path / "r.csv"
        path.write_text(f"time,mid,lon,lat\n0,a,0.5,0.5\n{row}\n")
        warning = f"warning: {path}:3: list index out of range (row skipped)\n"
        keys, _, times, _, _ = _ingest_columns(str(path), tz_offset=0, strict=False)
        assert (keys, times.tolist()) == (["a"], [0])
        assert capsys.readouterr().err == warning
        assert main(["label", str(path), "--out", str(tmp_path / "o.csv")]) == 0
        assert capsys.readouterr().err == warning


class TestSmallParsers:
    def test_timezone_forms(self):
        assert _parse_tz("28800") == 28800
        assert _parse_tz("+08:00") == 28800
        assert _parse_tz("-05:00") == -18000
        assert _parse_tz("+05:30") == 19800
        assert _parse_tz("0") == 0
        # the offsets nearest +/-24 h that datetime.timezone takes
        assert _parse_tz("+23:59") == 86340 and _parse_tz("-23:59") == -86340
        assert _parse_tz("86399") == 86399 and _parse_tz("-86399") == -86399

    @pytest.mark.parametrize(
        "text",
        ["25:00", "+24:00", "-24:00", "86400", "-86400", "99999999999999999999",
         "+08:75", "+08:-30", "+-08:00", "08:+30", ":30", "+08:", "08:3O"],
    )
    def test_timezone_not_an_offset_rejected(self, text):
        with pytest.raises(ValueError):
            _parse_tz(text)

    def test_bool_forms(self):
        assert _parse_bool("on") and _parse_bool("TRUE") and _parse_bool("1")
        assert not (_parse_bool("off") or _parse_bool("no") or _parse_bool("0"))
        with pytest.raises(ValueError):
            _parse_bool("maybe")

    def test_float_list(self):
        assert _parse_float_list("1.0,0.5") == (1.0, 0.5)
        assert _parse_float_list("0.3") == (0.3,)
        with pytest.raises(ValueError):
            _parse_float_list(",")

    def test_device_rng_keyed_by_seed_and_device(self):
        a = _device_rng(0, "dev").random(4)
        b = _device_rng(0, "dev").random(4)
        c = _device_rng(0, "other").random(4)
        d = _device_rng(1, "dev").random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


class TestIngest:
    def test_clock_form_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "time,lon,lat,mid\n"
            "18:02:41/07/12/2016,116.523625,39.792935,1370021020431\n"
        )
        keys, _, times, lons, _ = _ingest_columns(str(path), tz_offset=28800, strict=True)
        assert keys == ["1370021020431"]
        assert times.tolist() == [TABLE_EPOCH]
        assert lons.tolist() == [116.523625]

    def test_time_formats_agree(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "time,lon,lat,mid\n"
            "1468317761,116.5,39.7,a\n"
            "18:02:41/07/12/2016,116.5,39.7,b\n"
            "2016-07-12T18:02:41,116.5,39.7,c\n"
            "2016-07-12T10:02:41+00:00,116.5,39.7,d\n"
        )
        keys, sizes, times, _, _ = _ingest_columns(str(path), tz_offset=28800, strict=True)
        assert (keys, sizes.tolist()) == (["a", "b", "c", "d"], [1] * 4)
        assert times.tolist() == [TABLE_EPOCH] * 4

    def test_empty_with_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("time,lon,lat,mid\n")
        keys, *columns = _ingest_columns(str(path), tz_offset=0, strict=True)
        assert (keys, [len(column) for column in columns]) == ([], [0] * 4)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("")
        with pytest.raises(DataError, match="header"):
            _ingest_columns(str(path), tz_offset=0, strict=False)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("time,lon,lat\n0,0.0,0.0\n")
        with pytest.raises(DataError, match="mid"):
            _ingest_columns(str(path), tz_offset=0, strict=False)

    def test_rows_sorted_and_devices_ordered(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "time,lon,lat,mid\n"
            "600,0.1,0.0,zeta\n"
            "0,0.2,0.0,zeta\n"
            "5,0.3,0.0,alpha\n"
        )
        keys, sizes, times, lons, _ = _ingest_columns(str(path), tz_offset=0, strict=True)
        assert (keys, sizes.tolist()) == (["alpha", "zeta"], [1, 2])
        assert times.tolist() == [5, 0, 600]
        assert lons.tolist() == [0.3, 0.2, 0.1]

    def test_duplicate_keeps_first_with_warning(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text(
            "time,lon,lat,mid\n"
            "100,0.001,0.0,d\n"
            "100,0.5,0.0,d\n"
            "200,0.002,0.0,d\n"
        )
        keys, _, times, lons, _ = _ingest_columns(str(path), tz_offset=0, strict=False)
        assert (keys, times.tolist()) == (["d"], [100, 200])
        assert lons.tolist() == [0.001, 0.002]
        assert "duplicate" in capsys.readouterr().err

    def test_duplicate_fatal_in_strict_mode(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("time,lon,lat,mid\n100,0.0,0.0,d\n100,0.1,0.0,d\n")
        with pytest.raises(DataError, match=":3"):
            _ingest_columns(str(path), tz_offset=0, strict=True)

    def test_bad_coordinates_skipped_or_fatal(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text(
            "time,lon,lat,mid\n0,0.0,95.0,d\n60,0.0,0.0,d\n120,nan,0.0,d\n"
            "180,-180.5,0.0,d\n240,0.0,-91,d\n300,180,-90,d\n"
        )
        keys, _, times, _, _ = _ingest_columns(str(path), tz_offset=0, strict=False)
        assert (keys, times.tolist()) == (["d"], [60, 300])
        assert capsys.readouterr().err == "".join(
            f"warning: {path}:{line}: {message} (row skipped)\n"
            for line, message in [
                (2, "latitude out of range: 95.0"),
                (4, "longitude out of range: nan"),
                (5, "longitude out of range: -180.5"),
                (6, "latitude out of range: -91.0"),
            ]
        )
        with pytest.raises(DataError):
            _ingest_columns(str(path), tz_offset=0, strict=True)

    def test_warnings_capped_at_twenty_lines(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        bad = "".join(f"{i},0.0,95.0,d\n" for i in range(25))
        path.write_text("time,lon,lat,mid\n" + bad + "100,0.0,0.0,d\n")
        keys, _, times, _, _ = _ingest_columns(str(path), tz_offset=0, strict=False)
        assert (keys, times.tolist()) == (["d"], [100])
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 21
        assert lines[0].startswith(f"warning: {path}:2: ")
        assert lines[19].startswith(f"warning: {path}:21: ")
        assert lines[20] == "warning: ... and 5 more row(s) skipped"
        with pytest.raises(DataError, match=r"25 bad row\(s\)(.|\n)*\.\.\. and 5 more$"):
            _ingest_columns(str(path), tz_offset=0, strict=True)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            _ingest_columns(str(tmp_path / "absent.csv"), tz_offset=0, strict=False)

    @pytest.mark.parametrize(
        "first, bad",
        [
            # parsed by column, rejected by the vector range check
            ("0", ["-5"]),
            # too large for int64: the conversion's overflow marks it
            ("0", ["99999999999999999999"]),
            # int refuses an ISO time, which is then read on its own
            ("1970-01-01T00:00:00", ["-5", "99999999999999999999"]),
        ],
    )
    def test_out_of_range_time_rejected_per_row(self, tmp_path, capsys, first, bad):
        path = tmp_path / "r.csv"
        path.write_text(
            f"time,lon,lat,mid\n{first},0.0,0.0,d\n"
            + "".join(f"{t},0.0,0.0,d\n" for t in bad)
            + "60,0.0,0.0,d\n"
        )
        issues = [f"{path}:{k}: time out of range: {t}" for k, t in enumerate(bad, 3)]
        keys, _, times, _, _ = _ingest_columns(str(path), tz_offset=0, strict=False)
        assert (keys, times.tolist()) == (["d"], [0, 60])
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {issue} (row skipped)" for issue in issues
        ]
        with pytest.raises(DataError) as info:
            _ingest_columns(str(path), tz_offset=0, strict=True)
        assert str(info.value) == f"{len(bad)} bad row(s):\n" + "\n".join(issues)
        out = str(tmp_path / "o.csv")
        assert main(["label", str(path), "--timezone", "0", "--out", out]) == 0
        strict = ["label", str(path), "--timezone", "0", "--strict", "--out", out]
        assert main(strict) == 2
        assert f"data error: {len(bad)} bad row(s)" in capsys.readouterr().err

    def test_exponent_past_decimal_range_is_a_row_fault(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text(
            "time,lon,lat,mid\n0e9999999999999999999,0.0,0.0,d\n"
            "1e-9999999999999999999,0.0,0.0,d\n60,0.0,0.0,d\n"
        )
        issue = f"{path}:3: non-integer epoch time '1e-9999999999999999999'"
        keys, _, times, _, _ = _ingest_columns(str(path), tz_offset=0, strict=False)
        assert (keys, times.tolist()) == (["d"], [0, 60])
        assert capsys.readouterr().err == f"warning: {issue} (row skipped)\n"
        out = str(tmp_path / "o.csv")
        strict = ["label", str(path), "--timezone", "0", "--strict", "--out", out]
        assert main(strict) == 2
        assert capsys.readouterr().err == f"sparsemob: data error: 1 bad row(s):\n{issue}\n"

    @pytest.mark.parametrize("first", ["0", "1970-01-01T00:00:00"])
    def test_other_faults_worded_before_time_range(self, tmp_path, capsys, first):
        # a time cell that int refuses is read on its own; every other
        # fault must be worded as in a file where int reads every time
        path = tmp_path / "r.csv"
        path.write_text(
            f"time,lon,lat,mid\n{first},0.0,0.0,b\n"
            "-5,x,0.0,d\n-5,0.0,95.0,d\n-5,0.0,0.0, \n-5,0.0\n"
        )
        assert _ingest_columns(str(path), tz_offset=0, strict=False)[0] == ["b"]
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {path}:3: could not convert string to float: 'x' (row skipped)",
            f"warning: {path}:4: latitude out of range: 95.0 (row skipped)",
            f"warning: {path}:5: empty device id (row skipped)",
            f"warning: {path}:6: list index out of range (row skipped)",
        ]

    def test_half_second_before_epoch_is_out_of_range(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text(
            "time,lon,lat,mid\n0,0.0,0.0,d\n1969-12-31T23:59:59.5+00:00,0.0,0.0,d\n"
        )
        with pytest.raises(DataError) as info:
            _ingest_columns(str(path), tz_offset=0, strict=True)
        assert str(info.value) == f"1 bad row(s):\n{path}:3: time out of range: -1"
        out = str(tmp_path / "o.csv")
        assert main(["label", str(path), "--strict", "--out", out]) == 2
        assert f"{path}:3: time out of range: -1" in capsys.readouterr().err

    def test_time_range_ends_at_int64_limit(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text(
            f"time,lon,lat,mid\n{2**63 - 1},0.0,0.0,d\n{2**63},0.0,0.0,d\n"
        )
        keys, _, times, _, _ = _ingest_columns(str(path), tz_offset=0, strict=False)
        assert (keys, times.tolist()) == (["d"], [2**63 - 1])
        assert f"time out of range: {2**63}" in capsys.readouterr().err

    def test_int64_limit_written_with_a_decimal_point_accepted(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "time,lon,lat,mid\n9007199254740993.0,0.0,0.0,d\n"
            f"{2**63 - 1}.0,0.0,0.0,d\n"
        )
        keys, _, times, _, _ = _ingest_columns(str(path), tz_offset=0, strict=True)
        assert (keys, times.tolist()) == (["d"], [9007199254740993, 2**63 - 1])

    def test_rows_numbered_by_file_line_after_quoted_newline(self, tmp_path, capsys):
        path = tmp_path / "nl.csv"
        for text, device, line in [
            # one line per row: CRLF, lone CR, comment and blank rows
            (b"time,lon,lat,mid\r\n0,0.0,0.0,a\r\n60,0.0,95.0,d\r\n", "a", 3),
            (b"time,lon,lat,mid\r0,0.0,0.0,a\r60,0.0,95.0,d\r", "a", 3),
            (b"# v1\ntime,lon,lat,mid\n\n0,0.0,0.0,a\n# note\n\n 60,0.0,95.0,d\n", "a", 7),
            # a quoted line break: lines counted row by row
            (b'time,lon,lat,mid\n0,0.0,0.0,"a\nb"\n\n# note\n60,0.0,95.0,d\n', "a\nb", 6),
            (b'time,lon,lat,mid\r\n0,0.0,0.0,"a\r\nb"\r\n60,0.0,95.0,d\r\n', "a\r\nb", 4),
        ]:
            path.write_bytes(text)
            keys, _, _, _, _ = _ingest_columns(str(path), tz_offset=0, strict=False)
            assert keys == [device], text
            assert capsys.readouterr().err == (
                f"warning: {path}:{line}: latitude out of range: 95.0 (row skipped)\n"
            ), text

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_reads_a_pipe_once(self, capsys):
        # a pipe can be read only once, also when quoted line breaks make
        # ingest count each row's line
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, b'time,lon,lat,mid\n0,0.0,0.0,"a\nb"\n60,0.0,95.0,d\n')
            os.close(write_end)
            path = f"/dev/fd/{read_end}"
            keys, _, _, _, _ = _ingest_columns(path, tz_offset=0, strict=False)
        finally:
            os.close(read_end)
        assert keys == ["a\nb"]
        assert capsys.readouterr().err == (
            f"warning: {path}:4: latitude out of range: 95.0 (row skipped)\n"
        )

    @pytest.mark.parametrize("first", ["0", "1970-01-01T00:00:00"])
    def test_hash_device_id_rejected(self, tmp_path, capsys, first):
        # label CSVs put mid first, where '#a' would read back as a comment
        path = tmp_path / "r.csv"
        path.write_bytes(
            f"time,lon,lat,mid\n{first},0.0,0.0,b\n60,0.0,0.0,#a\n120,0.0,0.0, #a\n"
            .encode()
        )
        issues = [
            f"{path}:3: device id starts with '#': '#a'",
            f"{path}:4: device id starts with '#': '#a'",
        ]
        assert _ingest_columns(str(path), tz_offset=0, strict=False)[0] == ["b"]
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {issue} (row skipped)" for issue in issues
        ]
        with pytest.raises(DataError) as info:
            _ingest_columns(str(path), tz_offset=0, strict=True)
        assert str(info.value) == "2 bad row(s):\n" + "\n".join(issues)

    @pytest.mark.parametrize("first", ["0", "1970-01-01T00:00:00"])
    def test_carriage_return_device_id_rejected(self, tmp_path, capsys, first):
        # the label writer would leave the lone \r unquoted, and the row
        # would not read back
        path = tmp_path / "r.csv"
        path.write_bytes(
            f'time,lon,lat,mid\n{first},0.0,0.0,b\n60,0.0,0.0,"x\ry"\n'.encode()
        )
        issue = f"{path}:3: device id holds a carriage return but no line feed: 'x\\ry'"
        assert _ingest_columns(str(path), tz_offset=0, strict=False)[0] == ["b"]
        assert capsys.readouterr().err == f"warning: {issue} (row skipped)\n"
        with pytest.raises(DataError) as info:
            _ingest_columns(str(path), tz_offset=0, strict=True)
        assert str(info.value) == "1 bad row(s):\n" + issue

    def test_matches_per_row_reference(self, tmp_path, capsys):
        rng = np.random.default_rng(20240611)
        path = tmp_path / "r.csv"
        for case in range(400):
            path.write_text(random_records_text(rng))
            for strict in (False, True):
                got = ingest_outcome(_ingest_columns, path, strict, capsys)
                want = ingest_outcome(reference_columns, path, strict, capsys)
                assert got == want, (case, strict, path.read_text())

    def test_split_matches_reference(self, tmp_path, capsys):
        # quote-free texts, which ingest splits into columns without csv
        # unless a line breaks the split's rules: 239 of the 400 draws take
        # the split, the others go to csv
        rng = np.random.default_rng(20261019)
        path = tmp_path / "r.csv"
        split = 0
        for case in range(400):
            text = random_quote_free_text(rng)
            split += cli._split_table(text, cli._RECORD_HEADER) is not None
            path.write_bytes(text.encode("utf-8"))
            for strict in (False, True):
                got = ingest_outcome(_ingest_columns, path, strict, capsys)
                want = ingest_outcome(reference_columns, path, strict, capsys)
                assert got == want, (case, strict, text)
        assert split == 239

    def test_labels_split_matches_reference(self, tmp_path):
        # quote-free labels texts take the split that records texts take,
        # unless a line breaks its rules, and must read as csv reads them
        # row by row: 251 of the 400 draws take the split, the others go to
        # csv; 158 of them read, the others are data errors of every kind
        rng = np.random.default_rng(20261020)
        path = tmp_path / "l.csv"
        split = 0
        for case in range(400):
            text = random_quote_free_labels(rng)
            split += cli._split_table(text, cli._LABEL_HEADER) is not None
            path.write_bytes(text.encode("utf-8"))
            got, want = (
                labels_outcome(fn, path) for fn in (cli._read_labels, reference_read_labels)
            )
            assert got == want, (case, text)
        assert split == 251

    def test_field_limit_as_csv(self, tmp_path, capsys):
        # csv refuses a cell longer than its field limit, and the split
        # must too; a cell of exactly the limit is read
        limit = csv.field_size_limit()
        path, out = tmp_path / "r.csv", tmp_path / "lab.csv"
        fixture = travel_fixture()
        for size in (limit, limit + 1):
            mid = "m" * size
            text = "# records\ntime,lon,lat,mid\n" + "".join(
                f"{t},{lon!r},{lat!r},{mid}\n"
                for t, lon, lat in zip(
                    fixture.times.tolist(), fixture.lons.tolist(), fixture.lats.tolist()
                )
            )
            path.write_text(text)
            code = main(["label", str(path), "--out", str(out)])
            if size == limit:
                assert cli._split_table(text, cli._RECORD_HEADER) is not None
                assert code == 0
                assert label_lines(out) == [
                    (mid, 0, "U"), (mid, 600, "T"), (mid, 1200, "U")
                ]
            else:
                assert code == 2
                assert capsys.readouterr().err == (
                    f"sparsemob: data error: {path}:3: field larger than field "
                    f"limit ({limit})\n"
                )


#: Cell texts for the quote-free differential ingest test: NUL, form feed,
#: NEL and line separator in and around cells (csv and str.split break lines
#: at none of them, str.splitlines at all but NUL), surrounding blanks, and
#: values that ingest rejects; no device id starts with '#', which the
#: reference accepts.
_ODD = ["\x00", "\x0c", "\x85", "\u2028"]
_SPLIT_MIDS = ["a", "b", " a ", "", "  ", "x#y"] + [f"c{ch}d" for ch in _ODD]
_SPLIT_MIDS += [f"e{ch}" for ch in _ODD]
_SPLIT_TIMES = ["100", "160", " 220 ", "1468317761", "\x0c100", "\x85160 "]
_SPLIT_TIMES += ["160\u2028", "2016-07-12T18:02:41", "160.0", "garbage"]
_SPLIT_COORDS = ["0.5", " -0.0 ", "45\x0c", "\u20281e2", "nan", "181", "x", ""]
#: lines that csv reads as a comment, a one-cell row, or a row narrower or
#: wider than a four-column header: a text holding one is not split
_ODD_LINES = ["", "   ", "\x0c", "# note", "  #1,2,3,a", "1,2", "100,0.5,0.5,a,extra"]


def random_quote_free_text(rng: np.random.Generator) -> str:
    """A records CSV of up to 24 rows with no quote and no carriage return.

    Comment and blank lines may stand above the header; the header may
    order the columns otherwise, add a fifth, pad names with spaces, start
    with a BOM or lack a column. In 40% of the files, blank, whitespace-only,
    comment and ragged lines fall between rows. The last line may lack its
    line feed.
    """

    def pick(options: list[str]) -> str:
        # not rng.choice, whose numpy str array drops trailing NULs
        return options[int(rng.integers(len(options)))]

    lines = [pick(["# sparsemob records v1", "", "  #a,b", "#\x85"])
             for _ in range(int(rng.integers(0, 3)))]
    names = ["time", "lon", "lat", "mid"]
    if rng.random() < 0.5:
        names = [names[k] for k in rng.permutation(4)]
    if rng.random() < 0.3:
        names.insert(int(rng.integers(5)), "note")
    if rng.random() < 0.05:
        names.pop(int(rng.integers(len(names))))
    header = [f" {n} " if rng.random() < 0.2 else n for n in names]
    lines.append(",".join(header))
    if rng.random() < 0.15:
        lines[0] = "\ufeff" + lines[0]
    cells = {"time": _SPLIT_TIMES, "lon": _SPLIT_COORDS, "lat": _SPLIT_COORDS,
             "mid": _SPLIT_MIDS, "note": _SPLIT_MIDS}
    odd = rng.random() < 0.4
    for _ in range(int(rng.integers(0, 25))):
        if odd and rng.random() < 0.15:
            lines.append(pick(_ODD_LINES))
        else:
            lines.append(",".join(
                pick(cells[n]) if rng.random() < 0.3 else cells[n][0] for n in names
            ))
    return "\n".join(lines) + ("\n" if rng.random() < 0.7 else "")


#: Cell texts for the quote-free differential labels test: times that int
#: reads, around _ODD blanks or not, and some that it refuses; letters that
#: read, padded or not, and some that are unknown.
_LABEL_TIMES = ["\x0c100", "\x85160 ", "160\u2028", " 220 ", "160.0", "garbage", ""]
_LABEL_LETTERS = [" S ", "T\x0c", "\x85U", "X", "s", ""]


def random_quote_free_labels(rng: np.random.Generator) -> str:
    """A labels CSV of up to 24 rows with no quote and no carriage return.

    Comment and blank lines may stand above the header; the header may
    order the columns otherwise, add a fourth, pad names with spaces, start
    with a BOM or lack a column. Each row's time is new unless drawn from
    the odd cells; a row may repeat an earlier (mid, time) key. In 40% of
    the files, blank, comment and ragged lines fall between rows.
    """

    def pick(options: list[str]) -> str:
        # not rng.choice, whose numpy str array drops trailing NULs
        return options[int(rng.integers(len(options)))]

    lines = [pick(["# sparsemob labels v1", "", "  #a,b", "#\x85"])
             for _ in range(int(rng.integers(0, 3)))]
    names = ["mid", "time", "label"]
    if rng.random() < 0.5:
        names = [names[k] for k in rng.permutation(3)]
    if rng.random() < 0.3:
        names.insert(int(rng.integers(4)), "note")
    if rng.random() < 0.05:
        names.pop(int(rng.integers(len(names))))
    lines.append(",".join(f" {n} " if rng.random() < 0.2 else n for n in names))
    if rng.random() < 0.15:
        lines[0] = "\ufeff" + lines[0]
    odd = rng.random() < 0.4
    rows: list[dict[str, str]] = []
    for k in range(int(rng.integers(0, 25))):
        if odd and rng.random() < 0.1:
            lines.append(pick(["", "\x0c", "# note", "  #1,2", "a,1", "a,1,S,x,y"]))
            continue
        if rows and rng.random() < 0.03:
            row = dict(rows[int(rng.integers(len(rows)))])  # a repeated key
        else:
            row = {"mid": pick(_SPLIT_MIDS), "time": str(60 * k),
                   "label": pick(["S", "T", "U"]), "note": pick(_SPLIT_MIDS)}
        if rng.random() < 0.04:
            row["time"] = pick(_LABEL_TIMES)
        if rng.random() < 0.04:
            row["label"] = pick(_LABEL_LETTERS)
        rows.append(row)
        lines.append(",".join(row[n] for n in names))
    return "\n".join(lines) + ("\n" if rng.random() < 0.7 else "")


def labels_outcome(fn, path):
    """What a labels reader returns, in order, or the error it raises."""
    try:
        return list(fn(str(path)).items()), None
    except DataError as exc:
        return None, str(exc)


#: Cell texts for the differential ingest test: device ids with a trailing
#: NUL, a quoted comma, or surrounding and whitespace-only blanks; times in
#: every accepted form and some rejected ones, all in range because the
#: reference has no range rule; coordinates that parse, that are out of
#: range or not finite, and that do not parse.
_MIDS = ["a", "b", "a\x00", '"x,y"', " a ", "b ", "  ", ""]
_PLAIN_TIMES = ["100", "160", "220", " 1468317761 ", "1468317761"]
_OTHER_TIMES = [
    "1468317761.0",
    "1468317761.5",
    ".5",
    "160.0",
    "2016-07-12T18:02:41",
    "18:02:41/07/12/2016",
    "garbage",
    "",
]
_COORDS = ["0.5", "-0.0", "45", "1e2", "180", "-90"]
_COORDS += ["nan", "inf", "-inf", "181", "-95", "x", ""]


def random_records_text(rng: np.random.Generator) -> str:
    """A records CSV of up to 24 rows drawn from the cell texts above.

    Half of the files use plain epoch times only and no short rows, so
    ``int`` reads every time in one pass and ingest rejects rows by its
    vector checks; the others mix in every other time form, read cell by
    cell, and short rows. Half of the files
    have no quoted device id, so that with no comment or blank line between
    rows they are split without ``csv``. Comment and blank lines fall
    between rows, and some files end with a rejected row followed by a
    valid row with the same device and time.
    """

    def pick(options: list[str]) -> str:
        # not rng.choice, whose numpy str array drops trailing NULs
        return options[int(rng.integers(len(options)))]

    plain = rng.random() < 0.5
    mids = _MIDS if rng.random() < 0.5 else [m for m in _MIDS if '"' not in m]
    times = _PLAIN_TIMES if plain else _PLAIN_TIMES + _OTHER_TIMES
    lines = ["time,lon,lat,mid"]
    for _ in range(int(rng.integers(0, 25))):
        draw = rng.random()
        if draw < 0.05:
            lines.append(pick(["# note", "  #1,2,3,a", ""]))
            continue
        cells = [
            pick(times),
            pick(_COORDS) if rng.random() < 0.3 else "0.5",
            pick(_COORDS) if rng.random() < 0.3 else "-0.0",
            pick(mids),
        ]
        if not plain and draw > 0.95:
            cells = cells[: int(rng.integers(1, 4))]
        lines.append(",".join(cells))
    if rng.random() < 0.3:
        lines += ["100,x,0.5,a", "100,0.5,0.5,a"]
    return "\n".join(lines) + "\n"


#: Coordinate texts for runs: equal values written otherwise, and values
#: out of range; and texts that float refuses, drawn less often, so that
#: more than half of the columns convert in one call
_RUN_COORDS = ["0.0", "-0.0", "nan", "-nan", "1.0", "1.00", "+1.0", "116.5",
               "39.9", "200", "-inf"]
_RUN_REFUSED = ["x", ""]


def random_run_records_text(rng: np.random.Generator) -> str:
    """A records CSV of 41 to 48 rows whose coordinates repeat in runs, as a
    stay's records do. Each run of 1 to 8 rows shares one device and one
    lon and lat text; a row may change one of them for another text, and a
    run may lose its last cells, so that missing cells run too. Columns
    are ordered mid, time, lon, lat, so that a short row keeps its id."""

    def pick(options: list[str]) -> str:
        return options[int(rng.integers(len(options)))]

    def coord() -> str:
        return pick(_RUN_REFUSED if rng.random() < 0.02 else _RUN_COORDS)

    lines = ["mid,time,lon,lat"]
    time = 0
    while len(lines) <= 40:
        mid, lon, lat = pick(["a", "b", "c"]), coord(), coord()
        keep = 4 if rng.random() < 0.96 else int(rng.integers(2, 4))
        for _ in range(int(rng.integers(1, 9))):
            time += 60
            cells = [mid, str(time), lon, lat]
            if rng.random() < 0.1:
                cells[int(rng.integers(2, 4))] = coord()
            lines.append(",".join(cells[:keep]))
    return "\n".join(lines) + "\n"


def reference_columns(path, *, tz_offset, strict):
    """``reference_ingest``'s trajectories as the columns ``_ingest_columns``
    returns: ids, record counts, then times, lons and lats."""
    trajs = reference_ingest(path, tz_offset=tz_offset, strict=strict)
    return (
        [traj.device for traj in trajs],
        np.array([len(traj) for traj in trajs], dtype=np.int64),
        *(
            np.concatenate([np.zeros(0, dtype), *(getattr(traj, name) for traj in trajs)])
            for name, dtype in (("times", np.int64), ("lons", float), ("lats", float))
        ),
    )


def ingest_outcome(fn, path, strict, capsys):
    """What an ingest returns, raises and prints, as comparable values."""
    try:
        keys, sizes, times, lons, lats = fn(str(path), tz_offset=28800, strict=strict)
    except DataError as exc:
        return None, str(exc), capsys.readouterr().err
    got = (keys, sizes.tolist(), times.tolist(), lons.tobytes(), lats.tobytes())
    return got, None, capsys.readouterr().err


class TestLabelCommand:
    def test_golden_travel_output(self, tmp_path):
        rec = write_records(tmp_path / "r.csv", [travel_fixture()])
        out = tmp_path / "lab.csv"
        assert main(["label", rec, "--out", str(out)]) == 0
        assert out.read_text() == (
            "# sparsemob labels v1\n"
            "mid,time,label\n"
            "t,0,U\n"
            "t,600,T\n"
            "t,1200,U\n"
        )

    def test_stay_fixture_letters(self, tmp_path):
        rec = write_records(tmp_path / "r.csv", [stay_fixture()])
        out = tmp_path / "lab.csv"
        assert main(["label", rec, "--out", str(out)]) == 0
        assert [r[2] for r in label_lines(out)] == ["S", "S", "S", "S", "U"]

    def test_rerun_and_worker_count_byte_identical(self, tmp_path):
        trajs = [
            traj_from_meters(minutes(0, 10, 20), [0.0, 1000.0, 2000.0], device=f"d{i}")
            for i in range(3)
        ]
        rec = write_records(tmp_path / "r.csv", trajs)
        outs = [tmp_path / f"o{k}.csv" for k in range(3)]
        assert main(["label", rec, "--out", str(outs[0])]) == 0
        assert main(["label", rec, "--out", str(outs[1])]) == 0
        assert main(["label", rec, "--workers", "2", "--out", str(outs[2])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()

    def test_quoted_mid_written_as_formatted_cells(self, tmp_path):
        mids = ["a,b", 'say "hi"', "x\ny", "caf\u00e9"]
        fixture = travel_fixture()
        rows = io.StringIO()
        writer = csv.writer(rows)
        writer.writerow(["time", "lon", "lat", "mid"])
        for mid in mids:
            for t, lon, lat in zip(fixture.times, fixture.lons, fixture.lats):
                writer.writerow([int(t), float(lon), float(lat), mid])
        rec = tmp_path / "r.csv"
        rec.write_bytes(rows.getvalue().encode("utf-8"))
        want = io.StringIO()
        want.write("# sparsemob labels v1\n")
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["mid", "time", "label"])
        for mid in sorted(mids):
            for row in [(mid, 0, "U"), (mid, 600, "T"), (mid, 1200, "U")]:
                writer.writerow([_fmt(v) for v in row])
        out = tmp_path / "lab.csv"
        for workers in ("1", "2"):
            assert main(["label", str(rec), "--workers", workers, "--out", str(out)]) == 0
            assert out.read_bytes() == want.getvalue().encode("utf-8"), workers
        assert b'"a,b",600,T\n' in out.read_bytes()

    def test_utf8_whatever_the_locale(self, tmp_path):
        # under the C locale Python's default text encoding is ASCII
        rec = tmp_path / "r.csv"
        rec.write_bytes("time,lon,lat,mid\n0,0.0,0.0,caf\u00e9\n".encode("utf-8"))
        out = tmp_path / "lab.csv"
        src = Path(sparsemob.__file__).parents[1]
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        env["PYTHONPATH"] = str(src)
        code = "import sys; from sparsemob.cli import main; sys.exit(main(sys.argv[1:]))"
        done = subprocess.run(
            [sys.executable, "-c", code, "label", str(rec), "--out", str(out)],
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert out.read_bytes().endswith("caf\u00e9,0,U\n".encode("utf-8"))


def reference_label(path, out, strict: bool, capsys):
    """What ``label`` should give for ``path``, built from row-by-row parts:
    ``reference_ingest``, then ``sds_label`` per device, then
    ``csv.writer``. Returns the exit code, the output bytes (None when no
    file is written) and stderr."""
    try:
        trajs = reference_ingest(str(path), tz_offset=28800, strict=strict)
    except DataError as exc:
        print(f"sparsemob: data error: {exc}", file=sys.stderr)
        return 2, None, capsys.readouterr().err
    text = io.StringIO()
    text.write("# sparsemob labels v1\n")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["mid", "time", "label"])
    for traj in trajs:
        letters = sds_label(traj, MobilityParams()).letters()
        writer.writerows(zip([traj.device] * len(traj), traj.times.tolist(), letters))
    return 0, text.getvalue().encode("utf-8"), capsys.readouterr().err


def label_outcome(path, out, strict: bool, capsys):
    """What ``label`` gives for ``path``, as ``reference_label`` returns it."""
    out.unlink(missing_ok=True)
    code = main(["label", str(path), "--out", str(out)] + ["--strict"] * strict)
    written = out.read_bytes() if out.exists() else None
    return code, written, capsys.readouterr().err


class TestLabelDifferential:
    """``label`` reads, labels and writes whole columns; its bytes, warnings
    and exit code must equal those of a device-by-device reference."""

    def test_random_files_match_reference(self, tmp_path, capsys):
        # unsorted rows, duplicates, bad and quoted cells, short rows
        rng = np.random.default_rng(20261020)
        path, out = tmp_path / "r.csv", tmp_path / "o.csv"
        for case in range(300):
            path.write_text(random_records_text(rng))
            for strict in (False, True):
                got = label_outcome(path, out, strict, capsys)
                want = reference_label(path, out, strict, capsys)
                assert got == want, (case, strict, path.read_text())

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_formatter_edges_match_reference(self, tmp_path, capsys, shuffle):
        # times of one digit, of every digit count at a power of ten and at
        # the int64 limit; ids that csv quotes, and ids outside ASCII
        times = [0, 9, 10, 99, 100, 10**18 - 1, 10**18, 2**63 - 1]
        mids = ["a", "a,b", 'say "hi"', "x\ny", "caf\u00e9", "\u65e5\u672c", "z" * 200]
        rows = [(t, mid) for mid in mids for t in times]
        if shuffle:
            rows = [rows[k] for k in np.random.default_rng(7).permutation(len(rows))]
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(["time", "lon", "lat", "mid"])
        writer.writerows((t, 116.0 + (t % 7) * 0.01, 39.9, mid) for t, mid in rows)
        path, out = tmp_path / "r.csv", tmp_path / "o.csv"
        path.write_bytes(text.getvalue().encode("utf-8"))
        got = label_outcome(path, out, True, capsys)
        assert got == reference_label(path, out, True, capsys)
        assert b"\n9223372036854775807," not in got[1]
        assert f",{2**63 - 1},".encode() in got[1]

    def test_label_rows_in_blocks_as_csv_writes_them(self, monkeypatch):
        # a block of a few rows at a time, as a long device id gives
        rng = np.random.default_rng(5)
        mids = ["a", "b,c", "caf\u00e9", "l" * 40]
        sizes = [3, 0, 4, 2]
        times = np.array([0, 9, 10, 99, 100, 2**63 - 1, 10**18, 1, 7], dtype=np.int64)
        codes = rng.integers(0, 3, len(times)).astype(np.int8)
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        owner = np.repeat(np.arange(len(mids)), sizes)
        for k, t, c in zip(owner.tolist(), times.tolist(), codes.tolist()):
            writer.writerow([mids[k], t, "UST"[c]])
        for block in (1, 30, 60, 1 << 22):
            monkeypatch.setattr(cli, "_LABEL_BLOCK_BYTES", block)
            assert cli._label_rows(mids, sizes, times, codes) == want.getvalue(), block
        assert cli._label_rows([], [], np.zeros(0, np.int64), np.zeros(0, np.int8)) == ""


def labels_alone(path, params, *, ref_lat=None) -> bytes:
    """The labels CSV of a records CSV with each device labeled alone."""
    out = io.StringIO()
    out.write("# sparsemob labels v1\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["mid", "time", "label"])
    for traj in reference_ingest(path, tz_offset=0, strict=True):
        labeled = sds_label(traj, params, ref_lat=ref_lat)
        writer.writerows(
            zip([traj.device] * len(traj), traj.times.tolist(), labeled.letters())
        )
    return out.getvalue().encode("utf-8")


def mixed_devices(rng, count):
    """Random devices at latitudes 0 to 60 degrees, every third a single
    record, all starting at the same time; then a travel on the equator that
    ``--ref-lat 45`` shrinks below the witness distance, and a dwell that
    ends the trajectory, so only the flush at its end flags it."""
    out = []
    for k in range(count):
        traj = random_trajectory(rng, max_len=1 if k % 3 == 2 else 40)
        out.append(
            Trajectory(f"d{k}", traj.times + 10**9, traj.lons, traj.lats + 6.0 * k)
        )
    dwell = traj_from_meters(minutes(0, 10, 25, 40, 50), [0.0] * 5, device="dwell")
    return out + [travel_fixture(), dwell]


class TestLabelFile:
    """A labels file equals every device labeled alone with sds_label, for
    any batching of devices into kernel calls and any ``--workers`` value,
    which ``label`` ignores: it labels in one process."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Runs ``main`` and returns the record counts of its labeler calls."""

        def run(argv):
            calls = []

            def counted(*args, **kwargs):
                calls.append(len(args[2]))
                return kernel(*args, **kwargs)

            kernel = sds.label_kernel
            with monkeypatch.context() as patch:
                patch.setattr(sds, "label_kernel", counted)
                assert main(argv) == 0
            return calls

        return run

    @pytest.mark.parametrize(
        "flags, params, kw",
        [
            ([], MobilityParams(), {}),
            (["--ref-lat", "45.0"], MobilityParams(), {"ref_lat": 45.0}),
            (["--delta-s", "300"], MobilityParams(delta_s=300.0), {}),
            (["--delta-t", "600.5"], MobilityParams(delta_t=600.5), {}),
        ],
    )
    def test_one_kernel_call_per_file(self, tmp_path, rng, kernel_calls, flags, params, kw):
        rec = write_records(tmp_path / "r.csv", mixed_devices(rng, 9))
        out = tmp_path / "lab.csv"
        calls = kernel_calls(["label", rec, "--out", str(out), *flags])
        assert out.read_bytes() == labels_alone(rec, params, **kw)
        assert len(calls) == 1

    @pytest.mark.parametrize("devices", [0, 9])  # 2 and 11 devices in all
    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_worker_chunks(self, tmp_path, rng, devices, workers):
        rec = write_records(tmp_path / "r.csv", mixed_devices(rng, devices))
        out = tmp_path / "lab.csv"
        assert main(["label", rec, "--workers", workers, "--out", str(out)]) == 0
        assert out.read_bytes() == labels_alone(rec, MobilityParams())

    def test_dense_device_joins_the_one_kernel_call(self, tmp_path, kernel_calls):
        # 300 records at 1 s, more than a superblock within delta_t, share
        # the file's one kernel call with the devices on either side
        walk = traj_from_meters(np.arange(300), np.arange(300) * 5.0, device="b")
        short = [
            traj_from_meters(minutes(0, 10, 20), [0.0, 1000.0, 2000.0], device=d)
            for d in "acd"
        ]
        rec = write_records(tmp_path / "r.csv", [short[0], walk, *short[1:]])
        out = tmp_path / "lab.csv"
        assert kernel_calls(["label", rec, "--out", str(out)]) == [309]
        assert out.read_bytes() == labels_alone(rec, MobilityParams())

    def test_file_without_records_writes_the_header(self, tmp_path):
        rec = tmp_path / "r.csv"
        rec.write_text("time,lon,lat,mid\n")
        out = tmp_path / "lab.csv"
        assert main(["label", str(rec), "--out", str(out)]) == 0
        assert out.read_text() == "# sparsemob labels v1\nmid,time,label\n"

    @pytest.mark.parametrize("delta_t", ["inf", "1e300"])
    def test_gap_too_long_for_int64_labels_each_device_alone(
        self, tmp_path, rng, kernel_calls, delta_t
    ):
        rec = write_records(tmp_path / "r.csv", mixed_devices(rng, 5))
        out = tmp_path / "lab.csv"
        calls = kernel_calls(["label", rec, "--delta-t", delta_t, "--out", str(out)])
        params = MobilityParams(delta_t=float(delta_t))
        assert out.read_bytes() == labels_alone(rec, params)
        assert len(calls) == 7

    def test_times_past_int64_start_a_new_kernel_call(self, tmp_path, kernel_calls):
        # joined after "a", the records of "b" would run past 2**63 - 1
        a = traj_from_meters([0, 600, 1200, 2**62], [0.0, 1000.0, 2000.0, 0.0], device="a")
        b = traj_from_meters(
            [0, 600, 1200, 2**62 - 1], [0.0, 1000.0, 2000.0, 0.0], device="b"
        )
        c = traj_from_meters(minutes(0, 10, 20), [0.0, 1000.0, 2000.0], device="c")
        rec = write_records(tmp_path / "r.csv", [a, b, c])
        out = tmp_path / "lab.csv"
        assert kernel_calls(["label", rec, "--out", str(out)]) == [4, 7]
        assert out.read_bytes() == labels_alone(rec, MobilityParams())
        assert [r[2] for r in label_lines(out)] == ["U", "T", "U", "U"] * 2 + ["U", "T", "U"]


class TestOracleCommand:
    def test_decides_every_record(self, tmp_path):
        rec = write_records(tmp_path / "r.csv", [stay_fixture()])
        out = tmp_path / "lab.csv"
        assert main(["oracle", rec, "--out", str(out)]) == 0
        assert [r[2] for r in label_lines(out)] == ["S", "S", "S", "S", "T"]

    def test_limit_exceeded_is_data_error(self, tmp_path):
        traj = traj_from_meters(np.arange(15) * 60, np.zeros(15), device="big")
        rec = write_records(tmp_path / "r.csv", [traj])
        out = tmp_path / "lab.csv"
        assert main(["oracle", rec, "--limit", "10", "--out", str(out)]) == 2
        assert main(["oracle", rec, "--limit", "20", "--out", str(out)]) == 0

    @pytest.mark.parametrize("limit", ["-1", "0"])
    def test_limit_below_one_is_usage_error(self, tmp_path, capsys, limit):
        # refused before ingest: a missing input file gives the same error
        rec = write_records(tmp_path / "r.csv", [stay_fixture()])
        out = tmp_path / "lab.csv"
        for path in (rec, str(tmp_path / "missing.csv")):
            assert main(["oracle", path, "--limit", limit, "--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"sparsemob: error: --limit must be at least 1, got {limit}\n"
            )
            assert not out.exists()


class TestConfigFile:
    def test_file_supplies_thresholds(self, tmp_path):
        rec = write_records(tmp_path / "r.csv", [travel_fixture()])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# wide witness\ndelta_s = 3000\n")
        out = tmp_path / "lab.csv"
        assert main(["label", rec, "--config", str(cfg), "--out", str(out)]) == 0
        assert [r[2] for r in label_lines(out)] == ["U", "U", "U"]

    def test_explicit_flag_beats_file(self, tmp_path):
        rec = write_records(tmp_path / "r.csv", [travel_fixture()])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta_s = 3000\n")
        out = tmp_path / "lab.csv"
        assert (
            main(
                [
                    "label", rec,
                    "--config", str(cfg),
                    "--delta-s", "800",
                    "--out", str(out),
                ]
            )
            == 0
        )
        assert [r[2] for r in label_lines(out)] == ["U", "T", "U"]

    def test_malformed_config_is_data_error(self, tmp_path):
        rec = write_records(tmp_path / "r.csv", [travel_fixture()])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta_s\n")
        assert (
            main(["label", rec, "--config", str(cfg), "--out", str(tmp_path / "o")])
            == 2
        )

    def test_invalid_threshold_is_usage_error(self, tmp_path):
        rec = write_records(tmp_path / "r.csv", [travel_fixture()])
        assert (
            main(["label", rec, "--delta-s", "-5", "--out", str(tmp_path / "o")]) == 1
        )

    def test_strict_parses_like_every_key(self, tmp_path, capsys):
        # a bad file value is a data error naming its key; on/off values
        # take effect, and the flag wins over the file
        rec = tmp_path / "r.csv"
        rec.write_text("time,lon,lat,mid\n100,0.0,0.0,d\n100,0.1,0.0,d\n")
        cfg = tmp_path / "run.cfg"
        out = str(tmp_path / "o")
        cfg.write_text("strict = maybe\n")
        assert main(["label", str(rec), "--config", str(cfg), "--out", out]) == 2
        assert "config key strict: expected on/off" in capsys.readouterr().err
        cfg.write_text("strict = off\n")
        assert main(["label", str(rec), "--config", str(cfg), "--out", out]) == 0
        cfg.write_text("strict = on\n")
        assert main(["label", str(rec), "--config", str(cfg), "--out", out]) == 2
        assert "duplicate" in capsys.readouterr().err
        assert main(["label", str(rec), "--config", str(cfg), "--no-strict",
                     "--out", out]) == 0

    def test_tail_flush_is_no_setting(self, tmp_path, capsys):
        # every open window that spans delta_t is flushed; there is no flag
        # or config key to turn that off
        rec = write_records(tmp_path / "r.csv", [stay_fixture()])
        out = str(tmp_path / "o")
        assert main(["label", rec, "--tail-flush", "off", "--out", out]) == 1
        assert "unrecognized arguments: --tail-flush off" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tail_flush = on\n")
        assert main(["label", rec, "--config", str(cfg), "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"sparsemob: data error: {cfg}:1: unknown config key 'tail_flush'\n"
        )

    @pytest.mark.parametrize(
        "value, message",
        [
            ("25:00", "offset must lie strictly inside +/-24 h, got '25:00'"),
            ("+08:75", "expected [+-]HH:MM with MM at most 59, got '+08:75'"),
            ("+08:-30", "expected [+-]HH:MM with MM at most 59, got '+08:-30'"),
            ("99999999999999999999",
             "offset must lie strictly inside +/-24 h, got '99999999999999999999'"),
        ],
    )
    def test_timezone_not_an_offset_is_data_error(self, tmp_path, capsys, value, message):
        # a clock-form file that a bogus offset would shift, or drop whole
        rec = tmp_path / "r.csv"
        rec.write_text("time,lon,lat,mid\n18:02:41/07/12/2016,0.0,0.0,d\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"timezone = {value}\n")
        out = tmp_path / "o"
        assert main(["label", str(rec), "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"sparsemob: data error: config key timezone: {message}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("line", ["delta-s=5", "delta_tt = 10"])
    def test_unknown_key_is_data_error(self, tmp_path, capsys, line):
        rec = write_records(tmp_path / "r.csv", [travel_fixture()])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# thresholds\n{line}\n")
        out = str(tmp_path / "o")
        assert main(["label", rec, "--config", str(cfg), "--out", out]) == 2
        key = line.split("=")[0].strip()
        assert capsys.readouterr().err == (
            f"sparsemob: data error: {cfg}:2: unknown config key {key!r}\n"
        )


class TestSettingRanges:
    """Settings every command shares, refused with exit 1 from a flag or a
    config file alike, before any input is read or output written."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308", "90.5", "-91"])
    def test_reference_latitude_off_the_sphere_refused(self, tmp_path, capsys, value):
        # four records 100 km apart; at --ref-lat nan every squared distance
        # was NaN, so no record escaped a window and all four read S
        rec = tmp_path / "r.csv"
        rec.write_text(
            "time,lon,lat,mid\n0,116.4,39.9,d\n1000,117.4,39.9,d\n"
            "2000,116.4,40.9,d\n3000,118.4,39.9,d\n"
        )
        out = tmp_path / "o.csv"
        assert main(["label", str(rec), "--out", str(out)]) == 0
        assert [r[2] for r in label_lines(out)] == ["U"] * 4
        out.unlink()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"ref_lat = {value}\n")
        for flag in ([f"--ref-lat={value}"], ["--config", str(cfg)]):
            assert main(["label", str(rec), *flag, "--out", str(out)]) == 1, flag
            assert capsys.readouterr().err == (
                f"sparsemob: error: ref_lat must lie in [-90, 90], got {float(value)}\n"
            )
            assert not out.exists()

    @pytest.mark.parametrize("value", ["4.4750044387201234e-154", "1e-200", "1e-300"])
    def test_delta_s_whose_squared_radii_underflow_refused(self, tmp_path, capsys, value):
        # ten records at one spot, 600 s apart: all Stay at the smallest
        # delta_s accepted; at 1e-200 they read UTTTTTTTTU
        rec = write_records(
            tmp_path / "r.csv", [traj_from_meters(np.arange(10) * 600, [0.0] * 10)]
        )
        out = tmp_path / "o.csv"
        assert main(["label", rec, "--delta-s", repr(SMALLEST_DELTA_S), "--out", str(out)]) == 0
        assert [r[2] for r in label_lines(out)] == ["S"] * 10
        out.unlink()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"delta_s = {value}\n")
        for flag in (["--delta-s", value], ["--config", str(cfg)]):
            assert main(["label", rec, *flag, "--out", str(out)]) == 1, flag
            assert capsys.readouterr().err == (
                "sparsemob: error: delta_s must be at least about 4.475e-154, where"
                f" every squared radius is a normal float, got {float(value)}\n"
            )
            assert not out.exists()

    def test_poles_are_reference_latitudes(self, tmp_path):
        rec = write_records(tmp_path / "r.csv", [travel_fixture()])
        for value in ("90", "-90"):
            assert main(["label", rec, "--ref-lat", value, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--trajectories", "1", "--seed", "-5"],
            ["evaluate", "--experiment", "--trajectories", "1", "--seed", "-1"],
            ["resample", "{rec}", "--rate", "0.5", "--seed", "-1"],
            ["simulate", "--trajectories", "1", "--config", "{cfg}"],
            # label ignores the seed, but a negative one is refused alike
            ["label", "{rec}", "--seed", "-1"],
        ],
    )
    def test_negative_seed_refused(self, tmp_path, capsys, argv):
        rec = write_records(tmp_path / "r.csv", [travel_fixture()])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=-3\n")
        out = tmp_path / "o.csv"
        argv = [a.format(rec=rec, cfg=cfg) for a in argv]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "sparsemob: error: seed must be >= 0\n"
        assert not out.exists()


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["label", "r.csv", "--delta-s", "wide"],
             "argument --delta-s: invalid float value: 'wide'"),
            (["label", "r.csv", "--timezone", "noon"],
             "argument --timezone: invalid literal for int() with base 10: 'noon'"),
            (["evaluate", "--experiment", "--rates", ","], "argument --rates: empty list"),
            (["stats", "r.csv", "--delta-t-grid", "300,x"],
             "argument --delta-t-grid: could not convert string to float: 'x'"),
            (["prop1", "r.csv", "--delta-s-grid", ","], "argument --delta-s-grid: empty list"),
            (["label", "r.csv", "--timezone", "25:00"],
             "argument --timezone: offset must lie strictly inside +/-24 h, got '25:00'"),
            (["label", "r.csv", "--timezone", "+08:75"],
             "argument --timezone: expected [+-]HH:MM with MM at most 59, got '+08:75'"),
            (["label", "r.csv", "--timezone=+08:-30"],
             "argument --timezone: expected [+-]HH:MM with MM at most 59, got '+08:-30'"),
            (["label", "r.csv", "--timezone", "99999999999999999999"],
             "argument --timezone: offset must lie strictly inside +/-24 h, "
             "got '99999999999999999999'"),
        ],
    )
    def test_bad_flag_value_names_the_fault(self, tmp_path, capsys, argv, message):
        assert main([*argv, "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}\n" in err and "_parse" not in err

    def test_unknown_flag(self, tmp_path):
        assert main(["label", "x.csv", "--out", "y.csv", "--bogus"]) == 1

    def test_missing_required_out(self, tmp_path):
        assert main(["label", "x.csv"]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_input_file(self, tmp_path):
        assert main(["label", str(tmp_path / "no.csv"), "--out", str(tmp_path / "o")]) == 2

    def test_evaluate_needs_inputs(self, tmp_path):
        assert main(["evaluate", "--out", str(tmp_path / "m.csv")]) == 1

    def test_bad_label_letter_is_data_error(self, tmp_path, capsys):
        rec = write_records(tmp_path / "r.csv", [travel_fixture()])
        sub = tmp_path / "sub.csv"
        lab = write_labels(tmp_path / "l.csv", [("t", 0, "X")])
        code = main(
            [
                "resample", rec,
                "--rate", "1.0",
                "--labels", lab,
                "--labels-out", str(tmp_path / "lo.csv"),
                "--out", str(sub),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"sparsemob: data error: {lab}:2: unknown label letter: 'X'\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--jitter", "-1"],
            ["simulate", "--duration", "-5"],
            ["evaluate", "--experiment", "--jitter", "-3"],
            # not a finite number: no walk can run on such a duration, and a
            # NaN jitter would pass check_supports and run as no jitter
            ["simulate", "--duration", "nan"],
            ["simulate", "--duration", "inf"],
            ["simulate", "--jitter", "nan"],
            ["evaluate", "--experiment", "--duration", "nan"],
            ["evaluate", "--experiment", "--jitter", "nan"],
        ],
    )
    def test_bad_walk_settings_are_usage_errors(self, tmp_path, capsys, argv):
        out = tmp_path / "o.csv"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sparsemob: error: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, truth",
        [(["simulate"], False), (["simulate"], True), (["evaluate", "--experiment"], False)],
        ids=["simulate", "simulate-truth", "experiment"],
    )
    def test_walk_past_the_cycle_bound_is_refused_before_any_draw(
        self, tmp_path, capsys, monkeypatch, command, truth
    ):
        # a walk of 1e12 s is about 5.6e8 dwell cycles, drawn one by one
        def no_walk(config):
            raise AssertionError("a walk was drawn")

        monkeypatch.setattr(evaluate, "generate_ctrw", no_walk)
        out = tmp_path / "o.csv"
        argv = command + ["--trajectories", "1", "--duration", "1e12", "--out", str(out)]
        if truth:
            argv += ["--labels-out", str(tmp_path / "l.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "sparsemob: error: duration / wait_min is 5.55556e+08, over the "
            "1000000 dwell cycles a walk may hold\n"
        )
        assert not out.exists()

    def test_jitter_off_the_globe_is_usage_error(self, tmp_path, capsys):
        # without --labels-out no truth check bounds the jitter
        out = tmp_path / "o.csv"
        argv = ["simulate", "--trajectories", "1", "--jitter", "1e9", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "sparsemob: error: settings give an invalid trajectory: "
            "coordinates out of range or not finite\n"
        )
        assert not out.exists()

    def test_time_overflow_names_what_reaches_it(self, tmp_path, capsys):
        # simulate has no --rates flag: the message names the product of the
        # rate count and the joined span that reaches 2**63
        out = tmp_path / "s.csv"
        argv = ["simulate", "--trajectories", "2", "--delta-t", "1e19"]
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "sparsemob: error: 10 rates x (duration + delta_t + 1) s reaches "
            "2**63: joined times would overflow\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, text, command, message",
        [
            ("r.csv", b"time,lon,lat,mid\n0,0,0,a\xff\n", "label", "can't decode byte 0xff"),
            ("l.csv", b"mid,time,label\na\xff,0,S\n", "evaluate", "can't decode byte 0xff"),
            ("c.cfg", b"# caf\xe9\ndelta_s = 800\n", "config", "can't decode byte 0xe9"),
            # an unterminated quote runs the field past csv's 128 KiB limit
            (
                "r.csv",
                b'time,lon,lat,mid\n0,0,0,"a\n' + b"60,0,0,d\n" * 20000,
                "label",
                ":2: field larger than field limit (131072)",
            ),
        ],
        ids=["records", "labels", "config", "unterminated-quote"],
    )
    def test_undecodable_text_is_data_error(
        self, tmp_path, capsys, name, text, command, message
    ):
        path = tmp_path / name
        path.write_bytes(text)
        rec = write_records(tmp_path / "rec.csv", [travel_fixture()])
        out = str(tmp_path / "o.csv")
        argv = {
            "label": ["label", str(path), "--out", out],
            "evaluate": ["evaluate", "--predictions", str(path), "--truth", str(path),
                         "--out", out],
            "config": ["label", rec, "--config", str(path), "--out", out],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("sparsemob: data error: ") and err.count("\n") == 1
        assert f"{path}" in err and message in err

    def test_label_rows_numbered_by_file_line(self, tmp_path, capsys):
        rec = write_records(tmp_path / "r.csv", [travel_fixture()])
        lab = tmp_path / "l.csv"
        lab.write_text('mid,time,label\n"t\nu",0,S\nt,0,X\n')
        code = main(
            [
                "resample", rec,
                "--rate", "1.0",
                "--labels", str(lab),
                "--labels-out", str(tmp_path / "lo.csv"),
                "--out", str(tmp_path / "sub.csv"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"sparsemob: data error: {lab}:4: unknown label letter: 'X'\n"
        )


class TestResampleCommand:
    def test_rate_one_is_identity_with_labels(self, tmp_path):
        traj = travel_fixture()
        rec = write_records(tmp_path / "r.csv", [traj])
        lab = write_labels(
            tmp_path / "l.csv", [("t", 0, "U"), ("t", 600, "T"), ("t", 1200, "U")]
        )
        out = tmp_path / "sub.csv"
        lout = tmp_path / "sublab.csv"
        code = main(
            [
                "resample", rec,
                "--rate", "1.0",
                "--labels", lab,
                "--labels-out", str(lout),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert label_lines(lout) == [("t", 0, "U"), ("t", 600, "T"), ("t", 1200, "U")]
        kept = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(kept) == 4  # header plus all three records

    def test_records_written_as_formatted_cells(self, tmp_path):
        mids = ["a,b", 'say "hi"', "x\ny", "caf\u00e9"]
        rows = [(mid, t, lon, 1e-7 * t) for mid in sorted(mids)
                for t, lon in [(0, -0.0), (600, 179.99999999999997), (1200, 1e-300)]]
        rec = tmp_path / "r.csv"
        with open(rec, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([("mid", "time", "lon", "lat"), *rows])
        want = io.StringIO()
        want.write("# sparsemob records v1\n")
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["time", "lon", "lat", "mid"])
        writer.writerows([_fmt(v) for v in (t, lon, lat, mid)] for mid, t, lon, lat in rows)
        out = tmp_path / "sub.csv"
        assert main(["resample", str(rec), "--rate", "1", "--out", str(out)]) == 0
        assert out.read_bytes() == want.getvalue().encode("utf-8")

    def test_labels_flags_must_pair(self, tmp_path):
        rec = write_records(tmp_path / "r.csv", [travel_fixture()])
        lab = write_labels(tmp_path / "l.csv", [("t", 0, "U")])
        code = main(
            ["resample", rec, "--rate", "0.5", "--labels", lab, "--out", str(tmp_path / "o")]
        )
        assert code == 1

    def test_empty_labels_path_writes_no_label_rows(self, tmp_path):
        rec = write_records(tmp_path / "r.csv", [travel_fixture()])
        lout = tmp_path / "l.csv"
        args = ["resample", rec, "--rate", "1", "--labels", "", "--labels-out", str(lout)]
        assert main([*args, "--out", str(tmp_path / "o.csv")]) == 0
        assert lout.read_text() == "# sparsemob labels v1\nmid,time,label\n"

    @pytest.mark.parametrize("rate", ["1.5", "nan", "-0.1"])
    def test_rate_outside_unit_interval_is_usage_error(self, tmp_path, capsys, rate):
        rec = write_records(tmp_path / "r.csv", [travel_fixture()])
        out = tmp_path / "o.csv"
        assert main(["resample", rec, "--rate", rate, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"sparsemob: error: --rate must lie in [0, 1], got {float(rate)}\n"
        )
        assert not out.exists()

    def test_deterministic_for_fixed_seed(self, tmp_path):
        traj = traj_from_meters(np.arange(40) * 300, np.zeros(40), device="d")
        rec = write_records(tmp_path / "r.csv", [traj])
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["resample", rec, "--rate", "0.5", "--seed", "3", "--out", str(a)]) == 0
        assert main(["resample", rec, "--rate", "0.5", "--seed", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.csv"
        assert main(["resample", rec, "--rate", "0.5", "--seed", "4", "--out", str(c)]) == 0
        assert a.read_bytes() != c.read_bytes()


class TestEvaluateFiles:
    def test_metrics_from_matching_files(self, tmp_path):
        pred = write_labels(
            tmp_path / "p.csv", [("d", 0, "S"), ("d", 60, "U"), ("d", 120, "T")]
        )
        truth = write_labels(
            tmp_path / "t.csv", [("d", 0, "S"), ("d", 60, "S"), ("d", 120, "S")]
        )
        out = tmp_path / "m.csv"
        code = main(["evaluate", "--predictions", pred, "--truth", truth, "--out", str(out)])
        assert code == 0
        table = dict(
            line.split(",")
            for line in out.read_text().splitlines()
            if not line.startswith("#") and line != "metric,value"
        )
        assert table["true_stay"] == "1"
        assert table["unlabeled_stay"] == "1"
        assert table["false_travel"] == "1"
        assert table["stay_precision"] == "1.0"
        assert table["travel_precision"] == "0.0"
        assert table["travel_recall"] == "NA"
        assert table["accuracy"] == repr(1 / 3)

    def test_mismatched_rows_rejected(self, tmp_path):
        pred = write_labels(tmp_path / "p.csv", [("d", 0, "S")])
        truth = write_labels(tmp_path / "t.csv", [("d", 60, "S")])
        code = main(
            ["evaluate", "--predictions", pred, "--truth", truth, "--out", str(tmp_path / "m")]
        )
        assert code == 2

    def test_undecided_truth_rejected(self, tmp_path):
        pred = write_labels(tmp_path / "p.csv", [("d", 0, "S")])
        truth = write_labels(tmp_path / "t.csv", [("d", 0, "U")])
        code = main(
            ["evaluate", "--predictions", pred, "--truth", truth, "--out", str(tmp_path / "m")]
        )
        assert code == 2

    def test_duplicate_label_rows_rejected(self, tmp_path):
        pred = write_labels(tmp_path / "p.csv", [("d", 0, "S"), ("d", 0, "T")])
        truth = write_labels(tmp_path / "t.csv", [("d", 0, "S"), ("d", 0, "S")])
        code = main(
            ["evaluate", "--predictions", pred, "--truth", truth, "--out", str(tmp_path / "m")]
        )
        assert code == 2

    def test_rates_without_experiment_is_usage_error(self, tmp_path, capsys):
        labels = write_labels(tmp_path / "t.csv", [("d", 0, "S")])
        out = tmp_path / "m.csv"
        argv = ["evaluate", "--predictions", labels, "--truth", labels, "--rates", "0.5"]
        assert main([*argv, "--out", str(out)]) == 1
        assert "--rates requires --experiment" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--trajectories", "5", "--jitter", "3"], ["--duration", "30000"],
                  ["--jitter", "0"]],
    )
    def test_walk_flags_without_experiment_are_usage_errors(self, tmp_path, capsys, flags):
        # only the experiment draws walks; scoring files would ignore these,
        # also when one is given at its default
        labels = write_labels(tmp_path / "t.csv", [("d", 0, "S")])
        out = tmp_path / "m.csv"
        argv = ["evaluate", "--predictions", labels, "--truth", labels, *flags]
        assert main([*argv, "--out", str(out)]) == 1
        assert f"{flags[0]} requires --experiment" in capsys.readouterr().err
        assert not out.exists()

    def test_experiment_walk_flags_default_as_given(self, tmp_path):
        # the walk flags default to unset; the experiment fills in the
        # defaults of its fields, and reads as if they were given
        runs = [[], ["--trajectories", "100", "--duration", "259200", "--jitter", "0"]]
        texts = []
        for k, flags in enumerate(runs):
            out = tmp_path / f"r{k}.csv"
            argv = ["evaluate", "--experiment", "--rates", "1.0,0.5", *flags]
            assert main([*argv, "--out", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]


class TestSimulatePipeline:
    def test_simulate_label_evaluate_round_trip(self, tmp_path):
        rec = tmp_path / "rec.csv"
        lab = tmp_path / "truth.csv"
        code = main(
            [
                "simulate",
                "--trajectories", "2",
                "--duration", "30000",
                "--out", str(rec),
                "--labels-out", str(lab),
            ]
        )
        assert code == 0
        pred = tmp_path / "pred.csv"
        assert main(["label", str(rec), "--out", str(pred)]) == 0
        met = tmp_path / "met.csv"
        code = main(
            ["evaluate", "--predictions", str(pred), "--truth", str(lab), "--out", str(met)]
        )
        assert code == 0
        table = dict(
            line.split(",")
            for line in met.read_text().splitlines()
            if not line.startswith("#") and line != "metric,value"
        )
        assert table["false_stay"] == "0"
        assert table["false_travel"] == "0"
        assert table["stay_precision"] == "1.0"

    def test_simulate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--trajectories", "2", "--duration", "30000"]
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_truth_requires_supported_settings(self, tmp_path):
        code = main(
            [
                "simulate",
                "--trajectories", "1",
                "--duration", "30000",
                "--delta-t", "3600",
                "--out", str(tmp_path / "r.csv"),
                "--labels-out", str(tmp_path / "l.csv"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["simulate", "evaluate"])
    def test_unsupported_truth_is_one_data_error(self, tmp_path, capsys, command):
        # both commands build truth labels, so both run the same check
        argv = [command, "--trajectories", "2", "--delta-t", "7200"]
        if command == "simulate":
            argv += ["--labels-out", str(tmp_path / "l.csv")]
        else:
            argv += ["--experiment"]
        assert main(argv + ["--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err == (
            "sparsemob: data error: settings cannot guarantee exact truth: "
            "wait_min 1800.0 is below the time threshold 7200.0\n"
        )

    @pytest.mark.parametrize("jitter", [[], ["--jitter", "20"]], ids=["exact", "jitter"])
    @pytest.mark.parametrize("command", ["simulate", "evaluate"])
    def test_outputs_equal_the_one_draw_at_a_time_walk(
        self, tmp_path, monkeypatch, command, jitter
    ):
        # the walk drawn in blocks and the reference that draws one uniform
        # at a time give byte-identical files end to end
        def run(tag):
            outs = [tmp_path / f"{tag}-out.csv"]
            argv = [command, "--trajectories", "20", "--seed", "7", *jitter]
            if command == "simulate":
                outs.append(tmp_path / f"{tag}-truth.csv")
                argv += ["--labels-out", str(outs[1])]
            else:
                argv += ["--experiment"]
            assert main([*argv, "--out", str(outs[0])]) == 0
            return [out.read_bytes() for out in outs]

        blocks = run("blocks")
        walks = []

        def reference(config):
            walks.append(config.seed)
            return reference_generate_ctrw(config)

        monkeypatch.setattr(evaluate, "generate_ctrw", reference)
        assert run("reference") == blocks
        assert len(walks) == 20

    def test_output_ingestible(self, tmp_path):
        rec = tmp_path / "rec.csv"
        assert main(["simulate", "--trajectories", "2", "--duration", "30000", "--out", str(rec)]) == 0
        keys, sizes, _, _, _ = _ingest_columns(str(rec), tz_offset=0, strict=True)
        assert keys == ["sim00000", "sim00001"]
        assert (sizes > 0).all()


class TestEvaluateExperiment:
    def test_rate_table_deterministic_any_worker_count(self, tmp_path):
        base = [
            "evaluate", "--experiment",
            "--trajectories", "3",
            "--duration", "30000",
            "--rates", "1.0,0.5",
        ]
        outs = [tmp_path / f"r{k}.csv" for k in range(3)]
        assert main([*base, "--out", str(outs[0])]) == 0
        assert main([*base, "--out", str(outs[1])]) == 0
        assert main([*base, "--workers", "3", "--out", str(outs[2])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
        lines = [
            l for l in outs[0].read_text().splitlines() if not l.startswith("#")
        ]
        assert lines[0] == (
            "rate,mean_gap,stay_precision,stay_recall,travel_precision,"
            "travel_recall,accuracy,f1_accuracy"
        )
        first = lines[1].split(",")
        assert first[0] == "1.0"
        assert first[2] == "1.0"  # full-density stay precision

    @pytest.mark.parametrize("flag", ["--predictions", "--truth"])
    def test_label_files_with_experiment_are_usage_error(self, tmp_path, capsys, flag):
        # the experiment builds its own truth and predictions, so a named
        # file would go unread, here one that does not exist
        out = tmp_path / "r.csv"
        argv = ["evaluate", "--experiment", "--trajectories", "1", flag, str(tmp_path / "no.csv")]
        assert main([*argv, "--out", str(out)]) == 1
        assert "--experiment reads no --predictions or --truth" in capsys.readouterr().err
        assert not out.exists()


class TestProp1Command:
    def test_violation_fixture_reported(self, tmp_path):
        traj = traj_from_meters([0, 900, 1800], [0.0, 5000.0, 0.0], device="v")
        rec = write_records(tmp_path / "r.csv", [traj])
        out = tmp_path / "p.csv"
        assert main(["prop1", rec, "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "delta_s,delta_t,tested,violations,rate"
        assert lines[1] == "800.0,1800.0,1,1,1.0"

    def test_grid_flags(self, tmp_path):
        traj = traj_from_meters([0, 900, 1800], [0.0, 100.0, 0.0], device="c")
        rec = write_records(tmp_path / "r.csv", [traj])
        out = tmp_path / "p.csv"
        code = main(
            [
                "prop1", rec,
                "--delta-s-grid", "800,6000",
                "--delta-t-grid", "1800",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 3
        assert lines[1].startswith("800.0,1800.0,1,0")

    def test_empty_dataset_is_data_error(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("time,lon,lat,mid\n")
        assert main(["prop1", str(path), "--out", str(tmp_path / "p.csv")]) == 2


class TestBoundsCommand:
    def test_travel_fixture_bounds(self, tmp_path):
        rec = write_records(tmp_path / "r.csv", [travel_fixture()])
        out = tmp_path / "b.csv"
        assert main(["bounds", rec, "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "mid,stay_bound,travel_bound"
        assert lines[1] == "t,1.0,1.0"

    def test_medium_cluster_zero_stay_bound(self, tmp_path):
        traj = traj_from_meters(
            [0, 600, 1200, 2400], [0.0, 300.0, 0.0, 300.0], device="m"
        )
        rec = write_records(tmp_path / "r.csv", [traj])
        out = tmp_path / "b.csv"
        assert main(["bounds", rec, "--out", str(out)]) == 0
        row = [l for l in out.read_text().splitlines() if l.startswith("m,")][0]
        assert row == "m,0.0,1.0"



class TestStatsCommand:
    def test_per_device_rows(self, tmp_path):
        traj = traj_from_meters(minutes(0, 10, 120, 240, 250), [0.0] * 5, device="d")
        rec = write_records(tmp_path / "r.csv", [traj])
        out = tmp_path / "s.csv"
        assert main(["stats", rec, "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "mid,records,span_seconds,mean_gap,coverage"
        assert lines[1] == "d,5,15000,3750.0,0.8"

    def test_sparsity_report_written(self, tmp_path):
        trajs = [
            traj_from_meters(np.arange(6) * 600, np.zeros(6), device="a"),
            traj_from_meters([5], [0.0], device="b"),
        ]
        rec = write_records(tmp_path / "r.csv", trajs)
        out = tmp_path / "s.csv"
        sp = tmp_path / "sparsity.csv"
        code = main(
            [
                "stats", rec,
                "--out", str(out),
                "--sparsity-out", str(sp),
                "--delta-t-grid", "1800,300",
            ]
        )
        assert code == 0
        text = sp.read_text()
        assert text.startswith("# sparsemob sparsity v1\n")
        kinds = {line.split(",")[0] for line in text.splitlines()[2:]}
        assert kinds == {"gap_bin", "coverage_bin"}

    def test_label_mix_equals_devices_labeled_alone(self, tmp_path, rng):
        # single records, devices the gap contract joins, and one with more
        # than a superblock of records within delta_t
        dense = traj_from_meters(np.arange(300), np.arange(300) * 5.0, device="z")
        rec = write_records(tmp_path / "r.csv", mixed_devices(rng, 9) + [dense])
        sp = tmp_path / "sparsity.csv"
        argv = ["stats", rec, "--out", str(tmp_path / "s.csv"), "--sparsity-out", str(sp)]
        assert main(argv) == 0
        lines = [l for l in sp.read_text().splitlines() if not l.startswith("#")]
        rows = [r for r in csv.DictReader(lines) if r["table"] == "gap_bin"]
        counts = [np.zeros(3, dtype=np.int64) for _ in rows]
        for traj in reference_ingest(rec, tz_offset=0, strict=True):
            if len(traj) < 2:
                continue  # no mean gap, so in no gap bin
            xi = np.diff(traj.times).mean()
            b = next(k for k, r in enumerate(rows) if float(r["lo"]) <= xi < float(r["hi"]))
            labels = sds_label(traj, MobilityParams()).labels
            for k, code in enumerate((LABEL_STAY, LABEL_TRAVEL, LABEL_UNLABELED)):
                counts[b][k] += (labels == code).sum()
        got = [
            (r["stay_fraction"], r["travel_fraction"], r["unlabeled_fraction"])
            for r in rows
        ]
        want = [
            tuple(repr(int(c) / int(n.sum())) for c in n) if n.sum() else ("NA",) * 3
            for n in counts
        ]
        assert got == want
        assert sum(n.sum() > 0 for n in counts) >= 2

    @pytest.mark.parametrize("grid", ["-5,nan", "300,0", "nan"])
    def test_bad_slicing_threshold_is_usage_error(self, tmp_path, capsys, grid):
        rec = write_records(tmp_path / "r.csv", [stay_fixture()])
        argv = ["stats", rec, "--out", str(tmp_path / "s.csv"),
                "--sparsity-out", str(tmp_path / "sp.csv"), f"--delta-t-grid={grid}"]
        assert main(argv) == 1
        assert "delta_t must be positive" in capsys.readouterr().err

    def test_delta_t_grid_without_sparsity_out_is_usage_error(self, tmp_path, capsys):
        # the grid slices only the sparsity report's coverage histograms
        rec = write_records(tmp_path / "r.csv", [stay_fixture()])
        out = tmp_path / "s.csv"
        assert main(["stats", rec, "--out", str(out), "--delta-t-grid", "600"]) == 1
        assert "--delta-t-grid requires --sparsity-out" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_file_with_sparsity_out_writes_nothing(self, tmp_path, capsys):
        # refused before either file is written, as prop1 refuses it
        path = tmp_path / "r.csv"
        path.write_text("time,lon,lat,mid\n")
        outs = [tmp_path / "s.csv", tmp_path / "sp.csv"]
        argv = ["stats", str(path), "--out", str(outs[0]), "--sparsity-out", str(outs[1])]
        assert outcome(argv, outs, capsys) == (
            2, [None, None], "sparsemob: data error: empty dataset: nothing to report sparsity on\n"
        )


def outcome(argv, outs, capsys):
    """What ``main(argv)`` gives: exit code, the bytes of each of ``outs``
    (None for one not written) and stderr."""
    for out in outs:
        out.unlink(missing_ok=True)
    code = main(argv)
    written = [out.read_bytes() if out.exists() else None for out in outs]
    return code, written, capsys.readouterr().err


def reference_outcome(command, path, outs, strict, capsys, params, delta_ts, ref_lat):
    """What ``stats --sparsity-out`` or ``bounds`` should give for ``path``,
    as ``outcome`` returns it, built device by device from
    ``reference_ingest``, ``reference_stats`` and ``reference_bounds``."""
    try:
        trajs = reference_ingest(str(path), tz_offset=28800, strict=strict)
    except DataError as exc:
        print(f"sparsemob: data error: {exc}", file=sys.stderr)
        return 2, [None] * len(outs), capsys.readouterr().err
    if command == "bounds":
        texts = [reference_bounds(trajs, params, ref_lat=ref_lat)]
    else:
        texts = list(reference_stats(trajs, params, delta_ts, ref_lat=ref_lat))
    if texts[-1] is None:
        # refused before the stats file is written
        print("sparsemob: data error: empty dataset: nothing to report sparsity on",
              file=sys.stderr)
        return 2, [None] * len(outs), capsys.readouterr().err
    return 0, [text.encode("utf-8") for text in texts], capsys.readouterr().err


#: (flags, params, slicing thresholds, ref_lat) of the differential tests
_STATS_FLAGS = [
    ([], MobilityParams(), [1800.0], None),
    (["--delta-t-grid", "600,1800,600"], MobilityParams(), [600.0, 1800.0, 600.0], None),
    (["--ref-lat", "45.0"], MobilityParams(), [1800.0], 45.0),
    (["--delta-t", "600.5", "--delta-s", "300"], MobilityParams(300.0, 600.5), [600.5], None),
]
#: each command with each set of flags it takes: bounds has no thresholds
_STATS_CASES = [("stats", *case) for case in _STATS_FLAGS]
_STATS_CASES += [("bounds", *case) for case in _STATS_FLAGS if "--delta-t-grid" not in case[0]]


class TestStatsBoundsDifferential:
    """``stats`` and ``bounds`` read, measure, label and write whole columns;
    their bytes, warnings and exit codes must equal those of a
    device-by-device reference."""

    @staticmethod
    def _compare(tmp_path, capsys, path, command, flags, params, delta_ts, ref_lat, strict):
        if command == "bounds":
            outs = [tmp_path / "b.csv"]
            argv = ["bounds", str(path), "--out", str(outs[0])]
        else:
            outs = [tmp_path / "s.csv", tmp_path / "sp.csv"]
            argv = ["stats", str(path), "--out", str(outs[0]), "--sparsity-out", str(outs[1])]
        got = outcome(argv + flags + ["--strict"] * strict, outs, capsys)
        want = reference_outcome(command, path, outs, strict, capsys, params, delta_ts, ref_lat)
        assert got == want, (command, flags, strict, path.read_text())
        return got

    @pytest.mark.parametrize("command, flags, params, delta_ts, ref_lat", _STATS_CASES)
    def test_random_files_match_reference(
        self, tmp_path, capsys, command, flags, params, delta_ts, ref_lat
    ):
        # unsorted rows, duplicates, bad and quoted cells, short rows,
        # devices whose every row is refused, and files with no device
        rng = np.random.default_rng(20261021)
        path = tmp_path / "r.csv"
        for _ in range(60):
            path.write_text(random_records_text(rng))
            for strict in (False, True):
                self._compare(tmp_path, capsys, path, command, flags, params, delta_ts,
                              ref_lat, strict)

    @pytest.mark.parametrize("command, flags, params, delta_ts, ref_lat", _STATS_CASES)
    def test_edge_file_matches_reference(
        self, tmp_path, rng, capsys, command, flags, params, delta_ts, ref_lat
    ):
        # lone records, a device whose every row is refused, and devices
        # with stays and travel, each starting long after the one before
        # ends, rows shuffled
        trajs = [random_trajectory(rng) for _ in range(6)]
        rows = [
            (int(t) + 10**7 * k, repr(float(lon)), repr(float(lat)), f"d{k}")
            for k, traj in enumerate(trajs)
            for t, lon, lat in zip(traj.times, traj.lons, traj.lats)
        ]
        rows += [(5, "0.5", "0.5", "lone"), (7, "0.5", "0.5", "solo")]
        rows += [(t, "999.0", "0.5", "refused") for t in (0, 60, 120)]
        rows = [rows[k] for k in rng.permutation(len(rows))]
        path = tmp_path / "r.csv"
        lines = [",".join(map(str, row)) + "\n" for row in rows]
        path.write_text("time,lon,lat,mid\n" + "".join(lines))
        code, written, err = self._compare(
            tmp_path, capsys, path, command, flags, params, delta_ts, ref_lat, False
        )
        assert code == 0 and err.count("longitude out of range: 999.0") == 3
        assert all(b"refused" not in text for text in written)
        assert all(b"\nlone," in text for text in written[:1])

    def test_kernel_calls_per_file(self, tmp_path, rng, monkeypatch):
        # 1,000 devices, every third a lone record: bounds labels at the
        # labeler's radii and at the two pools', stats at the labeler's,
        # each in one kernel call for the whole file, and neither builds a
        # Trajectory
        trajs = []
        for k in range(1000):
            traj = random_trajectory(rng, max_len=1 if k % 3 == 2 else 20)
            trajs.append(Trajectory(f"d{k:04d}", traj.times, traj.lons, traj.lats))
        rec = write_records(tmp_path / "r.csv", trajs)
        total = sum(map(len, trajs))
        kernel = sds.label_kernel
        calls, built = [], []

        def counted(*args):
            calls.append(len(args[2]))
            return kernel(*args)

        monkeypatch.setattr(sds, "label_kernel", counted)
        monkeypatch.setattr(Trajectory, "__post_init__", lambda self: built.append(self))
        assert main(["bounds", rec, "--out", str(tmp_path / "b.csv")]) == 0
        assert (calls, built) == ([total] * 3, [])
        calls.clear()
        argv = ["stats", rec, "--out", str(tmp_path / "s.csv"),
                "--sparsity-out", str(tmp_path / "sp.csv")]
        assert main(argv) == 0
        assert (calls, built) == ([total], [])

    def test_repeated_threshold_counts_each_device_once(self, tmp_path):
        # a threshold given twice gets one histogram, of each device once
        trajs = [traj_from_meters([0, 600], [0.0, 5.0], device=d) for d in "abc"]
        rec = write_records(tmp_path / "r.csv", trajs)
        sp = tmp_path / "sp.csv"
        argv = ["stats", rec, "--out", str(tmp_path / "s.csv"), "--sparsity-out", str(sp),
                "--delta-t-grid", "1800,1800"]
        assert main(argv) == 0
        rows = [line for line in sp.read_text().splitlines() if line.startswith("coverage_bin")]
        assert len(rows) == 10
        assert rows[-1] == "coverage_bin,0.9,1.0,1800.0,3,NA,NA,NA,NA"


def reference_prop1_outcome(path, strict, capsys, grid, ref_lat):
    """What ``prop1`` should give for ``path``, as ``outcome`` returns it,
    built device by device from ``reference_ingest`` and
    ``reference_prop1``."""
    try:
        trajs = reference_ingest(str(path), tz_offset=28800, strict=strict)
        if not trajs:
            raise DataError("empty dataset")
    except DataError as exc:
        print(f"sparsemob: data error: {exc}", file=sys.stderr)
        return 2, [None], capsys.readouterr().err
    text = reference_prop1(trajs, grid, ref_lat=ref_lat)
    return 0, [text.encode("utf-8")], capsys.readouterr().err


def _grid(delta_s, delta_t):
    return [MobilityParams(s, t) for s in delta_s for t in delta_t]


#: (flags, threshold grid, ref_lat) of the prop1 differential tests
_PROP1_CASES = [
    ([], _grid([800.0], [1800.0]), None),
    (["--delta-s-grid", "300,800", "--delta-t-grid", "600,1800,600"],
     _grid([300.0, 800.0], [600.0, 1800.0, 600.0]), None),
    (["--ref-lat", "45.0"], _grid([800.0], [1800.0]), 45.0),
    (["--delta-t", "600.5"], _grid([800.0], [600.5]), None),
]


class TestProp1Differential:
    """``prop1`` projects a file once and checks every device per threshold
    pair in one pass; its bytes, warnings and exit codes must equal those of
    a device-by-device reference."""

    @staticmethod
    def _compare(tmp_path, capsys, path, flags, grid, ref_lat, strict):
        out = tmp_path / "p.csv"
        argv = ["prop1", str(path), "--out", str(out), *flags] + ["--strict"] * strict
        got = outcome(argv, [out], capsys)
        want = reference_prop1_outcome(path, strict, capsys, grid, ref_lat)
        assert got == want, (flags, strict, path.read_text())
        return got

    @pytest.mark.parametrize("flags, grid, ref_lat", _PROP1_CASES)
    def test_random_files_match_reference(self, tmp_path, capsys, flags, grid, ref_lat):
        # unsorted rows, duplicates, bad and quoted cells, short rows,
        # devices whose every row is refused, and files with no device
        rng = np.random.default_rng(20261022)
        path = tmp_path / "r.csv"
        for _ in range(60):
            path.write_text(random_records_text(rng))
            for strict in (False, True):
                self._compare(tmp_path, capsys, path, flags, grid, ref_lat, strict)

    @pytest.mark.parametrize("flags, grid, ref_lat", _PROP1_CASES)
    def test_edge_file_matches_reference(self, tmp_path, rng, capsys, flags, grid, ref_lat):
        # devices with dwells and excursions, lone records and a device
        # whose every row is refused, rows shuffled
        trajs = [random_trajectory(rng) for _ in range(6)]
        rows = [
            (int(t) + 10**7 * k, repr(float(lon)), repr(float(lat)), f"d{k}")
            for k, traj in enumerate(trajs)
            for t, lon, lat in zip(traj.times, traj.lons, traj.lats)
        ]
        rows += [(5, "0.5", "0.5", "lone"), (0, "999.0", "0.5", "refused")]
        rows += [(60, "999.0", "0.5", "refused")]
        rows = [rows[k] for k in rng.permutation(len(rows))]
        path = tmp_path / "r.csv"
        lines = [",".join(map(str, row)) + "\n" for row in rows]
        path.write_text("time,lon,lat,mid\n" + "".join(lines))
        code, _, err = self._compare(tmp_path, capsys, path, flags, grid, ref_lat, False)
        assert code == 0 and err.count("longitude out of range: 999.0") == 2

    def test_times_near_int64_max_cut_the_join(self, tmp_path, capsys, monkeypatch):
        # device a spans 0 .. 2**63 - 1, so b, a dwell just before 2**63 - 1,
        # would join past int64 and takes a run of its own; a's excursion
        # is a violation, b's dwell is not
        top = 2**63 - 1
        deg = 1.0 / METERS_PER_DEGREE
        rows = [(0, 0.0, "a"), (900, 5000.0, "a"), (1800, 0.0, "a"), (top, 0.0, "a")]
        rows += [(top - 1800, 0.0, "b"), (top - 900, 100.0, "b"), (top, 0.0, "b")]
        path = tmp_path / "r.csv"
        lines = [f"{t},{x * deg!r},0.0,{d}\n" for t, x, d in rows]
        path.write_text("time,lon,lat,mid\n" + "".join(lines))
        joined_times = evaluate._joined_times
        cuts = []

        def recorded(*args):
            joined = joined_times(*args)
            cuts.append(joined[1])
            return joined

        monkeypatch.setattr(evaluate, "_joined_times", recorded)
        grid = _grid([800.0], [1800.0])
        code, written, _ = self._compare(tmp_path, capsys, path, [], grid, None, False)
        assert code == 0 and cuts == [[0, 4, 7]]
        assert written[0].splitlines()[-1] == b"800.0,1800.0,2,1,0.5"

    def test_one_pass_per_distinct_pair(self, tmp_path, rng, capsys, monkeypatch):
        # 1,000 devices, every third a lone record: one stay pass per
        # distinct threshold pair for the whole file, and no Trajectory
        trajs = []
        for k in range(1000):
            traj = random_trajectory(rng, max_len=1 if k % 3 == 2 else 20)
            trajs.append(Trajectory(f"d{k:04d}", traj.times, traj.lons, traj.lats))
        rec = write_records(tmp_path / "r.csv", trajs)
        heads = evaluate._stay_heads
        calls, built = [], []

        def counted(*args):
            calls.append(len(args[2]))
            return heads(*args)

        monkeypatch.setattr(evaluate, "_stay_heads", counted)
        monkeypatch.setattr(Trajectory, "__post_init__", lambda self: built.append(self))
        flags, grid, _ = _PROP1_CASES[1]  # six pairs, four of them distinct
        out = tmp_path / "p.csv"
        got = outcome(["prop1", rec, "--out", str(out), *flags], [out], capsys)
        assert (calls, built) == ([sum(map(len, trajs))] * 4, [])
        monkeypatch.undo()
        assert got == (0, [reference_prop1(trajs, grid).encode("utf-8")], "")


class TestBaselineCommand:
    @staticmethod
    def _training(tmp_path):
        a = traj_from_meters([0, 60, 120], [0.0, 10.0, 20.0], device="a")
        b = traj_from_meters([0, 60], [50000.0, 58000.0], device="b")
        rec = write_records(tmp_path / "train.csv", [a, b])
        lab = write_labels(
            tmp_path / "trainlab.csv",
            [
                ("a", 0, "S"), ("a", 60, "S"), ("a", 120, "S"),
                ("b", 0, "T"), ("b", 60, "T"),
            ],
        )
        return rec, lab

    @pytest.mark.parametrize("method", ["voting", "hmm"])
    def test_train_save_load_predict_cycle(self, tmp_path, method):
        rec, lab = self._training(tmp_path)
        model = tmp_path / "model.csv"
        out1 = tmp_path / "p1.csv"
        code = main(
            [
                "baseline", "--method", method,
                "--train-records", rec,
                "--train-labels", lab,
                "--save-model", str(model),
                "--records", rec,
                "--out", str(out1),
            ]
        )
        assert code == 0
        out2 = tmp_path / "p2.csv"
        code = main(
            [
                "baseline", "--method", method,
                "--load-model", str(model),
                "--records", rec,
                "--out", str(out2),
            ]
        )
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        letters = [r[2] for r in label_lines(out1)]
        assert set(letters) <= {"S", "T"}
        assert len(letters) == 5

    def test_voting_predictions_follow_training(self, tmp_path):
        rec, lab = self._training(tmp_path)
        out = tmp_path / "p.csv"
        code = main(
            [
                "baseline", "--method", "voting",
                "--train-records", rec,
                "--train-labels", lab,
                "--records", rec,
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = label_lines(out)
        assert [r[2] for r in rows if r[0] == "a"] == ["S", "S", "S"]
        assert [r[2] for r in rows if r[0] == "b"] == ["T", "T"]

    def test_usage_flag_pairing(self, tmp_path):
        rec, lab = self._training(tmp_path)
        assert main(["baseline", "--method", "voting", "--train-records", rec]) == 1
        assert main(["baseline", "--method", "voting"]) == 1
        assert (
            main(
                [
                    "baseline", "--method", "voting",
                    "--train-records", rec,
                    "--train-labels", lab,
                    "--records", rec,
                ]
            )
            == 1
        )

    def test_out_without_records_is_usage_error(self, tmp_path, capsys):
        # predictions need records to predict, as --records needs --out;
        # refused before training, so no model file is written either
        rec, lab = self._training(tmp_path)
        out, model = tmp_path / "p.csv", tmp_path / "m.csv"
        argv = ["baseline", "--method", "voting", "--train-records", rec,
                "--train-labels", lab, "--save-model", str(model), "--out", str(out)]
        assert main(argv) == 1
        assert "--out requires --records" in capsys.readouterr().err
        assert not out.exists() and not model.exists()

    def test_load_wrong_kind_is_data_error(self, tmp_path):
        rec, lab = self._training(tmp_path)
        model = tmp_path / "model.csv"
        code = main(
            [
                "baseline", "--method", "voting",
                "--train-records", rec,
                "--train-labels", lab,
                "--save-model", str(model),
            ]
        )
        assert code == 0
        code = main(
            [
                "baseline", "--method", "hmm",
                "--load-model", str(model),
                "--records", rec,
                "--out", str(tmp_path / "p.csv"),
            ]
        )
        assert code == 2

    def test_strict_requires_full_labels(self, tmp_path):
        rec, _ = self._training(tmp_path)
        partial = write_labels(tmp_path / "part.csv", [("a", 0, "S")])
        code = main(
            [
                "baseline", "--method", "voting", "--strict",
                "--train-records", rec,
                "--train-labels", partial,
            ]
        )
        assert code == 2

    def test_load_model_with_training_inputs_is_usage_error(self, tmp_path, capsys):
        # training would replace the loaded model, unread; refused before
        # either is touched, so a model that does not exist is not noticed
        rec, lab = self._training(tmp_path)
        model = tmp_path / "m.csv"
        argv = ["baseline", "--method", "voting", "--train-records", rec,
                "--train-labels", lab, "--load-model", str(tmp_path / "no-such.csv"),
                "--save-model", str(model)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "sparsemob: error: --load-model cannot be used with training inputs\n"
        )
        assert not model.exists()

    @pytest.mark.parametrize("method, load", [("hmm", False), ("hmm", True), ("voting", True)])
    def test_week_start_without_voting_training_is_usage_error(
        self, tmp_path, capsys, method, load
    ):
        # only voting training numbers the hours of the week; a loaded
        # voting model keeps its own week_start
        rec, lab = self._training(tmp_path)
        model, out = tmp_path / "m.csv", tmp_path / "p.csv"
        train = ["--train-records", rec, "--train-labels", lab]
        assert main(["baseline", "--method", method, *train, "--save-model", str(model)]) == 0
        source = ["--load-model", str(model)] if load else train
        argv = ["baseline", "--method", method, *source, "--week-start", "sunday",
                "--records", rec, "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "sparsemob: error: --week-start applies only to training --method voting\n"
        )
        assert not out.exists()

    def test_week_start_defaults_to_monday_for_voting_training(self, tmp_path):
        rec, lab = self._training(tmp_path)
        train = ["baseline", "--method", "voting", "--train-records", rec, "--train-labels", lab]
        models = [tmp_path / f"m-{k}.csv" for k in range(3)]
        for model, flags in zip(models, [[], ["--week-start", "monday"],
                                         ["--week-start", "sunday"]]):
            assert main([*train, *flags, "--save-model", str(model)]) == 0
        assert models[0].read_bytes() == models[1].read_bytes()
        assert b"# week_start monday\n" in models[0].read_bytes()
        assert b"# week_start sunday\n" in models[2].read_bytes()


#: device ids that csv quotes, with leading spaces, which ingest strips, and
#: outside ASCII
_ODD_IDS = ["a,b", 'say "hi"', "x\ny", "  lead", "caf\u00e9", "\u65e5\u672c", "d"]


def many_small_devices(tmp_path, rng, tag="", count=80):
    """Paths of a records CSV of ``count`` random devices of 1 to 12
    records, ids from ``_ODD_IDS``, rows shuffled, and of a labels CSV that
    gives a random letter to all but about a tenth of the records, rows
    shuffled too; their names start with ``tag``."""
    records, labels = [], []
    for k in range(count):
        traj = random_trajectory(rng, max_len=12)
        mid = f"{_ODD_IDS[k % len(_ODD_IDS)]}{k}"
        for t, lon, lat in zip(traj.times.tolist(), traj.lons.tolist(), traj.lats.tolist()):
            records.append((t + 10**6 * k, repr(lon), repr(lat), mid))
            if rng.random() < 0.9:
                labels.append((mid.strip(), t + 10**6 * k, "STU"[int(rng.integers(3))]))
    paths = []
    for name, header, rows in [("r.csv", cli._RECORD_HEADER, records),
                               ("l.csv", cli._LABEL_HEADER, labels)]:
        rows = [rows[k] for k in rng.permutation(len(rows))]
        path = tmp_path / f"{tag}{name}"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        paths.append(str(path))
    return paths


def reference_codes(trajs, label_map, strict):
    """Each trajectory's label codes from ``label_map``, U where it has none;
    in strict mode, the data error of the first record without one."""
    out = []
    for traj in trajs:
        codes = []
        for t in traj.times.tolist():
            if strict and (traj.device, t) not in label_map:
                raise DataError(f"no label for record ({traj.device!r}, {t})")
            codes.append(label_map.get((traj.device, t), LABEL_UNLABELED))
        out.append(np.array(codes, dtype=np.int8))
    return out


def label_text(trajs, codes) -> str:
    """The labels CSV of ``trajs`` with their ``codes``, by ``csv.writer``."""
    rows = [
        (traj.device, t, "UST"[c])
        for traj, cs in zip(trajs, codes)
        for t, c in zip(traj.times.tolist(), cs.tolist())
    ]
    return _csv_text("labels", cli._LABEL_HEADER, rows)


def run_outcome(argv, outs, capsys):
    """``outcome`` with each file's text in place of its bytes."""
    code, written, err = outcome(argv, outs, capsys)
    return code, [None if w is None else w.decode("utf-8") for w in written], err


def refused(exc, outs, capsys):
    """What ``main`` gives for a data error raised before any output."""
    capsys.readouterr()
    return 2, [None] * len(outs), f"sparsemob: data error: {exc}\n"


class TestPerDeviceDifferential:
    """``oracle``, ``resample`` and ``baseline`` read, compute and write
    whole columns; their bytes, errors and exit codes must equal those built
    device by device, from ``reference_ingest``'s trajectories, by the
    library's one-trajectory functions."""

    @pytest.mark.parametrize("edge", [0, 1])
    def test_oracle(self, tmp_path, rng, capsys, edge):
        # a limit of the longest device's size passes; one less is refused,
        # naming the first device over it in id order
        rec, _ = many_small_devices(tmp_path, rng)
        trajs = reference_ingest(rec, tz_offset=28800, strict=True)
        limit = max(map(len, trajs)) - edge
        out = tmp_path / "o.csv"
        got = run_outcome(["oracle", rec, "--limit", str(limit), "--out", str(out)],
                          [out], capsys)
        try:
            codes = [exact_label(traj, MobilityParams(), limit=limit).labels
                     for traj in trajs]
        except OracleLimitError as exc:
            first = next(traj for traj in trajs if len(traj) > limit)
            want = refused(f"device {first.device!r}: {exc}", [out], capsys)
        else:
            want = (0, [label_text(trajs, codes)], "")
        assert got == want
        assert got[0] == 2 * edge

    @pytest.mark.parametrize("rate", ["0", "0.5", "1"])
    @pytest.mark.parametrize("with_labels, strict", [(False, False), (True, False), (True, True)])
    def test_resample(self, tmp_path, rng, capsys, rate, with_labels, strict):
        rec, lab = many_small_devices(tmp_path, rng)
        outs = [tmp_path / "o.csv", tmp_path / "ol.csv"]
        argv = ["resample", rec, "--rate", rate, "--seed", "3", "--out", str(outs[0])]
        if with_labels:
            argv += ["--labels", lab, "--labels-out", str(outs[1])]
        got = run_outcome(argv + ["--strict"] * strict, outs, capsys)
        trajs = reference_ingest(rec, tz_offset=28800, strict=True)
        try:
            codes = reference_codes(trajs, reference_read_labels(lab), strict)
        except DataError as exc:
            want = refused(exc, outs, capsys)
        else:
            subs, kept = [], []
            for traj, cs in zip(trajs, codes):
                sub, keep = resample(traj, float(rate), _device_rng(3, traj.device))
                subs.append(sub)
                kept.append(cs[keep])
            rows = [
                (t, lon, lat, sub.device)
                for sub in subs
                for t, lon, lat in zip(sub.times.tolist(), sub.lons.tolist(),
                                       sub.lats.tolist())
            ]
            texts = [_csv_text("records", cli._RECORD_HEADER, rows)]
            texts.append(label_text(subs, kept) if with_labels else None)
            want = (0, texts, "")
        assert got == want
        assert got[0] == (2 if strict else 0)

    @pytest.mark.parametrize("method, flags", [
        *((method, flags) for method in ("voting", "hmm")
          for flags in ([], ["--ref-lat", "30"], ["--strict"])),
        ("voting", ["--seed", "4", "--week-start", "sunday"]),
    ])
    def test_baseline(self, tmp_path, rng, capsys, method, flags):
        rec, lab = many_small_devices(tmp_path, rng)
        query, _ = many_small_devices(tmp_path, rng, "query-")
        model, out, again = tmp_path / "m.csv", tmp_path / "p.csv", tmp_path / "p2.csv"
        argv = ["baseline", "--method", method, "--train-records", rec, "--train-labels", lab,
                "--save-model", str(model), "--records", query, "--out", str(out), *flags]
        got = run_outcome(argv, [model, out], capsys)
        strict = "--strict" in flags
        trajs = reference_ingest(rec, tz_offset=28800, strict=True)
        queries = reference_ingest(query, tz_offset=28800, strict=True)
        try:
            pairs = zip(trajs, reference_codes(trajs, reference_read_labels(lab), strict))
        except DataError as exc:
            assert got == refused(exc, [model, out], capsys)
            return
        ref_lat = 30.0 if "--ref-lat" in flags else None
        if method == "voting":
            seed, week_start = (4, "sunday") if "--seed" in flags else (0, "monday")
            trained = voting_train(pairs, seed=seed, week_start=week_start, tz_offset=28800)
            codes = [trained.predict(traj) for traj in queries]
        else:
            trained = hmm_train(pairs, ref_lat=ref_lat)
            codes = [hmm_predict(trained, traj, ref_lat=ref_lat) for traj in queries]
        _save_model(trained, str(tmp_path / "want.csv"))
        want_model = (tmp_path / "want.csv").read_text()
        assert got == (0, [want_model, label_text(queries, codes)], "")
        # a reloaded model predicts alike
        reload = ["baseline", "--method", method, "--load-model", str(model),
                  "--records", query, "--out", str(again)]
        reload += ["--ref-lat", "30"] if ref_lat is not None else []
        assert run_outcome(reload, [again], capsys) == (0, [label_text(queries, codes)], "")


def crlf_rows(data: bytes) -> bytes:
    """A model file in the older layout: comment lines end in LF, CSV rows
    in CRLF (``csv.writer``'s default)."""
    return b"".join(
        line + (b"\n" if line.startswith(b"#") else b"\r\n")
        for line in data.splitlines()
    )


def voting_fixture():
    traj = traj_from_meters([0, 60, 120, 50000], [0.0, 10.0, 20.0, 5000.0])
    labels = np.array([LABEL_STAY, LABEL_STAY, LABEL_UNLABELED, LABEL_TRAVEL], np.int8)
    return traj, voting_train([(traj, labels)], seed=5)


def hmm_fixture():
    traj = traj_from_meters([0, 60, 120], [0.0, 1000.0, 2000.0])
    labels = np.array([LABEL_STAY, LABEL_TRAVEL, LABEL_TRAVEL], np.int8)
    return hmm_train([(traj, labels)], ref_lat=0.0)


class TestModelFiles:
    """Model files go through the one reader and writer of every CSV."""

    def test_voting_save_load_round_trip(self, tmp_path):
        traj, model = voting_fixture()
        first, second = str(tmp_path / "vote1.csv"), str(tmp_path / "vote2.csv")
        _save_model(model, first)
        loaded = _load_model("voting", first)
        assert loaded.seed == 5
        assert loaded.counts == model.counts
        _save_model(loaded, second)
        assert Path(first).read_bytes() == Path(second).read_bytes()
        assert np.array_equal(loaded.predict(traj), model.predict(traj))

    def test_voting_saved_file_ends_lines_in_lf(self, tmp_path):
        _, model = voting_fixture()
        path = tmp_path / "vote.csv"
        _save_model(model, str(path))
        assert b"\r" not in path.read_bytes()
        path.write_bytes(crlf_rows(path.read_bytes()))
        assert _load_model("voting", str(path)).counts == model.counts

    def test_voting_load_rejects_other_files(self, tmp_path, capsys):
        bogus = tmp_path / "x.csv"
        bogus.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match=f"{bogus}: missing required column"):
            _load_model("voting", str(bogus))
        argv = ["baseline", "--method", "voting", "--load-model", str(bogus)]
        assert main(argv) == 2
        assert str(bogus) in capsys.readouterr().err

    def test_hmm_save_load_round_trip(self, tmp_path):
        model = hmm_fixture()
        first, second = str(tmp_path / "hmm1.csv"), str(tmp_path / "hmm2.csv")
        _save_model(model, first)
        loaded = _load_model("hmm", first)
        assert np.array_equal(loaded.initial, model.initial)
        assert np.array_equal(loaded.transition, model.transition)
        assert np.array_equal(loaded.emission, model.emission)
        assert loaded.buckets == model.buckets
        _save_model(loaded, second)
        assert Path(first).read_bytes() == Path(second).read_bytes()

    def test_hmm_saved_file_ends_lines_in_lf(self, tmp_path):
        model = hmm_fixture()
        path = tmp_path / "hmm.csv"
        _save_model(model, str(path))
        assert b"\r" not in path.read_bytes()
        path.write_bytes(crlf_rows(path.read_bytes()))
        assert np.array_equal(_load_model("hmm", str(path)).emission, model.emission)

    def test_hmm_load_rejects_other_files(self, tmp_path, capsys):
        bogus = tmp_path / "x.csv"
        bogus.write_text("# sparsemob voting v1\ngrid_lon,grid_lat,hour,stay,travel\n")
        with pytest.raises(DataError, match=f"{bogus}: missing required column"):
            _load_model("hmm", str(bogus))
        argv = ["baseline", "--method", "hmm", "--load-model", str(bogus)]
        assert main(argv) == 2
        assert str(bogus) in capsys.readouterr().err

    @staticmethod
    def _predictions(tmp_path, method, edit):
        """The predictions of a trained model, and of the same model loaded
        from its file after ``edit`` rewrote the file's text."""
        rec, lab = TestBaselineCommand._training(tmp_path)
        model, first, second = (tmp_path / name for name in ("m.csv", "p1.csv", "p2.csv"))
        base = ["baseline", "--method", method, "--records", rec]
        assert main([*base, "--train-records", rec, "--train-labels", lab,
                     "--save-model", str(model), "--out", str(first)]) == 0
        model.write_text(edit(model.read_text()))
        assert main([*base, "--load-model", str(model), "--out", str(second)]) == 0
        return first.read_bytes(), second.read_bytes()

    def test_voting_trailing_blank_row_is_a_comment(self, tmp_path):
        first, second = self._predictions(tmp_path, "voting", lambda text: text + "\n")
        assert first == second

    def test_hmm_indented_comment_is_a_comment(self, tmp_path):
        def edit(text):
            lines = text.splitlines(keepends=True)
            return "".join(lines[:5] + ["  # an indented note\n"] + lines[5:])

        first, second = self._predictions(tmp_path, "hmm", edit)
        assert first == second

    def test_unknown_week_start_refused(self, tmp_path, capsys):
        _, model = voting_fixture()
        path = tmp_path / "m.csv"
        _save_model(model, str(path))
        path.write_text(path.read_text().replace("monday", "friday"))
        assert main(["baseline", "--method", "voting", "--load-model", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"sparsemob: data error: {path}: "
            "week_start must be one of ['monday', 'sunday']\n"
        )

    @pytest.mark.parametrize(
        "method, model, line",
        [
            ("voting", "# sparsemob voting v1\ngrid_lon,grid_lat,hour,stay,travel\n"
                       "1,2,3,4,5\n1,2,3,4,5.5\n", 4),
            ("hmm", "# sparsemob hmm v1\ntable,row,col,value\n\n"
                    "distance_edge,0,zero,100.0\n", 4),
        ],
    )
    def test_non_integer_cell_refused_with_its_line(
        self, tmp_path, capsys, method, model, line
    ):
        path = tmp_path / "m.csv"
        path.write_text(model)
        assert main(["baseline", "--method", method, "--load-model", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"sparsemob: data error: {path}:{line}: invalid literal")

    @pytest.mark.parametrize(
        "row, negative, key",
        [
            ("initial,1,0,", "initial,-1,0,", "('initial', -1, 0)"),
            ("emission,1,15,", "emission,1,-1,", "('emission', 1, -1)"),
        ],
    )
    def test_negative_index_refused_with_its_line(
        self, tmp_path, capsys, row, negative, key
    ):
        # numpy would wrap a negative index round to the cell it names from
        # the end, and the file would load as if it held the row it replaced
        path = tmp_path / "m.csv"
        _save_model(hmm_fixture(), str(path))
        lines = path.read_text().splitlines(keepends=True)
        (k,) = [k for k, line in enumerate(lines) if line.startswith(row)]
        lines[k] = lines[k].replace(row, negative)
        path.write_text("".join(lines))
        assert main(["baseline", "--method", "hmm", "--load-model", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"sparsemob: data error: {path}:{k + 1}: negative index in key {key}\n"
        )

    @pytest.mark.parametrize(
        "row, outside, message",
        [
            # numpy raised IndexError, reported without the line
            ("initial,1,0,", "initial,5,0,", "(5, 0) outside table 'initial' of shape (2, 1)"),
            ("emission,1,15,", "emission,1,16,",
             "(1, 16) outside table 'emission' of shape (2, 16)"),
            ("transition,1,1,", "transition,1,2,",
             "(1, 2) outside table 'transition' of shape (2, 2)"),
            # edge cells were sorted by index, so these loaded as if in place
            ("distance_edge,0,3,", "distance_edge,0,4,",
             "(0, 4) outside table 'distance_edge' of shape (1, 4)"),
            ("gap_edge,0,1,", "gap_edge,1,0,", "(1, 0) outside table 'gap_edge' of shape (1, 2)"),
        ],
    )
    def test_index_outside_table_refused_with_its_line(
        self, tmp_path, capsys, row, outside, message
    ):
        path = tmp_path / "m.csv"
        _save_model(hmm_fixture(), str(path))
        lines = path.read_text().splitlines(keepends=True)
        (k,) = [k for k, line in enumerate(lines) if line.startswith(row)]
        lines[k] = lines[k].replace(row, outside)
        path.write_text("".join(lines))
        assert main(["baseline", "--method", "hmm", "--load-model", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"sparsemob: data error: {path}:{k + 1}: index {message}\n"
        )

    def test_unknown_hmm_table_refused_with_its_line(self, tmp_path, capsys):
        # such a row was dropped without a word
        path = tmp_path / "m.csv"
        _save_model(hmm_fixture(), str(path))
        text = path.read_text() + "bogus,0,0,1.0\n"
        path.write_text(text)
        assert main(["baseline", "--method", "hmm", "--load-model", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"sparsemob: data error: {path}:{text.count(chr(10))}: unknown table 'bogus'\n"
        )

    @pytest.mark.parametrize(
        "method, repeated, key",
        [
            # a bin with other votes: the later row replaced the earlier one
            ("voting", "0,0,80,999,0", "(0, 0, 80)"),
            # an HMM cell with its own value passed the row-sum check
            ("hmm", "initial,1,0,0.3333333333333333", "('initial', 1, 0)"),
        ],
    )
    def test_repeated_key_refused_with_its_line(
        self, tmp_path, capsys, method, repeated, key
    ):
        path = tmp_path / "m.csv"
        _save_model(voting_fixture()[1] if method == "voting" else hmm_fixture(), str(path))
        text = path.read_text() + repeated + "\n"
        path.write_text(text)
        assert main(["baseline", "--method", method, "--load-model", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"sparsemob: data error: {path}:{text.count(chr(10))}: duplicate key {key}\n"
        )


#: the modules a start of the CLI loads only for the commands that run them
LAZY_MODULES = (
    "multiprocessing",
    "sparsemob.baselines",
    "sparsemob.evaluate",
    "sparsemob.oracle",
    "sparsemob.sds",
    "sparsemob.simulate",
)


def test_each_command_imports_only_what_it_runs(tmp_path):
    rec = write_records(tmp_path / "r.csv", [travel_fixture()])
    out = tmp_path / "lab.csv"
    code = f"""
import contextlib, io, sys
import sparsemob.cli
lazy = {LAZY_MODULES!r}
with contextlib.redirect_stderr(io.StringIO()):
    assert sparsemob.cli.main([]) == 1
print(*[m for m in lazy if m in sys.modules])
assert sparsemob.cli.main(["label", {rec!r}, "--workers", "1", "--out", {str(out)!r}]) == 0
print(*[m for m in lazy if m in sys.modules])
"""
    assert fresh_stdout(code) == ["", "sparsemob.sds"]
    assert [r[2] for r in label_lines(out)] == ["U", "T", "U"]
    # stats and prop1 import evaluate, where only the experiment starts a pool
    for command in ("stats", "prop1"):
        code = f"""
import sys
import sparsemob.cli
assert sparsemob.cli.main([{command!r}, {rec!r}, "--out", {str(out)!r}]) == 0
print("sparsemob.evaluate" in sys.modules, "multiprocessing" in sys.modules)
"""
        assert fresh_stdout(code) == ["True False"], command
    # label ignores --workers: more workers and devices start no pool
    trajs = [
        traj_from_meters(minutes(0, 10, 20), [0.0, 1000.0, 2000.0], device=f"d{i}")
        for i in range(3)
    ]
    rec = write_records(tmp_path / "three.csv", trajs)
    code = f"""
import sys
import sparsemob.cli
assert sparsemob.cli.main(["label", {rec!r}, "--workers", "3", "--out", {str(out)!r}]) == 0
print("multiprocessing" in sys.modules)
"""
    assert fresh_stdout(code) == ["False"]
    assert [r[2] for r in label_lines(out)] == ["U", "T", "U"] * 3


def fresh_stdout(code: str) -> list[str]:
    """The lines ``code`` prints in a fresh interpreter, so that no module
    this process loaded masks one; it must exit 0 and print no errors."""
    env = {**os.environ, "PYTHONPATH": str(Path(sparsemob.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout.splitlines()


SHARED_FLAGS = ["--delta-s", "--delta-t", "--seed", "--workers", "--timezone",
                "--ref-lat", "--strict", "--no-strict", "--config"]

#: each command's help line, and its own arguments in usage order
COMMANDS = {
    "label": ("label records with the sliding-window inference", ["--out", "input"]),
    "oracle": ("label records with the exhaustive reference oracle",
               ["--out", "--limit", "input"]),
    "stats": ("per-device sampling statistics",
              ["--out", "--sparsity-out", "--delta-t-grid", "input"]),
    "simulate": ("generate synthetic trajectories",
                 ["--out", "--labels-out", "--trajectories", "--duration", "--jitter"]),
    "resample": ("keep each record with a fixed probability",
                 ["--out", "--rate", "--labels", "--labels-out", "input"]),
    "evaluate": ("score predictions, or run the resampling experiment",
                 ["--predictions", "--truth", "--out", "--experiment", "--trajectories",
                  "--duration", "--jitter", "--rates"]),
    "prop1": ("leave-one-out dwell-locality check",
              ["--out", "--delta-s-grid", "--delta-t-grid", "input"]),
    "bounds": ("per-device recall lower bounds", ["--out", "input"]),
    "baseline": ("train or apply the voting / HMM baselines",
                 ["--method", "--train-records", "--train-labels", "--load-model",
                  "--save-model", "--records", "--out", "--week-start"]),
}


#: command lines for the parser: help, usage errors and settings that parse
PARSER_CASES = [
    [], ["-h"], ["--help"], ["labl"], ["-h", "label"], ["label"], ["label", "-h"],
    *[[command, "--help"] for command in COMMANDS],
    ["label", "x.csv", "--out", "y.csv"],
    ["label", "x.csv", "--out=y.csv", "--workers=3", "--strict", "--no-strict"],
    # left over after the command's own parse
    ["label", "x.csv", "--out", "y.csv", "--bogus"],
    ["label", "x.csv", "--out", "y.csv", "extra"],
    ["label", "x.csv", "--out", "y.csv", "--", "z"],
    ["evaluate", "--out", "o", "--experiment", "extra"],
    # an option before the command
    ["--seed", "1", "label", "x.csv", "--out", "y.csv"],
    ["--bogus", "label", "x.csv", "--out", "y.csv"],
    # abbreviations, --, and command words as values
    ["label", "x.csv", "--ou", "y.csv"],
    ["label", "x.csv", "--o", "y.csv"],
    ["label", "x.csv", "--out", "y.csv", "--he"],
    ["label", "--out", "y.csv", "--", "x.csv"],
    ["label", "label", "--out", "label"],
    ["prop1", "label", "--out", "o", "--delta-s-grid", "300,800"],
    # missing and badly typed values
    ["label", "x.csv"], ["label", "x.csv", "--out"], ["label", "--bogus"],
    ["label", "x.csv", "--out", "y.csv", "--delta-s", "wide"],
    ["label", "x.csv", "--out", "y.csv", "--bogus", "--delta-s", "wide"],
    ["label", "x.csv", "--out", "y.csv", "--timezone", "25:00"],
    ["simulate", "--trajectories", "x", "--out", "s"],
    ["evaluate", "--experiment", "--out", "r", "--rates", ","],
    ["baseline", "--method", "svm"],
    ["baseline", "--method", "voting", "--week", "sunday"],
    ["oracle", "r.csv", "--out", "o", "--limit", "x"],
    # settings that parse and are refused later
    ["label", "x.csv", "--out", "y", "--ref-lat", "nan"],
    ["simulate", "--out", "s", "--seed", "-1"],
]


class _Parsed(Exception):
    """Raised in place of running a command whose line parsed."""


def _settings(args) -> dict:
    # by repr, so that a NaN setting equals itself
    return {name: repr(value) for name, value in vars(args).items()}


class TestCommandLineSurface:
    @pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "none")
    def test_one_parser_per_call_as_the_full_tree(self, monkeypatch, capsys, argv):
        # main builds only the named command's parser, and the full tree only
        # for top-level help and usage errors; output, exit code and
        # settings must be those of the full tree
        def parsed(args):
            raise _Parsed(_settings(args))

        trees = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_resolve", parsed)
        monkeypatch.setattr(cli, "_build_parser", lambda c: trees.append(c) or build(c))
        try:
            got = [main(argv), None]
        except _Parsed as exc:
            got = [None, exc.args[0]]
        got += capsys.readouterr()
        command = next((a for a in argv if a in COMMANDS), None)
        try:
            want = [None, _settings(build(command).parse_args(argv))]
        except SystemExit as exc:
            want = [exc.code, None]
        want += capsys.readouterr()
        assert got == want
        top_level = argv[:1] != [command] or "unrecognized arguments" in want[3]
        assert trees == ([command] if top_level else [])

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_help_names_shared_and_own_arguments(self, capsys, command):
        assert main([command, "--help"]) == 0
        usage = capsys.readouterr().out.split("\n\n", 1)[0]
        assert usage.startswith(f"usage: sparsemob {command} [-h] ")
        named = re.findall(r"--[\w-]+|\binput\b", usage)
        assert named == SHARED_FLAGS + COMMANDS[command][1]

    def test_help_lists_every_command(self, capsys):
        assert main(["--help"]) == 0
        listed = re.findall(r"^    (\w+) +(.+)$", capsys.readouterr().out, re.M)
        assert listed == [(name, line) for name, (line, _) in COMMANDS.items()]

    def test_unknown_command_names_every_command(self, capsys):
        assert main(["labl"]) == 1
        choices = ", ".join(f"'{name}'" for name in COMMANDS)
        assert capsys.readouterr().err.endswith(
            f"sparsemob: error: argument command: invalid choice: 'labl' "
            f"(choose from {choices})\n"
        )
