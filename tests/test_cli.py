"""Command-line front end: parsing, ingest, subcommands, determinism."""
import csv
import io

import numpy as np
import pytest

from helpers import (
    minutes,
    reference_ingest,
    traj_from_meters,
    write_labels_csv as write_labels,
    write_records_csv as write_records,
)
from sparsemob.cli import (
    DataError,
    _device_rng,
    _fmt,
    _parse_bool,
    _parse_float_list,
    _parse_time_text,
    _parse_tz,
    ingest,
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

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="unrecognized"):
            _parse_time_text("yesterday", 0)


class TestSmallParsers:
    def test_timezone_forms(self):
        assert _parse_tz("28800") == 28800
        assert _parse_tz("+08:00") == 28800
        assert _parse_tz("-05:00") == -18000
        assert _parse_tz("+05:30") == 19800
        assert _parse_tz("0") == 0

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
        (traj,) = ingest(str(path), tz_offset=28800, strict=True)
        assert traj.device == "1370021020431"
        assert list(traj.times) == [TABLE_EPOCH]
        assert traj.lons[0] == 116.523625

    def test_time_formats_agree(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "time,lon,lat,mid\n"
            "1468317761,116.5,39.7,a\n"
            "18:02:41/07/12/2016,116.5,39.7,b\n"
            "2016-07-12T18:02:41,116.5,39.7,c\n"
            "2016-07-12T10:02:41+00:00,116.5,39.7,d\n"
        )
        trajs = ingest(str(path), tz_offset=28800, strict=True)
        assert [int(t.times[0]) for t in trajs] == [TABLE_EPOCH] * 4

    def test_empty_with_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("time,lon,lat,mid\n")
        assert ingest(str(path), tz_offset=0, strict=True) == []

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("")
        with pytest.raises(DataError, match="header"):
            ingest(str(path), tz_offset=0, strict=False)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("time,lon,lat\n0,0.0,0.0\n")
        with pytest.raises(DataError, match="mid"):
            ingest(str(path), tz_offset=0, strict=False)

    def test_rows_sorted_and_devices_ordered(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "time,lon,lat,mid\n"
            "600,0.1,0.0,zeta\n"
            "0,0.2,0.0,zeta\n"
            "5,0.3,0.0,alpha\n"
        )
        trajs = ingest(str(path), tz_offset=0, strict=True)
        assert [t.device for t in trajs] == ["alpha", "zeta"]
        assert list(trajs[1].times) == [0, 600]
        assert trajs[1].lons[0] == 0.2

    def test_duplicate_keeps_first_with_warning(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text(
            "time,lon,lat,mid\n"
            "100,0.001,0.0,d\n"
            "100,0.5,0.0,d\n"
            "200,0.002,0.0,d\n"
        )
        (traj,) = ingest(str(path), tz_offset=0, strict=False)
        assert list(traj.times) == [100, 200]
        assert traj.lons[0] == 0.001
        assert "duplicate" in capsys.readouterr().err

    def test_duplicate_fatal_in_strict_mode(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("time,lon,lat,mid\n100,0.0,0.0,d\n100,0.1,0.0,d\n")
        with pytest.raises(DataError, match=":3"):
            ingest(str(path), tz_offset=0, strict=True)

    def test_bad_coordinates_skipped_or_fatal(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text(
            "time,lon,lat,mid\n0,0.0,95.0,d\n60,0.0,0.0,d\n120,nan,0.0,d\n"
            "180,-180.5,0.0,d\n240,0.0,-91,d\n300,180,-90,d\n"
        )
        (traj,) = ingest(str(path), tz_offset=0, strict=False)
        assert list(traj.times) == [60, 300]
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
            ingest(str(path), tz_offset=0, strict=True)

    def test_warnings_capped_at_twenty_lines(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        bad = "".join(f"{i},0.0,95.0,d\n" for i in range(25))
        path.write_text("time,lon,lat,mid\n" + bad + "100,0.0,0.0,d\n")
        (traj,) = ingest(str(path), tz_offset=0, strict=False)
        assert list(traj.times) == [100]
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 21
        assert lines[0].startswith(f"warning: {path}:2: ")
        assert lines[19].startswith(f"warning: {path}:21: ")
        assert lines[20] == "warning: ... and 5 more row(s) skipped"
        with pytest.raises(DataError, match=r"25 bad row\(s\)(.|\n)*\.\.\. and 5 more$"):
            ingest(str(path), tz_offset=0, strict=True)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            ingest(str(tmp_path / "absent.csv"), tz_offset=0, strict=False)

    @pytest.mark.parametrize(
        "first, bad",
        [
            # parsed by column, rejected by the vector range check
            ("0", ["-5"]),
            # too large for int64, so parsed row by row
            ("0", ["99999999999999999999"]),
            # an ISO time sends the whole file down the per-row parser
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
        trajs = ingest(str(path), tz_offset=0, strict=False)
        assert [list(t.times) for t in trajs] == [[0, 60]]
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {issue} (row skipped)" for issue in issues
        ]
        with pytest.raises(DataError) as info:
            ingest(str(path), tz_offset=0, strict=True)
        assert str(info.value) == f"{len(bad)} bad row(s):\n" + "\n".join(issues)
        out = str(tmp_path / "o.csv")
        assert main(["label", str(path), "--timezone", "0", "--out", out]) == 0
        strict = ["label", str(path), "--timezone", "0", "--strict", "--out", out]
        assert main(strict) == 2
        assert f"data error: {len(bad)} bad row(s)" in capsys.readouterr().err

    def test_other_faults_worded_before_time_range(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text("time,lon,lat,mid\n-5,x,0.0,d\n-5,0.0,95.0,d\n-5,0.0,0.0, \n")
        assert ingest(str(path), tz_offset=0, strict=False) == []
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {path}:2: could not convert string to float: 'x' (row skipped)",
            f"warning: {path}:3: latitude out of range: 95.0 (row skipped)",
            f"warning: {path}:4: empty device id (row skipped)",
        ]

    def test_time_range_ends_at_int64_limit(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text(
            f"time,lon,lat,mid\n{2**63 - 1},0.0,0.0,d\n{2**63},0.0,0.0,d\n"
        )
        (traj,) = ingest(str(path), tz_offset=0, strict=False)
        assert list(traj.times) == [2**63 - 1]
        assert f"time out of range: {2**63}" in capsys.readouterr().err

    def test_rows_numbered_by_file_line_after_quoted_newline(self, tmp_path, capsys):
        path = tmp_path / "nl.csv"
        path.write_text(
            'time,lon,lat,mid\n0,0.0,0.0,"a\nb"\n\n# note\n60,0.0,95.0,d\n'
        )
        (traj,) = ingest(str(path), tz_offset=0, strict=False)
        assert traj.device == "a\nb"
        assert capsys.readouterr().err == (
            f"warning: {path}:6: latitude out of range: 95.0 (row skipped)\n"
        )

    def test_matches_per_row_reference(self, tmp_path, capsys):
        rng = np.random.default_rng(20240611)
        path = tmp_path / "r.csv"
        for case in range(400):
            path.write_text(random_records_text(rng))
            for strict in (False, True):
                got = ingest_outcome(ingest, path, strict, capsys)
                want = ingest_outcome(reference_ingest, path, strict, capsys)
                assert got == want, (case, strict, path.read_text())


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
    ingest parses them by column and rejects rows by its vector checks; the
    others mix in every other time form and short rows. Comment and blank
    lines fall between rows, and some files end with a rejected row followed
    by a valid row with the same device and time.
    """

    def pick(options: list[str]) -> str:
        # not rng.choice, whose numpy str array drops trailing NULs
        return options[int(rng.integers(len(options)))]

    plain = rng.random() < 0.5
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
            pick(_MIDS),
        ]
        if not plain and draw > 0.95:
            cells = cells[: int(rng.integers(1, 4))]
        lines.append(",".join(cells))
    if rng.random() < 0.3:
        lines += ["100,x,0.5,a", "100,0.5,0.5,a"]
    return "\n".join(lines) + "\n"


def ingest_outcome(fn, path, strict, capsys):
    """What an ingest returns, raises and prints, as comparable values."""
    try:
        trajs = fn(str(path), tz_offset=28800, strict=strict)
    except DataError as exc:
        return None, str(exc), capsys.readouterr().err
    got = [
        (t.device, t.times.tolist(), t.lons.tobytes(), t.lats.tobytes()) for t in trajs
    ]
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

    def test_tail_flush_toggle(self, tmp_path):
        dense = traj_from_meters(minutes(0, 10, 25, 40, 50), [0.0] * 5, device="d")
        rec = write_records(tmp_path / "r.csv", [dense])
        on = tmp_path / "on.csv"
        off = tmp_path / "off.csv"
        assert main(["label", rec, "--out", str(on)]) == 0
        assert main(["label", rec, "--tail-flush", "off", "--out", str(off)]) == 0
        assert [r[2] for r in label_lines(on)] == ["S"] * 5
        assert [r[2] for r in label_lines(off)] == ["U"] * 5

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
        rec = write_records(tmp_path / "r.csv", [travel_fixture()])
        text = (tmp_path / "r.csv").read_text().replace(",t\n", ',"a,b"\n')
        (tmp_path / "r.csv").write_text(text)
        out = tmp_path / "lab.csv"
        assert main(["label", rec, "--out", str(out)]) == 0
        want = io.StringIO()
        want.write("# sparsemob labels v1\n")
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["mid", "time", "label"])
        for row in [("a,b", 0, "U"), ("a,b", 600, "T"), ("a,b", 1200, "U")]:
            writer.writerow([_fmt(v) for v in row])
        assert out.read_bytes() == want.getvalue().encode()
        assert b'"a,b",600,T\n' in out.read_bytes()


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


class TestExitCodes:
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
        ],
    )
    def test_bad_walk_settings_are_usage_errors(self, tmp_path, capsys, argv):
        out = tmp_path / "o.csv"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sparsemob: error: ")
        assert err.count("\n") == 1
        assert not out.exists()

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

    def test_labels_flags_must_pair(self, tmp_path):
        rec = write_records(tmp_path / "r.csv", [travel_fixture()])
        lab = write_labels(tmp_path / "l.csv", [("t", 0, "U")])
        code = main(
            ["resample", rec, "--rate", "0.5", "--labels", lab, "--out", str(tmp_path / "o")]
        )
        assert code == 1

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

    def test_output_ingestible(self, tmp_path):
        rec = tmp_path / "rec.csv"
        assert main(["simulate", "--trajectories", "2", "--duration", "30000", "--out", str(rec)]) == 0
        trajs = ingest(str(rec), tz_offset=0, strict=True)
        assert [t.device for t in trajs] == ["sim00000", "sim00001"]
        assert all(len(t) > 0 for t in trajs)


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

    def test_tail_flush_off_keeps_stay_bound_in_unit_interval(self, tmp_path):
        # the first dwell never escapes at delta_s; its dense-window
        # membership must still count in the stay denominator
        traj = traj_from_meters(
            [0, 600, 1200, 1800, 2400, 10000, 11800, 12000],
            [0, 0, 0, 0, 400, 0, 0, 5000],
            device="f",
        )
        rec = write_records(tmp_path / "r.csv", [traj])
        out = tmp_path / "b.csv"
        assert main(["bounds", rec, "--out", str(out), "--tail-flush", "off"]) == 0
        row = [l for l in out.read_text().splitlines() if l.startswith("f,")][0]
        assert row == f"f,{6 / 7!r},1.0"


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
