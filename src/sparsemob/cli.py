"""Batch command-line front end.

Subcommands cover labeling, the exhaustive oracle, dataset statistics,
synthetic data generation, resampling, metric evaluation, the leave-one-out
consistency harness, recall bounds, and the baseline models. Conventions
shared by every command:

* CSV in, CSV out, in UTF-8: text that does not decode, or that ``csv``
  cannot tokenize, is a data error. Blank rows and rows whose first cell
  starts with ``#`` are comments. Every emitted file begins with a version
  comment line (``# sparsemob <kind> v1``) and uses LF line endings; rows
  are sorted deterministically, floats are written in shortest round-trip
  form, and undefined values appear as ``NA``. Rerunning a command with
  identical inputs, flags, and seed reproduces the output byte for byte,
  for any worker count.
* Records CSV columns: time, lon, lat, mid; a device id may not be blank,
  start with ``#`` (label CSVs put it first) or hold a carriage return
  without a line feed (the label writer would leave it unquoted).
  Time accepts epoch seconds, ISO-8601, or HH:MM:SS/MM/DD/YYYY; wall-clock
  forms without an explicit offset are interpreted in the configured
  timezone.
* Label CSV columns: mid, time, label with label in {S, T, U}.
* Exit codes: 0 success, 1 usage error, 2 data error.
* A config file of key=value lines can supply any shared flag (keys
  delta_s, delta_t, seed, workers, tail_flush, timezone, ref_lat, strict);
  explicit flags win over the file.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import math
import multiprocessing
import sys
from dataclasses import dataclass
from datetime import datetime, timezone as _tz
from functools import partial
from operator import itemgetter
from pathlib import Path

import numpy as np

from .baselines import (
    BucketConfig,
    DEFAULT_TZ_OFFSET,
    HmmModel,
    VotingModel,
    hmm_predict,
    hmm_train,
    voting_train,
)
from .core import (
    _CODE_BY_LETTER,
    _LETTERS,
    LABEL_UNLABELED,
    MobilityParams,
    Trajectory,
)
from .evaluate import (
    ConfusionCounts,
    DEFAULT_RATES,
    ExperimentConfig,
    MetricsReport,
    device_stats,
    experiment_trajectory,
    prop1_violation_rate,
    resampling_experiment,
    sparsity_report,
)
from .oracle import ORACLE_LIMIT_DEFAULT, OracleLimitError, exact_label
from .sds import recall_lower_bounds, sds_label
from .simulate import CtrwConfig, check_supports, resample

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    """Bad flag combination detected after parsing."""


class DataError(Exception):
    """Unreadable, malformed, or inconsistent input data."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems by default; this tool
    # reserves 2 for data errors, so remap to 1
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass(frozen=True)
class RunConfig:
    """Shared settings every subcommand resolves before running."""

    params: MobilityParams
    seed: int
    workers: int
    tail_flush: bool
    tz_offset: int
    ref_lat: float | None
    strict: bool

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


# ---------------------------------------------------------------- parsing


def _parse_tz(text: str) -> int:
    """Timezone as signed seconds east of UTC, or +HH:MM form."""
    t = text.strip()
    if ":" in t:
        sign = -1 if t.startswith("-") else 1
        hh, mm = t.lstrip("+-").split(":", 1)
        return sign * (int(hh) * 3600 + int(mm) * 60)
    return int(t)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("on", "true", "yes", "1"):
        return True
    if t in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"expected on/off, got {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(p) for p in text.split(",") if p.strip())
    if not values:
        raise ValueError("empty list")
    return values


def _parse_time_text(text: str, tz_offset: int) -> int:
    t = text.strip()
    try:
        return int(t)
    except ValueError:
        pass
    try:
        f = float(t)
    except ValueError:
        pass
    else:
        if f.is_integer():
            return int(f)
        raise ValueError(f"non-integer epoch time {text!r}")
    try:
        dt = datetime.strptime(t, "%H:%M:%S/%m/%d/%Y")
    except ValueError:
        try:
            dt = datetime.fromisoformat(t)
        except ValueError:
            raise ValueError(f"unrecognized time {text!r}") from None
    if dt.tzinfo is not None:
        return int(dt.timestamp())
    return int(dt.replace(tzinfo=_tz.utc).timestamp()) - tz_offset


def _load_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _resolve(args: argparse.Namespace) -> RunConfig:
    cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(name: str, cast, default):
        value = getattr(args, name, None)
        if value is not None:
            return value
        if name in cfg:
            try:
                return cast(cfg[name])
            except ValueError as exc:
                raise DataError(f"config key {name}: {exc}") from None
        return default

    try:
        params = MobilityParams(
            delta_s=pick("delta_s", float, 800.0),
            delta_t=pick("delta_t", float, 1800.0),
        )
        tail_flush = args.tail_flush
        if tail_flush is not None:
            tail_flush = _parse_bool(tail_flush)
        elif "tail_flush" in cfg:
            tail_flush = _parse_bool(cfg["tail_flush"])
        else:
            tail_flush = True
        return RunConfig(
            params=params,
            seed=pick("seed", int, 0),
            workers=pick("workers", int, 1),
            tail_flush=tail_flush,
            tz_offset=pick("timezone", _parse_tz, DEFAULT_TZ_OFFSET),
            ref_lat=pick("ref_lat", float, None),
            strict=pick("strict", _parse_bool, False),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# ------------------------------------------------------------------- I/O


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, (float, np.floating)):
        f = float(value)
        if math.isnan(f):
            return "NA"
        return repr(f)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _fmt_rows(rows) -> list[list[str]]:
    """Cells of rows that may hold None, NaN or numpy scalars."""
    return [[_fmt(v) for v in row] for row in rows]


def _write_csv(path: str, kind: str, header: list[str], rows) -> None:
    """Write rows whose cells are str, Python int or finite Python float,
    which ``csv`` writes as ``_fmt`` would; other rows go through
    ``_fmt_rows`` first."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# sparsemob {kind} v1\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


#: the end of a labels CSV row, indexed by label code
_LABEL_TAILS = tuple(f",{letter}\n" for letter in _LETTERS)


def _label_text(device: str, times: np.ndarray, codes: np.ndarray) -> str:
    """One device's rows of a labels CSV, as ``csv.writer`` would write them:
    the device cell is formatted once, each time with ``str``."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([device, ""])
    prefix = buf.getvalue()[:-1]  # the cell and its comma
    tails = [_LABEL_TAILS[c] for c in codes.tolist()]
    return "".join([prefix + str(t) + tail for t, tail in zip(times.tolist(), tails)])


def _write_labels(path: str, texts) -> None:
    """Write a labels CSV from each device's ``_label_text``, in order."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("# sparsemob labels v1\nmid,time,label\n")
            fh.writelines(texts)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def _numbered_rows(path: str, text: str) -> tuple[list[list[str]], list[int]]:
    """The ``csv`` rows of ``text`` and the line each starts on, parsed row
    by row: for text whose quoted fields hold line breaks, or that ``csv``
    rejects (reported with the line the bad row starts on)."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, lines, start = [], [], 1
    try:
        for row in reader:
            rows.append(row)
            lines.append(start)
            start = reader.line_num + 1
    except csv.Error as exc:
        raise DataError(f"{path}:{start}: {exc}") from None
    return rows, lines


def _is_comment(row: list[str]) -> bool:
    return not row or row[0].lstrip().startswith("#")


def _read_table(path: str, required: tuple[str, ...]):
    """The index of each required column of a commented UTF-8 CSV, its data
    rows, and the file line each of those rows starts on.

    The file is read once and tokenized by one ``csv`` pass. When that pass
    reads one line per row, row ``k`` starts on line ``k + 1``; only when a
    quoted field holds a line break is the same text parsed again, row by
    row, to count the lines. Blank rows and rows whose first cell starts
    with ``#`` are comments.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        table = list(reader)
    except csv.Error:
        table = None  # the row-by-row pass reports the line its row starts on
    if table is None or reader.line_num != len(table):
        table, lines = _numbered_rows(path, text)
    else:
        lines = list(range(1, len(table) + 1))
    head = next((k for k, row in enumerate(table) if not _is_comment(row)), None)
    if head is None:
        raise DataError(f"{path}: missing header row")
    header = [c.strip() for c in table[head]]
    index: dict[str, int] = {}
    for name in required:
        if name not in header:
            raise DataError(f"{path}: missing required column {name!r}")
        index[name] = header.index(name)
    rows, lines = table[head + 1 :], lines[head + 1 :]
    try:
        # past the header, comments are rare: look for one in C first
        clean = "#" not in "".join(map(itemgetter(0), rows))
    except IndexError:  # a blank row
        clean = False
    if not clean:
        keep = [k for k, row in enumerate(rows) if not _is_comment(row)]
        rows, lines = [rows[k] for k in keep], [lines[k] for k in keep]
    return index, rows, lines


#: bad rows listed one per line, in the strict error or as warnings
MAX_BAD_ROWS_SHOWN = 20


def _report_issues(issues: list[str], strict: bool) -> None:
    if not issues:
        return
    hidden = len(issues) - MAX_BAD_ROWS_SHOWN
    if strict:
        shown = "\n".join(issues[:MAX_BAD_ROWS_SHOWN])
        more = f"\n... and {hidden} more" if hidden > 0 else ""
        raise DataError(f"{len(issues)} bad row(s):\n{shown}{more}")
    for issue in issues[:MAX_BAD_ROWS_SHOWN]:
        print(f"warning: {issue} (row skipped)", file=sys.stderr)
    if hidden > 0:
        print(f"warning: ... and {hidden} more row(s) skipped", file=sys.stderr)


def _id_fault(mid: str) -> str | None:
    """Why ingest refuses the (stripped) device id ``mid``, or None."""
    if not mid:
        return "empty device id"
    if mid.startswith("#"):
        # every labels CSV puts mid first, where it would read as a comment
        return f"device id starts with '#': {mid!r}"
    if "\r" in mid and "\n" not in mid:
        # labels CSVs end rows in \n, so csv.writer quotes a \n but not a \r
        return f"device id holds a carriage return but no line feed: {mid!r}"
    return None


def _parse_row(
    row: list[str], index: dict[str, int], tz_offset: int
) -> tuple[str, int, float, float]:
    """One records row as (mid, time, lon, lat). Raises ValueError or
    IndexError with the message ingest reports for the row."""
    mid = row[index["mid"]].strip()
    fault = _id_fault(mid)
    if fault:
        raise ValueError(fault)
    t = _parse_time_text(row[index["time"]], tz_offset)
    lon = float(row[index["lon"]])
    lat = float(row[index["lat"]])
    # written so that NaN fails them too
    if not -180.0 <= lon <= 180.0:
        raise ValueError(f"longitude out of range: {lon}")
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"latitude out of range: {lat}")
    # last, so a row with another fault keeps that fault's message
    if not 0 <= t < 2**63:
        raise ValueError(f"time out of range: {t}")
    return mid, t, lon, lat


def _parse_rows(
    path: str,
    rows: list[list[str]],
    lines: list[int],
    index: dict[str, int],
    tz_offset: int,
    issues: list[str],
) -> list[tuple[int, str, int, float, float]]:
    """(lineno, mid, time, lon, lat) of each row that parses; a line-numbered
    issue for each one that does not."""
    parsed = []
    for lineno, row in zip(lines, rows):
        try:
            parsed.append((lineno, *_parse_row(row, index, tz_offset)))
        except (ValueError, IndexError) as exc:
            issues.append(f"{path}:{lineno}: {exc}")
    return parsed


def _record_columns(
    path: str,
    index: dict[str, int],
    rows: list[list[str]],
    lines: list[int],
    tz_offset: int,
    issues: list[str],
):
    """The accepted rows of a records table as columns.

    Returns ``keys``, the device ids in ``str`` order (a numpy ``U`` array
    would drop trailing NULs), and the arrays lines, devices (indices into
    ``keys``), times, lons and lats, in line order. Each column is parsed
    with one ``int``/``float`` call per cell and checked as a vector; only
    the rows those checks reject are parsed again, row by row, for their
    messages. A file with a short row, or a time or coordinate cell that
    ``int``/``float`` cannot read or an int64 cannot hold, is parsed row by
    row throughout.
    """
    ti, xi, yi, mi = (index[name] for name in ("time", "lon", "lat", "mid"))
    try:
        times = np.array(list(map(int, map(itemgetter(ti), rows))), dtype=np.int64)
        lons = np.array(list(map(float, map(itemgetter(xi), rows))))
        lats = np.array(list(map(float, map(itemgetter(yi), rows))))
        mids = list(map(str.strip, map(itemgetter(mi), rows)))
    except (ValueError, IndexError, OverflowError):
        parsed = _parse_rows(path, rows, lines, index, tz_offset, issues)
        lines, mids, times, lons, lats = ([r[k] for r in parsed] for k in range(5))
        times = np.array(times, dtype=np.int64)
        lons = np.array(lons, dtype=np.float64)
        lats = np.array(lats, dtype=np.float64)
    keys = sorted(set(mids))
    code = {mid: k for k, mid in enumerate(keys)}
    devices = np.array([code[mid] for mid in mids], dtype=np.int64)
    lines = np.array(lines, dtype=np.int64)
    # the checks of _parse_row, written so that NaN fails them too; the rows
    # that _parse_row accepted pass them all
    ok = (np.abs(lons) <= 180.0) & (np.abs(lats) <= 90.0) & (times >= 0)
    # the ids _id_fault refuses, checked once per id
    refused = [k for k, mid in enumerate(keys) if _id_fault(mid)]
    if refused:
        ok &= ~np.isin(devices, refused)
    if not ok.all():
        bad = np.flatnonzero(~ok).tolist()
        _parse_rows(
            path, [rows[i] for i in bad], lines[bad].tolist(), index, tz_offset, issues
        )
        lines, devices, times, lons, lats = (
            column[ok] for column in (lines, devices, times, lons, lats)
        )
    return keys, lines, devices, times, lons, lats


def ingest(path: str, *, tz_offset: int, strict: bool) -> list[Trajectory]:
    """Read a records CSV into per-device trajectories.

    Groups by device id, sorts by time, and rejects rows that fail to parse,
    have a blank device id or one starting with ``#``, lie out of range
    (coordinates, or a time outside 0 <= t < 2**63) or duplicate a (device,
    time) pair, each with a line-numbered diagnostic:
    parse rejections in line order, then duplicates in device, time and
    line order. Rejections are warnings unless strict mode makes them fatal.
    Devices come back in lexicographic id order.

    Times in plain integer epoch seconds take a columnar path. A file with
    any other time form (ISO-8601, clock form, ``1468317761.0``, garbage),
    an unreadable coordinate or a short row is parsed row by row; so are the
    rows that the columnar range checks reject, to word their diagnostics.
    """
    index, rows, lines = _read_table(path, ("time", "lon", "lat", "mid"))
    issues: list[str] = []
    keys, lines, devices, times, lons, lats = _record_columns(
        path, index, rows, lines, tz_offset, issues
    )
    order = np.lexsort((lines, times, devices))
    devices, times = devices[order], times[order]
    dup = np.zeros(len(order), dtype=bool)
    dup[1:] = (devices[1:] == devices[:-1]) & (times[1:] == times[:-1])
    for i in np.flatnonzero(dup).tolist():
        issues.append(
            f"{path}:{int(lines[order[i]])}: duplicate record for device "
            f"{keys[devices[i]]!r} at time {int(times[i])}"
        )
    order, devices, times = order[~dup], devices[~dup], times[~dup]
    lons, lats = lons[order], lats[order]
    starts = np.flatnonzero(np.diff(devices, prepend=-1)).tolist()
    trajectories = [
        Trajectory(
            device=keys[devices[a]],
            times=times[a:b],
            lons=lons[a:b],
            lats=lats[a:b],
        )
        for a, b in zip(starts, starts[1:] + [len(devices)])
    ]
    _report_issues(issues, strict)
    return trajectories


def _read_labels(path: str) -> dict[tuple[str, int], int]:
    """Label codes keyed by (mid, time), in file order."""
    index, rows, lines = _read_table(path, ("mid", "time", "label"))
    out: dict[tuple[str, int], int] = {}
    for lineno, row in zip(lines, rows):
        try:
            mid = row[index["mid"]].strip()
            t = int(row[index["time"]])
            letter = row[index["label"]].strip()
        except (ValueError, IndexError) as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        code = _CODE_BY_LETTER.get(letter)
        if code is None:
            raise DataError(f"{path}:{lineno}: unknown label letter: {letter!r}")
        if (mid, t) in out:
            raise DataError(f"{path}:{lineno}: duplicate label for ({mid!r}, {t})")
        out[mid, t] = code
    return out


def _aligned_labels(
    traj: Trajectory, label_map: dict[tuple[str, int], int], *, strict: bool
) -> np.ndarray:
    """Label codes aligned to a trajectory's records; missing entries
    abstain (or fail in strict mode)."""
    out = np.full(len(traj), LABEL_UNLABELED, dtype=np.int8)
    for i, t in enumerate(traj.times):
        key = (traj.device, int(t))
        if key in label_map:
            out[i] = label_map[key]
        elif strict:
            raise DataError(f"no label for record ({traj.device!r}, {int(t)})")
    return out


def _device_rng(seed: int, device: str) -> np.random.Generator:
    # device ids are strings; hash to an integer stream id so per-device
    # randomness is independent of dataset composition and order
    digest = hashlib.sha256(device.encode("utf-8")).digest()
    return np.random.default_rng((seed, int.from_bytes(digest[:8], "big")))


# ------------------------------------------------------------- commands


def _record_rows(traj: Trajectory) -> list[tuple[int, float, float, str]]:
    """(time, lon, lat, mid) rows of a records CSV for one trajectory; its
    coordinates are finite, so ``csv`` writes them as ``_fmt`` would."""
    return list(
        zip(
            traj.times.tolist(),
            traj.lons.tolist(),
            traj.lats.tolist(),
            [traj.device] * len(traj),
        )
    )


def _sds_text(run: RunConfig, traj: Trajectory) -> str:
    labeled = sds_label(
        traj, run.params, ref_lat=run.ref_lat, tail_flush=run.tail_flush
    )
    return _label_text(traj.device, traj.times, labeled.labels)


def run_label(args: argparse.Namespace, run: RunConfig) -> int:
    trajectories = ingest(args.input, tz_offset=run.tz_offset, strict=run.strict)
    worker = partial(_sds_text, run)
    if run.workers > 1 and len(trajectories) > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(run.workers) as pool:
            # ordered map keeps the merge deterministic for any worker count
            texts = pool.map(worker, trajectories)
    else:
        texts = [worker(t) for t in trajectories]
    _write_labels(args.out, texts)
    return EXIT_OK


def run_oracle(args: argparse.Namespace, run: RunConfig) -> int:
    trajectories = ingest(args.input, tz_offset=run.tz_offset, strict=run.strict)
    texts = []
    for traj in trajectories:
        try:
            labels = exact_label(
                traj, run.params, ref_lat=run.ref_lat, limit=args.limit
            )
        except OracleLimitError as exc:
            raise DataError(f"device {traj.device!r}: {exc}") from None
        texts.append(_label_text(traj.device, traj.times, labels.labels))
    _write_labels(args.out, texts)
    return EXIT_OK


def run_stats(args: argparse.Namespace, run: RunConfig) -> int:
    trajectories = ingest(args.input, tz_offset=run.tz_offset, strict=run.strict)
    rows = []
    for traj in trajectories:
        s = device_stats(traj, run.params)
        rows.append((s.device, s.records, s.span_seconds, s.mean_gap, s.coverage))
    _write_csv(
        args.out,
        "stats",
        ["mid", "records", "span_seconds", "mean_gap", "coverage"],
        _fmt_rows(rows),
    )
    if args.sparsity_out:
        if not trajectories:
            raise DataError("empty dataset: nothing to report sparsity on")
        delta_ts = list(args.delta_t_grid) if args.delta_t_grid else None
        report = sparsity_report(
            trajectories, run.params, delta_ts, ref_lat=run.ref_lat,
            tail_flush=run.tail_flush,
        )
        out_rows = []
        for b in range(len(report.device_counts)):
            out_rows.append(
                (
                    "gap_bin",
                    report.xi_edges[b],
                    report.xi_edges[b + 1],
                    None,
                    report.device_counts[b],
                    report.mean_records[b],
                    report.stay_fraction[b],
                    report.travel_fraction[b],
                    report.unlabeled_fraction[b],
                )
            )
        for dt in sorted(report.coverage_counts):
            counts = report.coverage_counts[dt]
            for b in range(len(counts)):
                out_rows.append(
                    (
                        "coverage_bin",
                        report.coverage_edges[b],
                        report.coverage_edges[b + 1],
                        dt,
                        counts[b],
                        None,
                        None,
                        None,
                        None,
                    )
                )
        _write_csv(
            args.sparsity_out,
            "sparsity",
            [
                "table",
                "lo",
                "hi",
                "delta_t",
                "devices",
                "mean_records",
                "stay_fraction",
                "travel_fraction",
                "unlabeled_fraction",
            ],
            _fmt_rows(out_rows),
        )
    return EXIT_OK


def _experiment_config(
    args: argparse.Namespace, run: RunConfig, *, with_truth: bool
) -> ExperimentConfig:
    """The experiment settings; with ``with_truth``, only settings whose
    continuous truth labels are exact (see ``check_supports``)."""
    try:
        walk = CtrwConfig(duration=args.duration, jitter_radius=args.jitter)
        config = ExperimentConfig(
            params=run.params,
            walk=walk,
            trajectories=args.trajectories,
            rates=tuple(args.rates) if getattr(args, "rates", None) else DEFAULT_RATES,
            seed=run.seed,
            workers=run.workers,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if with_truth:
        try:
            check_supports(walk, run.params)
        except ValueError as exc:
            raise DataError(f"settings cannot guarantee exact truth: {exc}") from None
    return config


def run_simulate(args: argparse.Namespace, run: RunConfig) -> int:
    with_truth = args.labels_out is not None
    config = _experiment_config(args, run, with_truth=with_truth)
    record_rows = []
    label_texts = []
    for i in range(config.trajectories):
        path, traj, truth = experiment_trajectory(config, i, with_truth=with_truth)
        record_rows.extend(_record_rows(traj))
        if truth is not None:
            label_texts.append(_label_text(traj.device, traj.times, truth))
    _write_csv(args.out, "records", ["time", "lon", "lat", "mid"], record_rows)
    if with_truth:
        _write_labels(args.labels_out, label_texts)
    return EXIT_OK


def run_resample(args: argparse.Namespace, run: RunConfig) -> int:
    if (args.labels is None) != (args.labels_out is None):
        raise UsageError("--labels and --labels-out must be used together")
    if not 0.0 <= args.rate <= 1.0:
        raise UsageError(f"--rate must lie in [0, 1], got {args.rate}")
    trajectories = ingest(args.input, tz_offset=run.tz_offset, strict=run.strict)
    label_map = _read_labels(args.labels) if args.labels else {}
    record_rows = []
    label_texts = []
    for traj in trajectories:
        rng = _device_rng(run.seed, traj.device)
        sub, keep = resample(traj, args.rate, rng)
        if args.labels:
            labels = _aligned_labels(traj, label_map, strict=run.strict)
            label_texts.append(_label_text(sub.device, sub.times, labels[keep]))
        record_rows.extend(_record_rows(sub))
    _write_csv(args.out, "records", ["time", "lon", "lat", "mid"], record_rows)
    if args.labels_out:
        _write_labels(args.labels_out, label_texts)
    return EXIT_OK


def run_evaluate(args: argparse.Namespace, run: RunConfig) -> int:
    if args.experiment:
        config = _experiment_config(args, run, with_truth=True)
        outcomes = resampling_experiment(config)
        rows = [
            (
                o.rate,
                o.mean_gap,
                o.stay_precision,
                o.stay_recall,
                o.travel_precision,
                o.travel_recall,
                o.accuracy,
                o.f1_accuracy,
            )
            for o in outcomes
        ]
        _write_csv(
            args.out,
            "rates",
            [
                "rate",
                "mean_gap",
                "stay_precision",
                "stay_recall",
                "travel_precision",
                "travel_recall",
                "accuracy",
                "f1_accuracy",
            ],
            _fmt_rows(rows),
        )
        return EXIT_OK
    if not args.predictions or not args.truth:
        raise UsageError("evaluate needs --predictions and --truth (or --experiment)")
    predicted_map = _read_labels(args.predictions)
    truth_map = _read_labels(args.truth)
    if predicted_map.keys() != truth_map.keys():
        raise DataError(
            "prediction rows do not match truth rows "
            f"({len(predicted_map)} vs {len(truth_map)} records)"
        )
    # in truth order: the confusion counts are sums, so order does not matter
    predicted = np.array([predicted_map[k] for k in truth_map], dtype=np.int8)
    truth = np.array(list(truth_map.values()), dtype=np.int8)
    try:
        counts = ConfusionCounts.from_labels(truth, predicted)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    report = MetricsReport.from_counts(counts)
    rows = [
        ("true_stay", counts.true_stay),
        ("false_stay", counts.false_stay),
        ("true_travel", counts.true_travel),
        ("false_travel", counts.false_travel),
        ("unlabeled_stay", counts.unlabeled_stay),
        ("unlabeled_travel", counts.unlabeled_travel),
        ("stay_precision", report.stay_precision),
        ("stay_recall", report.stay_recall),
        ("travel_precision", report.travel_precision),
        ("travel_recall", report.travel_recall),
        ("accuracy", report.accuracy),
        ("f1_accuracy", report.f1_accuracy),
    ]
    _write_csv(args.out, "metrics", ["metric", "value"], _fmt_rows(rows))
    return EXIT_OK


def run_prop1(args: argparse.Namespace, run: RunConfig) -> int:
    trajectories = ingest(args.input, tz_offset=run.tz_offset, strict=run.strict)
    grid_s = args.delta_s_grid or (run.params.delta_s,)
    grid_t = args.delta_t_grid or (run.params.delta_t,)
    try:
        grid = [MobilityParams(s, t) for s in grid_s for t in grid_t]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    try:
        results = prop1_violation_rate(trajectories, grid, ref_lat=run.ref_lat)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    rows = [
        (p.delta_s, p.delta_t, results[p].tested, results[p].violations, results[p].rate)
        for p in grid
    ]
    _write_csv(
        args.out,
        "prop1",
        ["delta_s", "delta_t", "tested", "violations", "rate"],
        _fmt_rows(rows),
    )
    return EXIT_OK


def run_bounds(args: argparse.Namespace, run: RunConfig) -> int:
    trajectories = ingest(args.input, tz_offset=run.tz_offset, strict=run.strict)
    rows = []
    for traj in trajectories:
        b = recall_lower_bounds(
            traj, run.params, ref_lat=run.ref_lat, tail_flush=run.tail_flush
        )
        rows.append((traj.device, b.stay_bound, b.travel_bound))
    _write_csv(
        args.out, "bounds", ["mid", "stay_bound", "travel_bound"], _fmt_rows(rows)
    )
    return EXIT_OK


def run_baseline(args: argparse.Namespace, run: RunConfig) -> int:
    training = args.train_records is not None
    if training != (args.train_labels is not None):
        raise UsageError("--train-records and --train-labels must be used together")
    if not training and not args.load_model:
        raise UsageError("baseline needs either training inputs or --load-model")
    if args.records and not args.out:
        raise UsageError("--records requires --out for the predictions")

    model: VotingModel | HmmModel
    if training:
        trajectories = ingest(
            args.train_records, tz_offset=run.tz_offset, strict=run.strict
        )
        label_map = _read_labels(args.train_labels)
        pairs = [
            (traj, _aligned_labels(traj, label_map, strict=run.strict))
            for traj in trajectories
        ]
        try:
            if args.method == "voting":
                model = voting_train(
                    pairs,
                    seed=run.seed,
                    week_start=args.week_start,
                    tz_offset=run.tz_offset,
                )
            else:
                model = hmm_train(pairs, BucketConfig(), ref_lat=run.ref_lat)
        except ValueError as exc:
            raise DataError(str(exc)) from None
    else:
        try:
            if args.method == "voting":
                model = VotingModel.load(args.load_model)
            else:
                model = HmmModel.load(args.load_model)
        except (OSError, ValueError, KeyError, csv.Error) as exc:
            raise DataError(f"cannot load model {args.load_model}: {exc}") from None

    if args.save_model:
        try:
            model.save(args.save_model)
        except OSError as exc:
            raise DataError(f"cannot write {args.save_model}: {exc}") from None

    if args.records:
        query = ingest(args.records, tz_offset=run.tz_offset, strict=run.strict)
        texts = []
        for traj in query:
            if args.method == "voting":
                codes = model.predict(traj)
            else:
                codes = hmm_predict(model, traj, ref_lat=run.ref_lat)
            texts.append(_label_text(traj.device, traj.times, codes))
        _write_labels(args.out, texts)
    return EXIT_OK


# ------------------------------------------------------------ arg wiring


def _build_parser() -> _Parser:
    shared = _Parser(add_help=False)
    shared.add_argument("--delta-s", dest="delta_s", type=float, default=None,
                        help="stay spatial threshold in meters (default 800)")
    shared.add_argument("--delta-t", dest="delta_t", type=float, default=None,
                        help="stay temporal threshold in seconds (default 1800)")
    shared.add_argument("--seed", type=int, default=None,
                        help="root seed for all randomness (default 0)")
    shared.add_argument("--workers", type=int, default=None,
                        help="worker processes for per-device parallelism")
    shared.add_argument("--tail-flush", dest="tail_flush", choices=("on", "off"),
                        default=None,
                        help="flush a qualifying trailing stay window (default on)")
    shared.add_argument("--timezone", type=_parse_tz, default=None,
                        help="timezone as seconds east of UTC or +HH:MM "
                             "(default +08:00)")
    shared.add_argument("--ref-lat", dest="ref_lat", type=float, default=None,
                        help="projection reference latitude (default: per-device "
                             "first record)")
    shared.add_argument("--strict", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="make data diagnostics fatal")
    shared.add_argument("--config", default=None,
                        help="key=value file supplying any shared flag")

    parser = _Parser(prog="sparsemob",
                     description="Stay/travel inference on sparse trajectories.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("label", parents=[shared],
                       help="label records with the sliding-window inference")
    p.add_argument("input", help="records CSV")
    p.add_argument("--out", required=True, help="labels CSV to write")
    p.set_defaults(func=run_label)

    p = sub.add_parser("oracle", parents=[shared],
                       help="label records with the exhaustive reference oracle")
    p.add_argument("input", help="records CSV")
    p.add_argument("--out", required=True, help="labels CSV to write")
    p.add_argument("--limit", type=int, default=ORACLE_LIMIT_DEFAULT,
                   help="per-device record cap for the quadratic oracle")
    p.set_defaults(func=run_oracle)

    p = sub.add_parser("stats", parents=[shared],
                       help="per-device sampling statistics")
    p.add_argument("input", help="records CSV")
    p.add_argument("--out", required=True, help="per-device stats CSV")
    p.add_argument("--sparsity-out", dest="sparsity_out", default=None,
                   help="also write binned sparsity/label-mix report here")
    p.add_argument("--delta-t-grid", dest="delta_t_grid", type=_parse_float_list,
                   default=None,
                   help="comma-separated slicing thresholds for coverage bins")
    p.set_defaults(func=run_stats)

    p = sub.add_parser("simulate", parents=[shared],
                       help="generate synthetic trajectories")
    p.add_argument("--out", required=True, help="records CSV to write")
    p.add_argument("--labels-out", dest="labels_out", default=None,
                   help="also write ground-truth labels here")
    p.add_argument("--trajectories", type=int, default=10)
    p.add_argument("--duration", type=float, default=CtrwConfig.duration)
    p.add_argument("--jitter", type=float, default=0.0,
                   help="dwell observation jitter radius in meters")
    p.set_defaults(func=run_simulate)

    p = sub.add_parser("resample", parents=[shared],
                       help="keep each record with a fixed probability")
    p.add_argument("input", help="records CSV")
    p.add_argument("--out", required=True, help="records CSV to write")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--labels", default=None,
                   help="labels CSV to carry through the resampling")
    p.add_argument("--labels-out", dest="labels_out", default=None,
                   help="where to write the carried labels")
    p.set_defaults(func=run_resample)

    p = sub.add_parser("evaluate", parents=[shared],
                       help="score predictions, or run the resampling experiment")
    p.add_argument("--predictions", default=None, help="predicted labels CSV")
    p.add_argument("--truth", default=None, help="ground-truth labels CSV")
    p.add_argument("--out", required=True, help="metrics CSV to write")
    p.add_argument("--experiment", action="store_true",
                   help="run the synthetic precision/recall-vs-rate experiment")
    p.add_argument("--trajectories", type=int, default=100)
    p.add_argument("--duration", type=float, default=CtrwConfig.duration)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--rates", type=_parse_float_list, default=None,
                   help="comma-separated retention rates (default 1.0..0.1)")
    p.set_defaults(func=run_evaluate)

    p = sub.add_parser("prop1", parents=[shared],
                       help="leave-one-out dwell-locality check")
    p.add_argument("input", help="records CSV")
    p.add_argument("--out", required=True, help="results CSV to write")
    p.add_argument("--delta-s-grid", dest="delta_s_grid", type=_parse_float_list,
                   default=None)
    p.add_argument("--delta-t-grid", dest="delta_t_grid", type=_parse_float_list,
                   default=None)
    p.set_defaults(func=run_prop1)

    p = sub.add_parser("bounds", parents=[shared],
                       help="per-device recall lower bounds")
    p.add_argument("input", help="records CSV")
    p.add_argument("--out", required=True, help="bounds CSV to write")
    p.set_defaults(func=run_bounds)

    p = sub.add_parser("baseline", parents=[shared],
                       help="train or apply the voting / HMM baselines")
    p.add_argument("--method", choices=("voting", "hmm"), required=True)
    p.add_argument("--train-records", dest="train_records", default=None)
    p.add_argument("--train-labels", dest="train_labels", default=None)
    p.add_argument("--load-model", dest="load_model", default=None)
    p.add_argument("--save-model", dest="save_model", default=None)
    p.add_argument("--records", default=None, help="records CSV to label")
    p.add_argument("--out", default=None, help="predictions CSV to write")
    p.add_argument("--week-start", dest="week_start", choices=("monday", "sunday"),
                   default="monday")
    p.set_defaults(func=run_baseline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        run = _resolve(args)
        return args.func(args, run)
    except UsageError as exc:
        print(f"sparsemob: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"sparsemob: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
