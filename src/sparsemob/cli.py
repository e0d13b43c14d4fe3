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
  timezone. Every command that reads records (``label``, ``oracle``,
  ``stats``, ``resample``, ``prop1``, ``bounds``, ``baseline``) reads them
  into the same columns, ``_ingest_columns``', and builds no per-device
  object from them. Every CSV is read through one index of its code units
  (``csvindex``): times, runs of equal cells and cell bounds are read
  there, and only the cells that need one become strings.
* Label CSV columns: mid, time, label with label in {S, T, U}.
* Exit codes: 0 success, 1 usage error, 2 data error.
* A config file of key=value lines can supply any shared flag (keys
  delta_s, delta_t, seed, workers, timezone, ref_lat, strict);
  explicit flags win over the file. An unknown key, like a bad value, is a
  data error.
* Model files are CSV files like any other; this module holds every file
  layout the package reads or writes.

A start pays only for the command it runs: at the top this module imports
the standard library, numpy and ``core``; each ``run_*`` imports the modules
it calls, ``csvindex`` too when it reads a CSV, and a call builds only the
parser of the command that argv starts with, falling back to the full
parser tree for top-level help and usage errors.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone as _tz
from itertools import chain, repeat
from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    _CODE_BY_LETTER,
    _LETTERS,
    DEFAULT_TZ_OFFSET,
    LABEL_UNLABELED,
    MobilityParams,
    check_ref_lat,
    project_runs,
)

if TYPE_CHECKING:  # for annotations alone; each command imports what it runs
    from .baselines import HmmModel, VotingModel
    from .evaluate import ExperimentConfig

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
    tz_offset: int
    ref_lat: float | None
    strict: bool

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.ref_lat is not None:
            check_ref_lat(self.ref_lat)


# ---------------------------------------------------------------- parsing


def _parse_tz(text: str) -> int:
    """Timezone as signed seconds east of UTC, or [+-]HH:MM form with
    unsigned digits and MM at most 59; either strictly inside +/-24 h, the
    offsets ``datetime.timezone`` takes."""
    t = text.strip()
    if ":" in t:
        form = re.fullmatch(r"([+-]?)([0-9]+):([0-9]+)", t)
        if form is None or int(form[3]) > 59:
            raise ValueError(f"expected [+-]HH:MM with MM at most 59, got {text!r}")
        sign = -1 if form[1] == "-" else 1
        offset = sign * (int(form[2]) * 3600 + int(form[3]) * 60)
    else:
        offset = int(t)
    if not -86400 < offset < 86400:
        raise ValueError(f"offset must lie strictly inside +/-24 h, got {text!r}")
    return offset


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


def _flag_type(parse):
    """``parse`` as an argparse type: a bad flag value is reported with the
    parser's own message, as a bad config value is."""

    def parse_flag(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse_flag


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
        # float's syntax says which texts are numbers; the value is read
        # exactly, so no time lands on the nearest double
        if math.isfinite(f):
            from decimal import Decimal, InvalidOperation

            try:
                exact = Decimal(t)
            except InvalidOperation:
                # an exponent past what Decimal holds (about 10**18): as
                # float read the text as finite, the value is 0 or a
                # fraction too small for a double
                if Decimal(t.lower().partition("e")[0]) == 0:
                    return 0
            else:
                if exact == exact.to_integral_value():
                    return int(exact)
        raise ValueError(f"non-integer epoch time {text!r}")
    # no text is both ISO 8601 and in the clock form, so the order of the
    # two tries changes no value; ISO 8601 goes first, as it costs less
    try:
        dt = datetime.fromisoformat(t)
    except ValueError:
        try:
            dt = datetime.strptime(t, "%H:%M:%S/%m/%d/%Y")
        except ValueError:
            raise ValueError(f"unrecognized time {text!r}") from None
    # the whole second the time falls in, exactly: no float, no truncation
    # toward zero
    epoch = datetime(1970, 1, 1, tzinfo=_tz.utc)
    if dt.tzinfo is not None:
        return (dt - epoch) // timedelta(seconds=1)
    return (dt.replace(tzinfo=_tz.utc) - epoch) // timedelta(seconds=1) - tz_offset


#: the keys a config file may set, one per shared flag
_CONFIG_KEYS = (
    "delta_s", "delta_t", "seed", "workers", "timezone", "ref_lat", "strict",
)


def _load_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = value
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
        return RunConfig(
            params=params,
            seed=pick("seed", int, 0),
            workers=pick("workers", int, 1),
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


def _table_text(rows) -> str:
    """Rows as CSV text, every cell formatted by ``_fmt``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def _write_csv(path: str, kind: str, header, texts, notes=()) -> None:
    """Write a CSV: its version line, one ``# note`` line per note, the
    header, then ``texts``, the body's rows as text (``_table_text``,
    ``_label_rows``, ``_record_rows``), in order."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# sparsemob {kind} v1\n")
            fh.writelines(f"# {note}\n" for note in notes)
            fh.write(",".join(header) + "\n")
            fh.writelines(texts)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def _csv_cell(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in a row of several cells."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]  # less the comma and line end


#: a character for which csv.writer quotes a cell
_QUOTED = re.compile('[,"\r\n]')


def _id_cells(devices: list[str]) -> list[str]:
    """Each id of ``devices`` as ``_csv_cell`` writes it. One search screens
    them all; only an id that holds a character ``csv`` quotes, or is empty,
    goes through ``_csv_cell``."""
    if "" not in devices and not _QUOTED.search("".join(devices)):
        return devices
    return [_csv_cell(d) if not d or _QUOTED.search(d) else d for d in devices]


_LABEL_HEADER = ("mid", "time", "label")
_RECORD_HEADER = ("time", "lon", "lat", "mid")


#: bytes of the row matrix that ``_label_rows`` lays out at once
_LABEL_BLOCK_BYTES = 1 << 20


def _label_rows(devices: list[str], sizes, times: np.ndarray, codes) -> str:
    """Rows of a labels CSV, as ``csv.writer`` would write them: ``sizes[k]``
    rows of device ``devices[k]``, for k in order, with their ``times`` (each
    0 <= t < 2**63) and label ``codes``.

    One pass over the columns builds the bytes. Each row of a byte matrix
    holds its device's cell (``_id_cells``), left-aligned, then its time's
    decimal digits, right-aligned, then the ``,L\n`` tail of its code; a
    mask of the bytes each row fills then packs the matrix. Blocks of rows
    are laid out in turn, so that a long device id cannot make the matrix
    large.
    """
    times = np.asarray(times, dtype=np.int64)
    if not len(times):
        return ""
    cells = [(cell + ",").encode("utf-8") for cell in _id_cells(devices)]
    cell_len = np.array(list(map(len, cells)), dtype=np.int64)
    widest = int(cell_len.max())
    # every cell with its first byte's offset, padded so that each offset is
    # followed by `widest` bytes
    joined = np.frombuffer(b"".join(cells) + bytes(widest), dtype=np.uint8)
    first = np.cumsum(cell_len) - cell_len
    width = len(str(int(times.max())))  # the digits of the longest time
    # each time's digits past the first: how many powers of ten it reaches
    extra = np.searchsorted(10 ** np.arange(1, width, dtype=np.int64), times, "right")
    letters = np.frombuffer(_LETTERS.encode(), dtype=np.uint8)[np.asarray(codes, np.intp)]
    owner = np.repeat(np.arange(len(cells)), sizes)
    step = max(1, _LABEL_BLOCK_BYTES // (widest + width + 3))
    blocks = []
    for a in range(0, len(times), step):
        rows = slice(a, a + step)
        device = owner[rows, None]
        wide = int(cell_len[device].max())  # a block without the widest cell is narrower
        block = np.empty((len(device), wide + width + 3), dtype=np.uint8)
        keep = np.ones(block.shape, dtype=bool)
        block[:, :wide] = joined[first[device] + np.arange(wide)]
        keep[:, :wide] = np.arange(wide) < cell_len[device]
        rest = times[rows]
        for j in range(wide + width - 1, wide - 1, -1):
            quotient = rest // 10
            block[:, j] = rest - quotient * 10 + ord("0")
            rest = quotient
        keep[:, wide : wide + width] = np.arange(width) >= width - 1 - extra[rows, None]
        block[:, -3], block[:, -2], block[:, -1] = ord(","), letters[rows], ord("\n")
        blocks.append(block[keep].tobytes())
    return b"".join(blocks).decode("utf-8")


def _owners(devices: list[str], sizes) -> chain:
    """Each record's device, for ``sizes[k]`` records of ``devices[k]``."""
    return chain.from_iterable(map(repeat, devices, np.asarray(sizes).tolist()))


def _record_rows(devices: list[str], sizes, times, lons, lats) -> str:
    """Rows of a records CSV, as ``csv.writer`` would write them: ``sizes[k]``
    rows of device ``devices[k]``, for k in order, with their ``times``,
    ``lons`` and ``lats``. Each device cell is formatted once (``_id_cells``);
    coordinates are finite, so ``repr`` writes them as ``_fmt`` would."""
    tails = _owners([f",{cell}\n" for cell in _id_cells(devices)], sizes)
    rows = zip(np.asarray(times).tolist(), lons.tolist(), lats.tolist(), tails)
    return "".join([f"{t},{lon!r},{lat!r}{tail}" for t, lon, lat, tail in rows])


def _read_text(path: str) -> str:
    """The text of a UTF-8 file, its line ends as written."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None


def _numbered_rows(path: str, text: str) -> tuple[list[list[str]], list[int]]:
    """The ``csv`` rows of ``text`` and the line each starts on, parsed row
    by row, so that a row whose quoted fields hold line breaks is numbered
    by its first line, and a row that ``csv`` rejects is reported with the
    line it starts on."""
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


def _read_table(path: str, text: str, required: tuple[str, ...]):
    """The required columns of the commented CSV ``text``, read from
    ``path``, as a ``csvindex.Table``: each cell as its span of a text and of
    that text's code units, in ``required`` order; the file line each data
    row starts on; and the comment rows above the header.

    Every CSV the package reads comes here, as text read once by the
    caller. ``csvindex.split_table`` indexes a quote-free text where it
    lies; any other text is tokenized by one ``csv`` pass, ``_numbered_rows``,
    which gives the same cells and the line each row starts on, and its
    required cells are joined into one text to index. Blank rows and rows
    whose first cell starts with ``#`` are comments.
    """
    from .csvindex import is_comment, joined_table, split_table

    split = split_table(text, required)
    if split is not None:
        return split
    table, lines = _numbered_rows(path, text)
    head = next((k for k, row in enumerate(table) if not is_comment(row)), None)
    if head is None:
        raise DataError(f"{path}: missing header row")
    header = [c.strip() for c in table[head]]
    for name in required:
        if name not in header:
            raise DataError(f"{path}: missing required column {name!r}")
    index = [header.index(name) for name in required]
    rows, lines = table[head + 1 :], lines[head + 1 :]
    try:
        # past the header, comments are rare: look for one in C first
        clean = "#" not in "".join(map(itemgetter(0), rows))
    except IndexError:  # a blank row
        clean = False
    if not clean:
        keep = [k for k, row in enumerate(rows) if not is_comment(row)]
        rows, lines = [rows[k] for k in keep], [lines[k] for k in keep]
    try:
        columns = [list(map(itemgetter(k), rows)) for k in index]
    except IndexError:  # a short row
        columns = [[row[k] if k < len(row) else None for row in rows] for k in index]
    return joined_table(columns, lines, table[:head])


def _present(cell: str | None) -> str:
    """A cell of ``_read_table``'s columns; for None, a cell past the end of
    a short row, the IndexError that indexing the row would raise."""
    if cell is None:
        raise IndexError("list index out of range")
    return cell


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


def _column(parse, cells: list, faults: dict[int, str], blank, again=None,
            first=None, stop=None) -> list:
    """``parse`` over ``cells`` in one ``map``, resumed past each cell it
    refuses. A refused cell is read on its own by ``again``, if given; a
    missing cell (None), or one that does not read, leaves ``blank`` in its
    place and its message in ``faults`` under its row, unless the row has a
    fault already. Cell k stands for row k, or, when ``first`` and ``stop``
    are given, for the rows from ``first[k]`` up to ``stop[k]``."""
    values: list = []
    rest = iter(cells)
    while True:
        try:
            values.extend(map(parse, rest))
            return values
        except (ValueError, TypeError) as exc:
            k, refusal = len(values), exc
        try:
            cell = _present(cells[k])
            if again is None:
                raise refusal
            values.append(again(cell))
        except (ValueError, IndexError) as exc:
            for row in [k] if first is None else range(first[k], stop[k]):
                faults.setdefault(row, str(exc))
            values.append(blank)


def _floats(cells: list, first, stop, faults: dict[int, str]) -> np.ndarray:
    """The first cells of a coordinate column's runs (``csvindex.heads``) as
    float64, in one numpy call, which runs Python's own ``float`` on each. A
    list that call refuses, or that holds a None (a missing cell, which numpy
    reads as NaN), goes to ``_column``, cell by cell, which words each fault
    under every row of its run."""
    try:
        values = np.array(cells, dtype=np.float64)
        if not (np.isnan(values).any() and None in cells):
            return values
    except ValueError:
        pass
    return np.array(_column(float, cells, faults, 0.0, None, first, stop), dtype=np.float64)


def _record_columns(path: str, table, tz_offset: int, issues: list[str]):
    """The accepted rows of a records table, as ``_read_table`` gives it, as
    columns.

    Returns ``keys``, the device ids in ``str`` order (a numpy ``U`` array
    would drop trailing NULs), and the arrays lines, devices (indices into
    ``keys``), times, lons and lats, in line order. ``csvindex.scan`` reads
    from the code units every time written as 1 to 18 ASCII digits, and the
    runs of equal texts in the mid, lon and lat columns. Only the first
    cell of each run becomes a string: an id is stripped once per run, and
    one numpy call runs ``float`` on the first cell of each coordinate run
    (``_floats``). Every other time goes to ``_column`` as a string, which
    runs ``int`` on it, and ``_parse_time_text`` if ``int`` refuses it.
    Each refused row goes to ``issues``, in line order, worded by its first
    fault: a missing or refused device id, then a time, lon or lat that does
    not parse, then the lon, lat and time ranges.
    """
    from .csvindex import heads, scan, spread

    lines = table.lines
    times, same = scan(table)
    faults: dict[int, str] = {}  # each refused row's first fault, by column
    (mid_cells, first, stop, run), lon, lat = heads(table, same, [3, 1, 2])
    mids = _column(str.strip, mid_cells, faults, "", None, first, stop)
    keys = sorted(set(mids))
    code = {mid: k for k, mid in enumerate(keys)}
    devices = spread(np.fromiter(map(code.__getitem__, mids), np.int64, len(mids)), run)
    # the ids _id_fault refuses, checked once per id
    refused = [k for k, mid in enumerate(keys) if _id_fault(mid)]
    if refused:
        for i in np.flatnonzero(np.isin(devices, refused)).tolist():
            faults.setdefault(i, _id_fault(keys[devices[i]]))
    late = {}  # each time read as a string that is out of range, by row
    slow = (times < 0).nonzero()[0]
    if len(slow):
        parsed = _column(int, table.cells(0, slow), faults, 0,
                         lambda cell: _parse_time_text(cell, tz_offset), slow, slow + 1)
        times[slow] = [t if 0 <= t < 2**63 else -1 for t in parsed]
        late = {r: t for r, t in zip(slow.tolist(), parsed) if not 0 <= t < 2**63}
    lons = spread(_floats(*lon[:3], faults), lon[3])
    lats = spread(_floats(*lat[:3], faults), lat[3])
    # written so that NaN fails them too
    ok = (np.abs(lons) <= 180.0) & (np.abs(lats) <= 90.0) & (times >= 0)
    if faults:
        ok[list(faults)] = False
    if not ok.all():
        for i in np.flatnonzero(~ok).tolist():
            lon, lat = float(lons[i]), float(lats[i])
            fault = faults.get(i) or (
                f"longitude out of range: {lon}" if not -180.0 <= lon <= 180.0
                else f"latitude out of range: {lat}" if not -90.0 <= lat <= 90.0
                else f"time out of range: {late[i]}"
            )
            issues.append(f"{path}:{lines[i]}: {fault}")
        lines, devices, times, lons, lats = (
            column[ok] for column in (lines, devices, times, lons, lats)
        )
    return keys, lines, devices, times, lons, lats


def _ingest_columns(path: str, *, tz_offset: int, strict: bool):
    """Read a records CSV into columns, sorted by device id, then time.

    Returns ``keys``, the ids of the devices with accepted rows in
    lexicographic order, ``sizes``, each one's record count (at least 1),
    and the arrays times, lons and lats of the accepted rows, device after
    device. Rejects rows that fail to parse, have a blank device id or one
    starting with ``#``, lie out of range (coordinates, or a time outside
    0 <= t < 2**63) or duplicate a (device, time) pair, each with a
    line-numbered diagnostic: parse rejections in line order, then
    duplicates in device, time and line order. Rejections are warnings
    unless strict mode makes them fatal.

    The file is read once, and ``_read_table`` indexes its cells as spans of
    one array of code units. ``_record_columns`` reads each column once: a
    time written as ASCII digits straight from the units, and only a time
    cell that is not (ISO-8601, clock form, ``1468317761.0``, garbage) as a
    string, by ``int`` or ``_parse_time_text``; ids and coordinates as one
    string per run of equal texts, so a stay's repeated position is read
    once. Range checks, grouping and sorting are array operations; rows
    already in (device, time) order, as every records CSV the package writes
    has them, are not sorted again.
    """
    text = _read_text(path)
    issues: list[str] = []
    keys, lines, devices, times, lons, lats = _record_columns(
        path, _read_table(path, text, _RECORD_HEADER), tz_offset, issues
    )
    step = np.diff(devices)
    if not ((step > 0) | (step == 0) & (np.diff(times) > 0)).all():
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
    _report_issues(issues, strict)
    sizes = np.bincount(devices, minlength=len(keys))
    keys = [key for key, size in zip(keys, sizes.tolist()) if size]
    return keys, sizes[sizes > 0], times, lons, lats


def _read_labels(path: str) -> dict[tuple[str, int], int]:
    """Label codes keyed by (mid, time), in file order."""
    table = _read_table(path, _read_text(path), _LABEL_HEADER)
    out: dict[tuple[str, int], int] = {}
    for lineno, mid, t, letter in zip(table.lines.tolist(), *map(table.cells, range(3))):
        try:
            mid, t = _present(mid).strip(), int(_present(t))
            letter = _present(letter).strip()
        except (ValueError, IndexError) as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        code = _CODE_BY_LETTER.get(letter)
        if code is None:
            raise DataError(f"{path}:{lineno}: unknown label letter: {letter!r}")
        if (mid, t) in out:
            raise DataError(f"{path}:{lineno}: duplicate label for ({mid!r}, {t})")
        out[mid, t] = code
    return out


#: each model file's columns, with the parser of each column's cells
_MODEL_COLUMNS = {
    "voting": dict.fromkeys(("grid_lon", "grid_lat", "hour", "stay", "travel"), int),
    "hmm": {"table": str.strip, "row": int, "col": int, "value": float},
}


def _save_model(model: VotingModel | HmmModel, path: str) -> None:
    """Write a model file. A voting model keeps its settings in notes and
    has one row per bin, in bin order; an HMM has one (table, row, col,
    value) row per bucket edge and per probability."""
    from .baselines import VotingModel

    if isinstance(model, VotingModel):
        kind = "voting"
        notes = [f"seed {model.seed}", f"week_start {model.week_start}",
                 f"tz_offset {model.tz_offset}"]
        rows = sorted((b.grid_lon, b.grid_lat, b.hour, *votes)
                      for b, votes in model.counts.items())
    else:
        kind, notes = "hmm", ["states: 0=stay 1=travel"]
        tables = (
            ("distance_edge", [model.buckets.distance_edges]),
            ("gap_edge", [model.buckets.gap_edges]),
            ("initial", model.initial[:, None]),
            ("transition", model.transition),
            ("emission", model.emission),
        )
        rows = [
            (name, i, j, float(value))
            for name, table in tables
            for (i, j), value in np.ndenumerate(np.asarray(table, dtype=np.float64))
        ]
    _write_csv(path, kind, list(_MODEL_COLUMNS[kind]), [_table_text(rows)], notes)


#: the tables of an HMM model file, edge tables first
_HMM_TABLES = ("distance_edge", "gap_edge", "initial", "transition", "emission")


def _load_model(method: str, path: str) -> VotingModel | HmmModel:
    """Read a model file of ``method`` ("voting" or "hmm"). A key (a voting
    bin, or an HMM table's cell) given twice, an HMM table of another name,
    or an HMM cell at a negative index or outside its table's shape, is a
    data error naming its line. An edge table's shape is one row of as many
    cells as it has."""
    from .baselines import BucketConfig, HmmModel, SpatioTemporalBin, VotingModel

    parsers = _MODEL_COLUMNS[method]
    table = _read_table(path, _read_text(path), tuple(parsers))
    entries: dict = {}
    line_of: dict = {}
    for lineno, *row in zip(table.lines.tolist(), *map(table.cells, range(len(parsers)))):
        try:
            cells = [parse(_present(cell)) for parse, cell in zip(parsers.values(), row)]
            if method == "voting":
                key, value = SpatioTemporalBin(*cells[:3]), tuple(cells[3:])
            elif cells[0] not in _HMM_TABLES:
                raise ValueError(f"unknown table {cells[0]!r}")
            elif min(cells[1:3]) < 0:
                raise ValueError(f"negative index in key {tuple(cells[:3])}")
            else:
                key, value = tuple(cells[:3]), cells[3]
            if key in entries:
                raise ValueError(f"duplicate key {tuple(cells[:3])}")
        except (ValueError, IndexError) as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        entries[key] = value
        line_of[key] = lineno

    def check_shapes(shapes: dict[str, tuple[int, int]]) -> None:
        for (name, i, j), lineno in line_of.items():
            shape = shapes.get(name)
            if shape is not None and (i >= shape[0] or j >= shape[1]):
                raise DataError(
                    f"{path}:{lineno}: index ({i}, {j}) outside table {name!r} "
                    f"of shape {shape}"
                )
    try:
        if method == "voting":
            meta = {}  # from "# key value" comments above the header
            for note in table.notes:
                parts = ",".join(note).lstrip().removeprefix("#").split()
                if len(parts) == 2:
                    meta[parts[0]] = parts[1]
            return VotingModel(
                seed=int(meta.get("seed", 0)),
                week_start=meta.get("week_start", "monday"),
                tz_offset=int(meta.get("tz_offset", DEFAULT_TZ_OFFSET)),
                counts=entries,
            )
        tables: dict[str, dict[tuple[int, int], float]] = {}
        for (name, i, j), value in entries.items():
            tables.setdefault(name, {})[i, j] = value
        edges = [tuple(v for _, v in sorted(tables.get(name, {}).items()))
                 for name in _HMM_TABLES[:2]]
        check_shapes({name: (1, len(e)) for name, e in zip(_HMM_TABLES, edges)})
        buckets = BucketConfig(*edges)
        shapes = {"initial": (2, 1), "transition": (2, 2),
                  "emission": (2, buckets.n_symbols)}
        check_shapes(shapes)
        arrays = []
        for name, shape in shapes.items():
            arrays.append(np.zeros(shape))
            for cell, value in tables.get(name, {}).items():
                arrays[-1][cell] = value
        initial, transition, emission = arrays
        return HmmModel(initial[:, 0], transition, emission, buckets)
    except (ValueError, IndexError) as exc:
        raise DataError(f"{path}: {exc}") from None


def _aligned_labels(
    keys: list[str], sizes, times, label_map: dict[tuple[str, int], int], *, strict: bool
) -> np.ndarray:
    """Label codes aligned to the records of ``_ingest_columns``' columns;
    a record without a label abstains, or in strict mode is a data error
    naming the first such record."""
    records = list(zip(_owners(keys, sizes), times.tolist()))
    codes = np.fromiter(map(label_map.get, records, repeat(-1)), np.int8, len(records))
    missing = codes < 0
    if missing.any():
        if strict:
            mid, t = records[int(missing.argmax())]
            raise DataError(f"no label for record ({mid!r}, {t})")
        codes[missing] = LABEL_UNLABELED
    return codes


def _device_streams(seed: int, devices: list[str]):
    from hashlib import sha256

    from .simulate import seeded

    # device ids are strings; hash to an integer stream id so per-device
    # randomness is independent of dataset composition and order
    return seeded((seed, int.from_bytes(sha256(d.encode()).digest()[:8], "big")) for d in devices)


# ------------------------------------------------------------- commands


def run_label(args: argparse.Namespace, run: RunConfig) -> int:
    from .sds import _joined_codes

    # columns from ingest to output: every device is projected, labeled and
    # formatted in the same whole-array steps, each as if alone
    keys, sizes, times, lons, lats = _ingest_columns(
        args.input, tz_offset=run.tz_offset, strict=run.strict
    )
    x, y = project_runs(lons, lats, sizes, run.ref_lat)
    codes = _joined_codes(x, y, times, sizes, run.params)
    _write_csv(args.out, "labels", _LABEL_HEADER, [_label_rows(keys, sizes, times, codes)])
    return EXIT_OK


def run_oracle(args: argparse.Namespace, run: RunConfig) -> int:
    from .oracle import OracleLimitError, _check_limit, _exact_codes

    if args.limit < 1:
        raise UsageError(f"--limit must be at least 1, got {args.limit}")
    # columns from ingest to output, as in run_label
    keys, sizes, times, lons, lats = _ingest_columns(
        args.input, tz_offset=run.tz_offset, strict=run.strict
    )
    # before any labeling, the first device over the limit, in id order
    for k in np.flatnonzero(sizes > args.limit).tolist():
        try:
            _check_limit(int(sizes[k]), args.limit)
        except OracleLimitError as exc:
            raise DataError(f"device {keys[k]!r}: {exc}") from None
    x, y = project_runs(lons, lats, sizes, run.ref_lat)
    codes = _exact_codes(x, y, times, sizes, run.params)
    _write_csv(args.out, "labels", _LABEL_HEADER, [_label_rows(keys, sizes, times, codes)])
    return EXIT_OK


def run_stats(args: argparse.Namespace, run: RunConfig) -> int:
    from .evaluate import coverages, mean_gaps, sparsity_report, spans
    from .sds import _joined_codes

    if args.delta_t_grid and not args.sparsity_out:
        raise UsageError("--delta-t-grid requires --sparsity-out to slice")
    try:
        # the slicing thresholds obey the rule of delta_t, as in prop1
        for dt in args.delta_t_grid or ():
            MobilityParams(run.params.delta_s, dt)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    # columns from ingest to output, as in run_label
    keys, sizes, times, lons, lats = _ingest_columns(
        args.input, tz_offset=run.tz_offset, strict=run.strict
    )
    if args.sparsity_out and not keys:
        raise DataError("empty dataset: nothing to report sparsity on")
    columns = (
        sizes.tolist(),
        spans(times, sizes).tolist(),
        mean_gaps(times, sizes).tolist(),
        coverages(times, sizes, run.params.delta_t).tolist(),
    )
    header = ["mid", "records", "span_seconds", "mean_gap", "coverage"]
    _write_csv(args.out, "stats", header, [_table_text(zip(keys, *columns))])
    if args.sparsity_out:
        x, y = project_runs(lons, lats, sizes, run.ref_lat)
        codes = _joined_codes(x, y, times, sizes, run.params)
        delta_ts = list(args.delta_t_grid or [run.params.delta_t])
        report = sparsity_report(times, sizes, codes, delta_ts)
        edges = report.xi_edges.tolist()
        fields = (report.device_counts, report.mean_records, report.stay_fraction,
                  report.travel_fraction, report.unlabeled_fraction)
        rows = [
            ("gap_bin", lo, hi, None, *cells)
            for lo, hi, *cells in zip(edges, edges[1:], *(f.tolist() for f in fields))
        ]
        edges = report.coverage_edges.tolist()
        for dt in sorted(report.coverage_counts):
            counts = report.coverage_counts[dt].tolist()
            rows += [("coverage_bin", lo, hi, dt, n, *[None] * 4)
                     for lo, hi, n in zip(edges, edges[1:], counts)]
        header = ["table", "lo", "hi", "delta_t", "devices", "mean_records",
                  "stay_fraction", "travel_fraction", "unlabeled_fraction"]
        _write_csv(args.sparsity_out, "sparsity", header, [_table_text(rows)])
    return EXIT_OK


def _experiment_config(
    args: argparse.Namespace, run: RunConfig, *, with_truth: bool
) -> ExperimentConfig:
    """The experiment settings; with ``with_truth``, only settings whose
    continuous truth labels are exact (see ``check_supports``). A walk flag
    left unset (None) takes the default of its field."""
    from .evaluate import DEFAULT_RATES, ExperimentConfig
    from .simulate import CtrwConfig, check_supports

    def given(value, default):
        return default if value is None else value

    try:
        walk = CtrwConfig(
            duration=given(args.duration, CtrwConfig.duration),
            jitter_radius=given(args.jitter, CtrwConfig.jitter_radius),
        )
        config = ExperimentConfig(
            params=run.params,
            walk=walk,
            trajectories=given(args.trajectories, ExperimentConfig.trajectories),
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
    from .evaluate import _trajectories

    with_truth = args.labels_out is not None
    config = _experiment_config(args, run, with_truth=with_truth)
    trajectories = []
    truths = [np.zeros(0, np.int8)]
    # without truth, check_supports has not bounded the jitter
    try:
        for _, traj, truth in _trajectories(config, range(config.trajectories), with_truth):
            trajectories.append(traj)
            truths.append(truth)
    except ValueError as exc:
        raise UsageError(f"settings give an invalid trajectory: {exc}") from None
    devices = [traj.device for traj in trajectories]
    sizes = [len(traj) for traj in trajectories]
    times, lons, lats = (
        np.concatenate([np.zeros(0, dtype), *(getattr(traj, name) for traj in trajectories)])
        for name, dtype in (("times", np.int64), ("lons", np.float64), ("lats", np.float64))
    )
    _write_csv(args.out, "records", _RECORD_HEADER,
               [_record_rows(devices, sizes, times, lons, lats)])
    if with_truth:
        _write_csv(args.labels_out, "labels", _LABEL_HEADER,
                   [_label_rows(devices, sizes, times, np.concatenate(truths))])
    return EXIT_OK


def run_resample(args: argparse.Namespace, run: RunConfig) -> int:
    if (args.labels is None) != (args.labels_out is None):
        raise UsageError("--labels and --labels-out must be used together")
    if not 0.0 <= args.rate <= 1.0:
        raise UsageError(f"--rate must lie in [0, 1], got {args.rate}")
    keys, sizes, times, lons, lats = _ingest_columns(
        args.input, tz_offset=run.tz_offset, strict=run.strict
    )
    if args.labels:
        label_map = _read_labels(args.labels)
        codes = _aligned_labels(keys, sizes, times, label_map, strict=run.strict)
    # simulate.resample's draws: one uniform per record from the device's
    # own generator
    draws = [rng.random(n) for n, rng in zip(sizes.tolist(), _device_streams(run.seed, keys))]
    keep = np.concatenate([np.zeros(0), *draws]) < args.rate
    owner = np.repeat(np.arange(len(keys)), sizes)
    kept = np.bincount(owner[keep], minlength=len(keys))
    times = times[keep]
    _write_csv(args.out, "records", _RECORD_HEADER,
               [_record_rows(keys, kept, times, lons[keep], lats[keep])])
    if args.labels_out:
        # an empty --labels path reads no labels: the file has no rows
        rows = [_label_rows(keys, kept, times, codes[keep])] if args.labels else []
        _write_csv(args.labels_out, "labels", _LABEL_HEADER, rows)
    return EXIT_OK


def run_evaluate(args: argparse.Namespace, run: RunConfig) -> int:
    from .evaluate import ConfusionCounts, MetricsReport, resampling_experiment

    if args.experiment and (args.predictions is not None or args.truth is not None):
        raise UsageError("--experiment reads no --predictions or --truth")
    if not args.experiment:
        for flag in ("trajectories", "duration", "jitter", "rates"):
            if getattr(args, flag) is not None:
                raise UsageError(f"--{flag} requires --experiment")
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
        header = ["rate", "mean_gap", "stay_precision", "stay_recall",
                  "travel_precision", "travel_recall", "accuracy", "f1_accuracy"]
        _write_csv(args.out, "rates", header, [_table_text(rows)])
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
    _write_csv(args.out, "metrics", ["metric", "value"], [_table_text(rows)])
    return EXIT_OK


def run_prop1(args: argparse.Namespace, run: RunConfig) -> int:
    from .evaluate import local_consistency_check

    keys, sizes, times, lons, lats = _ingest_columns(
        args.input, tz_offset=run.tz_offset, strict=run.strict
    )
    grid_s = args.delta_s_grid or (run.params.delta_s,)
    grid_t = args.delta_t_grid or (run.params.delta_t,)
    try:
        grid = [MobilityParams(s, t) for s in grid_s for t in grid_t]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if not keys:
        raise DataError("empty dataset")
    x, y = project_runs(lons, lats, sizes, run.ref_lat)
    results = {p: local_consistency_check(x, y, times, sizes, p) for p in dict.fromkeys(grid)}
    rows = [
        (p.delta_s, p.delta_t, results[p].tested, results[p].violations, results[p].rate)
        for p in grid
    ]
    header = ["delta_s", "delta_t", "tested", "violations", "rate"]
    _write_csv(args.out, "prop1", header, [_table_text(rows)])
    return EXIT_OK


def run_bounds(args: argparse.Namespace, run: RunConfig) -> int:
    from .sds import recall_bounds

    keys, sizes, times, lons, lats = _ingest_columns(
        args.input, tz_offset=run.tz_offset, strict=run.strict
    )
    x, y = project_runs(lons, lats, sizes, run.ref_lat)
    stay, travel = recall_bounds(x, y, times, sizes, run.params)
    rows = zip(keys, stay.tolist(), travel.tolist())
    header = ["mid", "stay_bound", "travel_bound"]
    _write_csv(args.out, "bounds", header, [_table_text(rows)])
    return EXIT_OK


def run_baseline(args: argparse.Namespace, run: RunConfig) -> int:
    from .baselines import _hmm_decode, _hmm_fit, _vote

    training = args.train_records is not None
    if training != (args.train_labels is not None):
        raise UsageError("--train-records and --train-labels must be used together")
    if not training and not args.load_model:
        raise UsageError("baseline needs either training inputs or --load-model")
    if args.records and not args.out:
        raise UsageError("--records requires --out for the predictions")
    if args.out and not args.records:
        raise UsageError("--out requires --records to predict")
    if training and args.load_model:
        raise UsageError("--load-model cannot be used with training inputs")
    voting_training = training and args.method == "voting"
    if args.week_start is not None and not voting_training:
        raise UsageError("--week-start applies only to training --method voting")

    # columns from ingest to output, as in run_label
    model: VotingModel | HmmModel
    if training:
        keys, sizes, times, lons, lats = _ingest_columns(
            args.train_records, tz_offset=run.tz_offset, strict=run.strict
        )
        label_map = _read_labels(args.train_labels)
        labels = _aligned_labels(keys, sizes, times, label_map, strict=run.strict)
        try:
            if voting_training:
                model = _vote(lons, lats, times, labels, seed=run.seed,
                              week_start=args.week_start or "monday",
                              tz_offset=run.tz_offset)
            else:
                model = _hmm_fit(lons, lats, times, sizes, labels, ref_lat=run.ref_lat)
        except ValueError as exc:
            raise DataError(str(exc)) from None
    else:
        model = _load_model(args.method, args.load_model)

    if args.save_model:
        _save_model(model, args.save_model)

    if args.records:
        keys, sizes, times, lons, lats = _ingest_columns(
            args.records, tz_offset=run.tz_offset, strict=run.strict
        )
        if args.method == "voting":
            codes = model._predict(lons, lats, times)
        else:
            codes = _hmm_decode(model, lons, lats, times, sizes, run.ref_lat)
        _write_csv(args.out, "labels", _LABEL_HEADER, [_label_rows(keys, sizes, times, codes)])
    return EXIT_OK


# ------------------------------------------------------------ arg wiring


def _add_shared(p: _Parser) -> None:
    """The flags every command takes; a config file can supply each."""
    p.add_argument("--delta-s", dest="delta_s", type=float, default=None,
                   help="stay spatial threshold in meters (default 800)")
    p.add_argument("--delta-t", dest="delta_t", type=float, default=None,
                   help="stay temporal threshold in seconds (default 1800)")
    p.add_argument("--seed", type=int, default=None,
                   help="root seed for all randomness (default 0)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes for evaluate --experiment")
    p.add_argument("--timezone", type=_flag_type(_parse_tz), default=None,
                   help="timezone as seconds east of UTC or +HH:MM "
                        "(default +08:00)")
    p.add_argument("--ref-lat", dest="ref_lat", type=float, default=None,
                   help="projection reference latitude (default: per-device "
                        "first record)")
    p.add_argument("--strict", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="make data diagnostics fatal")
    p.add_argument("--config", default=None,
                   help="key=value file supplying any shared flag")


def _label_args(p: _Parser) -> None:
    p.add_argument("input", help="records CSV")
    p.add_argument("--out", required=True, help="labels CSV to write")
    p.set_defaults(func=run_label)


def _oracle_args(p: _Parser) -> None:
    from .oracle import ORACLE_LIMIT_DEFAULT

    p.add_argument("input", help="records CSV")
    p.add_argument("--out", required=True, help="labels CSV to write")
    p.add_argument("--limit", type=int, default=ORACLE_LIMIT_DEFAULT,
                   help="per-device record cap for the quadratic oracle")
    p.set_defaults(func=run_oracle)


def _stats_args(p: _Parser) -> None:
    p.add_argument("input", help="records CSV")
    p.add_argument("--out", required=True, help="per-device stats CSV")
    p.add_argument("--sparsity-out", dest="sparsity_out", default=None,
                   help="also write binned sparsity/label-mix report here")
    p.add_argument("--delta-t-grid", dest="delta_t_grid",
                   type=_flag_type(_parse_float_list), default=None,
                   help="comma-separated slicing thresholds for coverage bins")
    p.set_defaults(func=run_stats)


def _simulate_args(p: _Parser) -> None:
    from .simulate import CtrwConfig

    p.add_argument("--out", required=True, help="records CSV to write")
    p.add_argument("--labels-out", dest="labels_out", default=None,
                   help="also write ground-truth labels here")
    p.add_argument("--trajectories", type=int, default=10)
    p.add_argument("--duration", type=float, default=CtrwConfig.duration)
    p.add_argument("--jitter", type=float, default=0.0,
                   help="dwell observation jitter radius in meters")
    p.set_defaults(func=run_simulate)


def _resample_args(p: _Parser) -> None:
    p.add_argument("input", help="records CSV")
    p.add_argument("--out", required=True, help="records CSV to write")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--labels", default=None,
                   help="labels CSV to carry through the resampling")
    p.add_argument("--labels-out", dest="labels_out", default=None,
                   help="where to write the carried labels")
    p.set_defaults(func=run_resample)


def _evaluate_args(p: _Parser) -> None:
    p.add_argument("--predictions", default=None, help="predicted labels CSV")
    p.add_argument("--truth", default=None, help="ground-truth labels CSV")
    p.add_argument("--out", required=True, help="metrics CSV to write")
    p.add_argument("--experiment", action="store_true",
                   help="run the synthetic precision/recall-vs-rate experiment")
    # the walk flags default to None, so that run_evaluate can refuse them
    # without --experiment; _experiment_config fills in the defaults
    p.add_argument("--trajectories", type=int, default=None)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--jitter", type=float, default=None)
    p.add_argument("--rates", type=_flag_type(_parse_float_list), default=None,
                   help="comma-separated retention rates (default 1.0..0.1)")
    p.set_defaults(func=run_evaluate)


def _prop1_args(p: _Parser) -> None:
    floats = _flag_type(_parse_float_list)
    p.add_argument("input", help="records CSV")
    p.add_argument("--out", required=True, help="results CSV to write")
    p.add_argument("--delta-s-grid", dest="delta_s_grid", type=floats, default=None)
    p.add_argument("--delta-t-grid", dest="delta_t_grid", type=floats, default=None)
    p.set_defaults(func=run_prop1)


def _bounds_args(p: _Parser) -> None:
    p.add_argument("input", help="records CSV")
    p.add_argument("--out", required=True, help="bounds CSV to write")
    p.set_defaults(func=run_bounds)


def _baseline_args(p: _Parser) -> None:
    p.add_argument("--method", choices=("voting", "hmm"), required=True)
    p.add_argument("--train-records", dest="train_records", default=None)
    p.add_argument("--train-labels", dest="train_labels", default=None)
    p.add_argument("--load-model", dest="load_model", default=None)
    p.add_argument("--save-model", dest="save_model", default=None)
    p.add_argument("--records", default=None, help="records CSV to label")
    p.add_argument("--out", default=None, help="predictions CSV to write")
    # None, so that run_baseline can refuse it where no voting model is
    # trained; voting training fills in monday
    p.add_argument("--week-start", dest="week_start", choices=("monday", "sunday"),
                   default=None)
    p.set_defaults(func=run_baseline)


#: each command's help line and the function that adds its own arguments
_COMMANDS = {
    "label": ("label records with the sliding-window inference", _label_args),
    "oracle": ("label records with the exhaustive reference oracle", _oracle_args),
    "stats": ("per-device sampling statistics", _stats_args),
    "simulate": ("generate synthetic trajectories", _simulate_args),
    "resample": ("keep each record with a fixed probability", _resample_args),
    "evaluate": ("score predictions, or run the resampling experiment", _evaluate_args),
    "prop1": ("leave-one-out dwell-locality check", _prop1_args),
    "bounds": ("per-device recall lower bounds", _bounds_args),
    "baseline": ("train or apply the voting / HMM baselines", _baseline_args),
}


def _build_parser(command: str | None) -> _Parser:
    """The parser: every command with its help line, but the shared flags
    and the command's own arguments only for ``command``."""
    parser = _Parser(prog="sparsemob",
                     description="Stay/travel inference on sparse trajectories.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name == command:
            _add_shared(p)
            add_arguments(p)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``_build_parser(...).parse_args(argv)``, from one parser where it can.

    The tree hands the arguments after the command to that command's
    sub-parser, a ``_Parser`` named ``sparsemob <command>``, through
    ``parse_known_args``, and its top-level parser then reports any left
    over. So when argv starts with a command, that parser built alone gives
    the same settings, help and errors unless arguments are left over. Those,
    and an argv that does not start with a command, go to the tree.
    """
    # the first argv entry naming a command is the one argparse runs: before
    # it, an option is -h or unknown (neither takes a value at the top
    # level) and any other word is an invalid choice
    command = next((a for a in argv if a in _COMMANDS), None)
    if argv[:1] == [command]:
        parser = _Parser(prog=f"sparsemob {command}")
        _add_shared(parser)
        _COMMANDS[command][1](parser)
        args, rest = parser.parse_known_args(argv[1:], argparse.Namespace(command=command))
        if not rest:
            return args
    return _build_parser(command).parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse_args(argv)
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
