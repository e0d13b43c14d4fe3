"""The cells of a CSV text as spans of one character index, for ``cli``.

``split_table`` encodes a quote-free text once as an array of code units,
one per character (bytes when the text is ASCII, UTF-32 otherwise), so an
offset into the array is an offset into the ``str``. One pass finds every
comma and line feed, and each cell is handed on as its (start, end) offsets.
``joined_table`` gives the cells that ``csv`` tokenized the same form, their
texts joined into one. ``scan`` then reads a records table's code units
without a string being made: every time written as ASCII digits, and the
runs of equal texts down each column. Only the cells that need a string,
such as the first cell of each run, become one (``Table.cells``).

``cli`` imports this module when a command first reads a CSV file.
"""
from __future__ import annotations

import csv
import functools
from typing import NamedTuple

import numpy as np


def is_comment(row: list[str]) -> bool:
    return not row or row[0].lstrip().startswith("#")


#: units of a cell that ``scan`` compares: a longer cell always starts a run
SCAN_UNITS = 64


def code_units(text: str) -> np.ndarray:
    """The code units of ``text``, one per character (bytes when it is ASCII,
    UTF-32 otherwise), padded with zeros for the widest window ``scan``
    reads past a text's last cell."""
    pad = bytes(4 * SCAN_UNITS)
    if text.isascii():
        return np.frombuffer(text.encode() + pad, dtype=np.uint8)
    return np.frombuffer(text.encode("utf-32-le") + pad, dtype=np.uint32)


class Table(NamedTuple):
    """The required columns of a CSV text. The cell of column ``c`` in data
    row ``r`` is ``text[starts[c, r]:ends[c, r]]``, and ``units`` holds the
    text's code units at the same offsets, and zeros past them. ``missing``,
    None unless a row is short, marks the cells past the end of a short row,
    which span nothing.
    ``lines`` holds the file line each data row starts on, and ``notes`` the
    comment rows above the header."""

    text: str
    units: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    missing: np.ndarray | None
    lines: np.ndarray
    notes: list[list[str]]

    def cells(self, c: int, rows=slice(None)) -> list:
        """Column ``c``'s cells in ``rows`` as strings, None for a missing one."""
        text = self.text
        cells = [text[a:b] for a, b in zip(self.starts[c, rows].tolist(),
                                             self.ends[c, rows].tolist())]
        if self.missing is not None:
            for k in np.flatnonzero(self.missing[c, rows]).tolist():
                cells[k] = None
        return cells


def split_table(text: str, required: tuple[str, ...]) -> Table | None:
    """The table in ``text`` as ``csv`` would read it, from one index of its
    commas and line feeds; or None when ``csv`` might tokenize ``text``
    otherwise, or reject it.

    The text is indexed when it holds no ``"`` and no ``\\r``, so that ``csv``
    reads one line per row and every cell as written; no cell is longer than
    ``csv.field_size_limit()``; its header names the required columns; and
    every data line holds the header's cell count and a first cell that is
    not a comment. Blank, whitespace-only and ragged lines miss that count,
    and so are left to ``csv``. Past the header, the counts, the cell lengths
    and the first cells are checked on the index; no line becomes a string.
    """
    if '"' in text or "\r" in text:
        return None
    limit = csv.field_size_limit()
    notes: list[list[str]] = []
    at = 0
    while True:  # the header is the first line neither blank nor a comment
        end = text.find("\n", at)
        row = text[at : end if end >= 0 else len(text)].split(",")
        if max(map(len, row)) > limit:
            return None  # csv refuses a cell that long
        if row != [""] and not is_comment(row):
            break
        if end < 0:
            return None
        notes.append(row)
        at = end + 1
    header = [c.strip() for c in row]
    if not set(required) <= set(header):
        return None
    width = len(header)
    body = len(text) if end < 0 else end + 1
    if body < len(text) and not text.endswith("\n"):
        text += "\n"  # the line feed that would end the last row
    units = code_units(text)
    # commas and line feeds lie at or below ",", digits and letters above it
    sep = (units[body : len(text)] <= 44).nonzero()[0]
    sep += body
    kinds = units[sep]
    feed = kinds == 10
    feeds = np.count_nonzero(feed)
    if feeds + np.count_nonzero(kinds == 44) < len(sep):
        keep = feed | (kinds == 44)
        sep, feed = sep[keep], feed[keep]
    # every line holds width - 1 commas and its line feed, in that order
    rows, odd = divmod(len(sep), width)
    if odd or feeds != rows or not feed[width - 1 :: width].all():
        return None
    starts = np.empty_like(sep)
    starts[:1] = body
    np.add(sep[:-1], 1, out=starts[1:])
    if len(text) - body > limit and (sep - starts).max() > limit:
        return None
    # a first cell that starts below "$" or past ASCII may be a comment, when
    # "#" follows its leading white space
    for r in ((units[starts[::width]] - 36) >= 92).nonzero()[0].tolist():
        if text[starts[r * width] : sep[r * width]].lstrip().startswith("#"):
            return None
    index = [header.index(name) for name in required]
    first = len(notes) + 2  # the file line of the first data row
    return Table(text, units, starts.reshape(rows, width).T[index],
                 sep.reshape(rows, width).T[index], None, np.arange(first, first + rows), notes)


def joined_table(columns: list[list], lines, notes: list[list[str]]) -> Table:
    """The table of ``columns``' cells, None for a missing one, with their
    texts joined into one."""
    cells = [cell for column in columns for cell in column]
    missing = None
    if None in cells:
        missing = np.array([cell is None for cell in cells]).reshape(len(columns), -1)
        cells = ["" if cell is None else cell for cell in cells]
    size = np.fromiter(map(len, cells), dtype=np.int64, count=len(cells))
    ends = np.cumsum(size).reshape(len(columns), -1)
    text = "".join(cells)
    return Table(text, code_units(text), ends - size.reshape(ends.shape), ends, missing,
                 np.array(lines, dtype=np.int64), notes)


#: 10**k for k = 0 to 18
_TENS = 10 ** np.arange(19, dtype=np.int64)

#: bytes of code units that ``scan`` gathers at once
SCAN_BYTES = 1 << 23


@functools.lru_cache(maxsize=16)
def _window(spans: tuple[int, ...], size: int, digits: int) -> tuple:
    """The constants of ``scan`` for columns whose cells it reads as
    ``spans[c]`` 64-bit words of ``size``-byte units, the first column a time
    of up to ``digits`` digits.

    The gathered words go in rows: the time's words first, then the other
    columns' words place by place, each place's columns in ``order``, widest
    first, so that the columns that reach a place are a prefix of those that
    reach the place before. Returned: each row's column, its offset in units
    and ``8 * (words - 1 - place)``; ``order``; for each place past the
    first, its first row among the text rows and its number of rows; by the
    bytes a cell holds past a word's start plus ``8 * (words - 1)``, the
    mask of those bytes and the "0"s to write past them; and by a time's
    length, whether its digits can be read and the power of ten that scales
    them.
    """
    order = sorted(range(1, len(spans)), key=lambda c: -spans[c])
    column, place, places = [0] * spans[0], list(range(spans[0])), []
    for k in range(max(spans[1:], default=0)):
        wide = [c for c in order if spans[c] > k]
        places.append((len(column) - spans[0], len(wide)))
        column += wide
        place += [k] * len(wide)
    words, place = max(spans), np.array(place)[:, None]
    held = np.clip(np.arange(-8 * (words - 1), 8 * words + 1), 0, 8)
    low = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)[held]
    zero = np.frombuffer(np.full(8 // size, ord("0"), f"<u{size}").tobytes(), "<u8")
    n = np.minimum(np.arange(SCAN_UNITS + 2), digits + 1)
    return (np.array(column), (8 // size) * place, 8 * (words - 1 - place), order,
            places[1:], low, zero & ~low, (n > 0) & (n <= digits),
            _TENS[digits - np.minimum(n, digits)])


def scan(table: Table) -> tuple[np.ndarray, np.ndarray]:
    """What the code units of a records table tell: each time (the first
    column) written as 1 to 18 ASCII digits, as int64, and -1 for any other;
    and which cells of the other columns hold the text of the cell above
    them, with equal length and equal units.

    A strided view of the padded units reads the 64-bit word at every
    offset. Each column's cells are read as many words as its widest
    cell spans: one gather per block of rows takes every word of every cell,
    and a mask, taken by length from a table, zeroes the bytes past each
    cell's end, so that cells of equal length are equal when their words
    are; a cell longer than ``SCAN_UNITS`` is read that far and never equals
    another. A time's words get "0"s past its end, and its units are read as
    one integer of as many digits as the widest time. The block bounds the
    memory of the gather.
    """
    units, starts = table.units, table.starts
    lens = table.ends - starts
    size = units.itemsize
    widest = lens.max(axis=1, initial=1).tolist()
    digits = min(widest[0], 18)
    spans = tuple(-(-min(w, SCAN_UNITS) * size // 8) for w in widest)
    column, ahead, shift, order, places, low, fill, readable, scale = (
        _window(spans, size, digits))
    tens = _TENS[:digits][::-1]
    word = np.ndarray(((units.nbytes - 8) // size + 1,), "<u8", units, strides=(size,))
    same = np.zeros(lens.shape, dtype=bool)
    value = np.empty(lens.shape[1], dtype=np.int64)
    step = max(1, SCAN_BYTES // (8 * len(column)))
    for a in range(0, lens.shape[1], step):
        lo, b = max(a - 1, 0), a + step
        at = starts[:, lo:b].take(column, axis=0, mode="clip")
        at += ahead
        cell = word[at]  # take would copy the whole strided view first
        lens[:, lo:b].take(column, axis=0, out=at, mode="clip")
        at *= size
        at += shift
        cell &= low.take(at, mode="clip")
        differ = cell[spans[0] :, 1:] != cell[spans[0] :, :-1]
        for first, count in places:
            differ[:count] |= differ[first : first + count]
        same[order, lo + 1 : b] = ~differ[: len(order)]
        time = cell[: spans[0], a - lo :] | fill.take(at[: spans[0], a - lo :], mode="clip")
        digit = np.ascontiguousarray(time.T).view(units.dtype)[:, :digits] - ord("0")
        n = lens[0, a:b]
        ok = readable.take(n, mode="clip")
        if digit.max() > 9:  # a unit below "0" wraps past 9 too
            ok &= (digit <= 9).all(axis=1)
        # with "0"s past its end, a time's digits read as time * 10**(digits - n)
        value[a:b] = np.where(ok, digit @ tens // scale.take(n, mode="clip"), -1)
    same[:, 1:] &= lens[:, 1:] == lens[:, :-1]
    if max(widest) > SCAN_UNITS:
        same[:, 1:] &= lens[:, 1:] <= SCAN_UNITS
    if table.missing is not None:
        same[:, 1:] &= table.missing[:, 1:] == table.missing[:, :-1]
    return value, same


def heads(table: Table, same: np.ndarray, columns: list[int]) -> list[tuple]:
    """For each of ``columns``, its runs of equal texts (``same`` as ``scan``
    gives it): the first cell of each run as a string, the row each run
    starts on and the row past its end, and each row's run."""
    head = ~same[columns]
    run = head.cumsum(axis=1) - 1
    which, first = head.nonzero()
    stop = np.empty_like(first)
    stop[:-1] = first[1:]
    ends = np.zeros(len(columns), dtype=np.int64)
    if len(first):  # each column's runs end where the next column's start
        ends = (run[:, -1] + 1).cumsum()
        stop[ends - 1] = same.shape[1]
    cells = table.cells(np.array(columns)[which], first)
    out, a = [], 0
    for k, e in enumerate(ends.tolist()):
        out.append((cells[a:e], first[a:e], stop[a:e], run[k]))
        a = e
    return out


def spread(values: np.ndarray, run: np.ndarray) -> np.ndarray:
    """One value per run of ``heads`` spread over the rows of its run."""
    return values if len(values) == len(run) else values[run]
