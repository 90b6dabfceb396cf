"""Joint coincidence-count ingest and the optics of the two scan axes.

A scan file is line-oriented text: "# key=value" header lines carrying the
optical geometry, then one comma-separated row of nonnegative integers per
detector-1 position. A count block of plain digits, commas and LF or CR
LF line ends is parsed by numpy in fixed-size chunks; any other block is
read line by line. Diagonal sums of the count matrix give the binned
sum/difference marginals on the base global-variable grid.

The scan axes are "position" and "momentum" (check_variable_pair). Their
base bin widths (detector_to_source_scale) are 2*s_x*(f1/f2) and
2*s_p*(2*pi/(f3*lambda)); the micrometer error of the center of a bin
rebinned by f (bin_center_error) is step*sqrt(2) times f*(f1/f2) and
2*f*pi/(f3*lambda).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .binning import MAX_COUNT, MAX_INDEX, BinGrid, CountHistogram, frozen_counts
from .errors import ConfigurationError, InvalidParameterError, ParseError, check_int, check_real


def check_variable_pair(variable_pair) -> str:
    """variable_pair unchanged if it names a scan axis; otherwise InvalidParameterError."""
    if variable_pair not in ("position", "momentum"):
        raise InvalidParameterError(
            f"variable_pair must be 'position' or 'momentum', got {variable_pair!r}"
        )
    return variable_pair


@dataclass(frozen=True)
class OpticalGeometry:
    """Lens/slit parameters that map detector indices to source-plane units.

    All lengths in mm. Defaults reproduce the reference setup: a 4x imaging
    telescope (f1=50, f2=200) for position scans, a single f3=250 Fourier
    lens for momentum scans, 650 nm photons, and slit widths s_x=0.050 mm,
    s_p=0.020 mm. The micrometer step bounds the slit-placement error.
    """

    f1_mm: float = 50.0
    f2_mm: float = 200.0
    f3_mm: float = 250.0
    lambda_mm: float = 6.5e-4
    s_x_mm: float = 0.05
    s_p_mm: float = 0.02
    micrometer_step_mm: float = 0.01

    def __post_init__(self):
        for key in _GEOMETRY_KEYS:
            check_real(key, getattr(self, key), 0, closed=False)


_GEOMETRY_KEYS = tuple(f.name for f in fields(OpticalGeometry))
_REQUIRED_KEYS = ("variable_pair", "step_mm") + _GEOMETRY_KEYS


def detector_to_source_scale(geometry: OpticalGeometry, variable_pair: str) -> float:
    """Width of the base global-variable bin implied by the optics.

    A detector cell of side w covers an interval of length 2w of the
    sum/difference coordinate, hence the leading factor 2.
    """
    if check_variable_pair(variable_pair) == "position":
        return 2.0 * geometry.s_x_mm * (geometry.f1_mm / geometry.f2_mm)
    return 2.0 * geometry.s_p_mm * (2.0 * math.pi / (geometry.f3_mm * geometry.lambda_mm))


@dataclass(frozen=True, eq=False)
class JointCounts:
    """One joint scan: integer coincidence counts on a detector grid.

    counts[row, col] is the count with detector 1 at index i0+row and
    detector 2 at index j0+col; physical scan positions are index*step.
    By default the scan origin is the grid center. Indices lie within
    +/-MAX_INDEX/2, so every i + j and i - j is a valid bin index.
    """

    variable_pair: str
    step: float
    counts: np.ndarray
    geometry: OpticalGeometry
    i0: int | None = None
    j0: int | None = None

    def __post_init__(self):
        check_variable_pair(self.variable_pair)
        check_real("step", self.step, 0, closed=False)
        c = np.asarray(self.counts)
        if c.ndim != 2 or c.size == 0:
            raise InvalidParameterError("counts must be a non-empty 2-D array")
        c = frozen_counts(c)
        object.__setattr__(self, "counts", c.view())  # see frozen_counts
        half = MAX_INDEX // 2
        for key, length in zip(("i0", "j0"), c.shape):
            v = getattr(self, key)
            v = -((length - 1) // 2) if v is None else check_int(key, v, -half, half - length + 1)
            object.__setattr__(self, key, v)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def bin_center_error(jc: JointCounts, factor: int) -> float:
    """Center-placement error of a factor-wide bin of jc's scan (mm or 1/mm)."""
    g = jc.geometry
    step = g.micrometer_step_mm
    if jc.variable_pair == "position":
        return step * math.sqrt(2.0) * factor * (g.f1_mm / g.f2_mm)
    return step * math.sqrt(2.0) * (2.0 * factor * math.pi / (g.f3_mm * g.lambda_mm))


def global_marginal(jc: JointCounts, sign: str) -> CountHistogram:
    """Sum (sign '+') or difference (sign '-') marginal by diagonal summation.

    Bin k collects every cell with i+j = k (resp. i-j = k); the histogram
    lives on the base global-variable grid for this scan. Exact in integer
    arithmetic, so counts are conserved.

    With the columns reversed for '-', cell [r, col] falls in bin
    k_min + r + col, also after a transpose, so each line of the shorter
    axis adds into a shifted slice of the output: min(rows, cols) vector
    adds, no scan-sized temporaries.
    """
    if sign not in ("+", "-"):
        raise InvalidParameterError(f"sign must be '+' or '-', got {sign!r}")
    rows, cols = jc.counts.shape
    if sign == "+":
        c, k_min = jc.counts, jc.i0 + jc.j0
    else:
        c, k_min = jc.counts[:, ::-1], jc.i0 - jc.j0 - (cols - 1)
    k_max = k_min + rows + cols - 2
    sums = np.zeros(rows + cols - 1, dtype=np.int64)
    if rows > cols:
        c = c.T
    for r, line in enumerate(c):
        sums[r : r + line.size] += line
    width = detector_to_source_scale(jc.geometry, jc.variable_pair)
    return CountHistogram(BinGrid(width, k_min, k_max), sums)


def ensure_matching_geometry(a: JointCounts, b: JointCounts) -> None:
    """Require two scans to share one optical setup.

    Raises ConfigurationError naming the first differing field.
    """
    for key in _GEOMETRY_KEYS:
        va, vb = getattr(a.geometry, key), getattr(b.geometry, key)
        if va != vb:
            raise ConfigurationError(
                f"geometry mismatch between scans: {key} is {va} vs {vb}"
            )


def save_joint_counts(jc: JointCounts, path) -> None:
    """Write a JointCounts to the line-oriented text format.

    Header values are written as Python floats and ints, so numpy scalars
    round-trip too. Each distinct count below min(max + 1, cells) is
    formatted once and gathered over the matrix; the rare larger cells are
    formatted one by one. The rows are those of str(v) joined by ",".
    """
    g = jc.geometry
    lines = [
        f"# variable_pair={jc.variable_pair}",
        f"# step_mm={float(jc.step)!r}",
    ]
    lines += [f"# {key}={float(getattr(g, key))!r}" for key in _GEOMETRY_KEYS]
    lines += [f"# i0={jc.i0}", f"# j0={jc.j0}"]
    c = jc.counts
    size = min(int(c.max()) + 1, c.size)
    table = np.array([str(v) for v in range(size)], dtype=object)
    cells = table[np.minimum(c, size - 1)]
    above = c >= size
    if above.any():
        cells[above] = [str(v) for v in c[above].tolist()]
    lines += map(",".join, cells.tolist())
    Path(path).write_text("\n".join(lines) + "\n")


def load_joint_counts(path) -> JointCounts:
    """Parse a scan file, validating headers and the count matrix.

    Raises ParseError (with the offending line number) on missing or
    malformed headers, text that is not UTF-8, non-integer or negative
    counts, counts above the int64 range, and ragged rows.

    The header is read line by line from the start of the file. From the
    first data line, _parse_counts reads a block of digits, commas and LF
    or CR LF line ends in chunks straight into the count matrix; any other
    block is read again, whole, by the line reader. Only the line reader
    raises errors on counts, so they are the same on either path. The
    parsed matrix is frozen in place and the JointCounts keeps it, so a
    load holds about one count-sized array, never a copy of the file.
    """
    with open(path, "rb") as fh:
        header, start, lineno = _read_header(fh)
        fh.seek(start)
        counts = _parse_counts(fh)
        if counts is None:
            fh.seek(start)
            counts = np.array(_parse_rows(fh.read(), lineno), dtype=np.int64)
    counts.setflags(write=False)  # so frozen_counts takes it without a copy
    return _joint_counts(header, counts)


def _decoded(raw: bytes, lineno: int) -> str:
    try:
        return raw.decode("utf-8").strip()
    except UnicodeDecodeError:
        raise ParseError("line is not UTF-8 text", line_number=lineno) from None


def _read_header(fh) -> tuple[dict[str, str], int, int]:
    """Header of a binary scan file, then the byte offset and line number of its first data line.

    Header lines start with "#"; blank lines are skipped. Without a data
    line the offset is the file's length. Lines end at LF, CR LF or CR, as
    in text-mode reading. The file is read one LF-ended piece at a time,
    so the count block after the header is never read whole.
    """
    header: dict[str, str] = {}
    offset, lineno = 0, 1
    for piece in fh:  # a piece ends at LF, so no CR LF pair is split
        for raw in piece.splitlines(keepends=True):
            line = _decoded(raw, lineno)
            if line.startswith("#"):
                key, sep, value = line.lstrip("#").strip().partition("=")
                if not sep:
                    raise ParseError(f"malformed header {line!r}", line_number=lineno)
                header[key.strip()] = value.strip()
            elif line:
                return header, offset, lineno
            offset += len(raw)
            lineno += 1
    return header, offset, lineno


#: Bytes read at a time by each pass of _parse_counts. A run of lines then
#: holds about 16 Ki tokens, so its int64 index arrays stay near 128 KiB,
#: glibc's default mmap threshold. Larger ones, once freed, raise that
#: threshold and the heap keeps up to twice their size: at 64 KiB the
#: large_scan sweep's peak RSS moved between 45.0 and 45.7 MB from run to run.
_CHUNK = 1 << 15
#: Longest token _parse_counts takes; 10**18 - 1 is below MAX_COUNT.
_MAX_DIGITS = 18
_POW10 = [np.int64(10**k) for k in range(_MAX_DIGITS)]
_TAKEN = b"0123456789,\r\n"


def _parse_counts(fh) -> np.ndarray | None:
    """The count matrix of the data lines of a binary file from its position on, or None to fall back.

    Takes only lines of comma-separated tokens of 1 to _MAX_DIGITS ASCII
    digits, each holding as many tokens as the first and ended by LF or
    CR LF (the last line may lack its end), so every value is int() of its
    token and at most MAX_COUNT. A first pass reads the block _CHUNK bytes
    at a time, refuses any other byte and any CR not followed by LF, and
    counts the lines and the first line's tokens. A second pass reads the
    same bytes again, runs of whole lines at a time, into one (lines, cols)
    int64 array: the separators' positions mark the tokens, whose digits
    are added from the last one leftwards. Every cols-th separator must be
    an LF and the tokens must fill the array exactly, so, with the line
    count of the first pass, every line holds cols tokens. Anything else
    returns None, for _parse_rows to read line by line: spaces, signs,
    "#", blank lines, CR-only line ends, empty or longer tokens, ragged
    rows and an empty block.
    """
    start = fh.tell()
    size = lines = 0
    cr = False  # the last chunk ended in CR
    tail = b""
    while chunk := fh.read(_CHUNK):
        if chunk.translate(None, _TAKEN):
            return None
        if cr or b"\r" in chunk:  # each CR must precede an LF
            if cr and chunk[0] != ord("\n"):
                return None
            cr = chunk.endswith(b"\r")
            if chunk.count(b"\r") - cr != chunk.count(b"\r\n"):
                return None
        size += len(chunk)
        # LF is the one byte below CR in a checked chunk
        lines += np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) < ord("\r"))
        tail = chunk[-1:]
    if cr or not size:
        return None
    lines += tail != b"\n"
    fh.seek(start)
    cols = fh.readline().count(b",") + 1
    if 2 * lines * cols > size + 1:  # each token takes a digit and a separator
        return None
    fh.seek(start)
    counts = np.empty((lines, cols), dtype=np.int64)
    flat = counts.reshape(-1)
    filled, pieces = 0, []
    while chunk := fh.read(_CHUNK):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            pieces.append(chunk[:cut])
            filled = _fill_lines(b"".join(pieces), flat, filled, cols)
            if filled is None:
                return None
            pieces = []
        pieces.append(chunk[cut:])
    if any(pieces):
        filled = _fill_lines(b"".join(pieces) + b"\n", flat, filled, cols)
    return counts if filled == flat.size else None


def _fill_lines(block: bytes, flat: np.ndarray, filled: int, cols: int) -> int | None:
    """Parse LF-ended lines of digits and commas into flat from filled on; the new fill, or None.

    Bytes are only compared with "<" and ">=" and cast to int64 by
    assignment or astype before any arithmetic, so no value depends on
    numpy's scalar promotion rules (under numpy 1.x, a uint8 array times an
    int64 scalar stays uint8 and wraps) and no other uint8 kernel maps more
    of numpy's code into the process, which a sweep of small scans shows in
    its peak memory.
    """
    if b"\r" in block:  # each CR precedes an LF
        block = block.replace(b"\r", b"")
    a = np.frombuffer(block, dtype=np.uint8)
    pos = (a < ord("0")).nonzero()[0]  # each token's "," or LF
    n = pos.size
    lines = n // cols
    if n % cols or filled + n > flat.size:
        return None
    if np.count_nonzero(a[pos[cols - 1 :: cols]] < ord(",")) != lines:  # LF < ","
        return None
    pos -= 1  # each token's last digit; a[-1] is an LF
    digit = a[pos]
    if np.count_nonzero(digit < ord("0")):  # a separator: an empty token
        return None
    out = flat[filled : filled + n]
    out[:] = digit
    out -= ord("0")
    tokens = None  # those with a k-th digit from the right: all of them so far
    for k in range(1, _MAX_DIGITS + 1):
        pos -= 1
        digit = a[pos]
        more = (digit >= ord("0")).nonzero()[0]
        if not more.size:
            return filled + n
        if k == _MAX_DIGITS:
            return None
        pos, digit = pos[more], digit[more]
        tokens = more if tokens is None else tokens[more]
        value = digit.astype(np.int64)
        value -= ord("0")
        value *= _POW10[k]
        out[tokens] += value


def _parse_rows(block: bytes, first_lineno: int) -> list[list[int]]:
    """Count rows of the data lines of a scan file, one line at a time."""
    rows: list[list[int]] = []
    row_len = None
    for lineno, raw in enumerate(block.splitlines(), start=first_lineno):
        line = _decoded(raw, lineno)
        if not line:
            continue
        if line.startswith("#"):
            raise ParseError("header line after data", line_number=lineno)
        try:
            row = [int(tok) for tok in line.split(",")]
        except ValueError:
            raise ParseError(f"non-integer count in {line!r}", line_number=lineno) from None
        if any(v < 0 for v in row):
            raise ParseError("negative count", line_number=lineno)
        if max(row) > MAX_COUNT:
            raise ParseError(f"count above {MAX_COUNT}", line_number=lineno)
        if row_len is None:
            row_len = len(row)
        elif len(row) != row_len:
            raise ParseError(
                f"ragged row: expected {row_len} values, got {len(row)}",
                line_number=lineno,
            )
        rows.append(row)
    return rows


def _joint_counts(header: dict[str, str], counts: np.ndarray) -> JointCounts:
    """Validate the parsed header and wrap it with the counts."""
    for key in _REQUIRED_KEYS:
        if key not in header:
            raise ParseError(f"missing required header key {key!r}")
    if counts.size == 0:
        raise ParseError("file contains no count rows")

    def number(key: str, kind=float):
        try:
            return kind(header[key]) if key in header else None
        except ValueError:
            raise ParseError(
                f"header key {key!r} is not {'a number' if kind is float else 'an integer'}"
            ) from None

    try:
        geometry = OpticalGeometry(**{key: number(key) for key in _GEOMETRY_KEYS})
        return JointCounts(
            variable_pair=header["variable_pair"],
            step=number("step_mm"),
            counts=counts,
            geometry=geometry,
            i0=number("i0", int),
            j0=number("j0", int),
        )
    except InvalidParameterError as exc:
        raise ParseError(str(exc)) from exc
