"""Joint coincidence-count ingest and detector-to-source unit conversion.

A scan file is line-oriented text: "# key=value" header lines carrying the
optical geometry, then one comma-separated row of nonnegative integers per
detector-1 position. Diagonal sums of the count matrix give the binned
sum/difference marginals on the base global-variable grid, whose width
follows from the optics: 2*s_x*(f1/f2) for position scans and
2*s_p*(2*pi/(f3*lambda)) for momentum scans.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binning import MAX_COUNT, BinGrid, CountHistogram, frozen_counts
from .errors import ConfigurationError, InvalidParameterError, ParseError

_GEOMETRY_KEYS = (
    "f1_mm",
    "f2_mm",
    "f3_mm",
    "lambda_mm",
    "s_x_mm",
    "s_p_mm",
    "micrometer_step_mm",
)
_REQUIRED_KEYS = ("variable_pair", "step_mm") + _GEOMETRY_KEYS


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
            _check_positive(key, getattr(self, key))


def _check_positive(key: str, v) -> None:
    """Refuse anything but a finite positive real number.

    Python and numpy ints and floats pass; bools (an int that saves as
    "True") and ints beyond the float range do not.
    """
    ok = isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
    try:
        ok = ok and math.isfinite(v) and v > 0
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        raise InvalidParameterError(f"{key} must be a finite positive number, got {v!r}")


def detector_to_source_scale(geometry: OpticalGeometry, variable_pair: str) -> float:
    """Width of the base global-variable bin implied by the optics.

    A detector cell of side w covers an interval of length 2w of the
    sum/difference coordinate, hence the leading factor 2.
    """
    if variable_pair == "position":
        return 2.0 * geometry.s_x_mm * (geometry.f1_mm / geometry.f2_mm)
    if variable_pair == "momentum":
        return 2.0 * geometry.s_p_mm * (2.0 * math.pi / (geometry.f3_mm * geometry.lambda_mm))
    raise InvalidParameterError(
        f"variable_pair must be 'position' or 'momentum', got {variable_pair!r}"
    )


@dataclass(frozen=True, eq=False)
class JointCounts:
    """One joint scan: integer coincidence counts on a detector grid.

    counts[row, col] is the count with detector 1 at index i0+row and
    detector 2 at index j0+col; physical scan positions are index*step.
    By default the scan origin is the grid center.
    """

    variable_pair: str
    step: float
    counts: np.ndarray
    geometry: OpticalGeometry
    i0: int | None = None
    j0: int | None = None

    def __post_init__(self):
        if self.variable_pair not in ("position", "momentum"):
            raise InvalidParameterError(
                f"variable_pair must be 'position' or 'momentum', got {self.variable_pair!r}"
            )
        _check_positive("step", self.step)
        c = np.asarray(self.counts)
        if c.ndim != 2 or c.size == 0:
            raise InvalidParameterError("counts must be a non-empty 2-D array")
        c = frozen_counts(c)
        object.__setattr__(self, "counts", c)
        for key, length in zip(("i0", "j0"), c.shape):
            v = getattr(self, key)
            if v is None:
                v = -((length - 1) // 2)
            elif isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise InvalidParameterError(f"{key} must be an integer, got {v!r}")
            object.__setattr__(self, key, int(v))

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def global_marginal(jc: JointCounts, sign: str) -> CountHistogram:
    """Sum (sign '+') or difference (sign '-') marginal by diagonal summation.

    Bin k collects every cell with i+j = k (resp. i-j = k); the histogram
    lives on the base global-variable grid for this scan. Exact in integer
    arithmetic, so counts are conserved.
    """
    if sign not in ("+", "-"):
        raise InvalidParameterError(f"sign must be '+' or '-', got {sign!r}")
    rows, cols = jc.counts.shape
    i = jc.i0 + np.arange(rows)[:, None]
    j = jc.j0 + np.arange(cols)[None, :]
    k = i + j if sign == "+" else i - j
    k_min, k_max = int(k.min()), int(k.max())
    sums = np.zeros(k_max - k_min + 1, dtype=np.int64)
    np.add.at(sums, (k - k_min).ravel(), jc.counts.ravel())
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

    The count block after the leading headers is read by one np.loadtxt
    call. A block that it refuses, or that fails a check, is read again
    line by line with the rest of the file; only that line reader raises
    line-numbered errors, so they are the same on either path.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    start = _data_start(data)
    counts = None if start is None else _loadtxt_counts(data[start:])
    if counts is None:
        header, rows = _parse_lines(data)
        counts = np.array(rows, dtype=np.int64)
    else:
        header, _ = _parse_lines(data[:start])
    del data  # free the file before JointCounts copies the counts
    return _joint_counts(header, counts)


def _data_start(data: bytes) -> int | None:
    """Byte offset of the first data line, or None if there is none.

    Lines are told apart by the rules of _parse_lines; a line that is not
    UTF-8 before any data also gives None, so that parser reports it.
    """
    offset = 0
    for raw in data.splitlines(keepends=True):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            return None
        if line and not line.startswith("#"):
            return offset
        offset += len(raw)
    return None


def _loadtxt_counts(block: bytes) -> np.ndarray | None:
    """The count matrix of a block of data lines, or None to fall back.

    Takes only what np.loadtxt reads exactly as int() does: ASCII text
    (loadtxt reads some other letters as digits) with no "#", since a
    header after data must raise, and none of the bytes 0x1c-0x1f, which
    loadtxt skips as whitespace where int() refuses them. BytesIO splits
    lines at LF alone and loadtxt rejects a CR inside a line, so CR-only
    line endings fall back, as do "1_000" and values beyond int64. Negative
    counts are left to _parse_lines, for its line number.
    """
    if any(byte in block for byte in b"#\x1c\x1d\x1e\x1f"):
        return None
    try:
        counts = np.loadtxt(
            io.BytesIO(block), encoding="ascii", delimiter=",", dtype=np.int64, ndmin=2, comments=None
        )
    except ValueError:  # UnicodeDecodeError included
        return None
    if counts.size == 0 or counts.min() < 0:
        return None
    return counts


def _parse_lines(data: bytes) -> tuple[dict[str, str], list[list[int]]]:
    """Header and count rows of a scan file, one line at a time."""
    header: dict[str, str] = {}
    rows: list[list[int]] = []
    row_len = None
    # bytes.splitlines breaks at \n, \r\n and \r, like text-mode reading
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise ParseError("line is not UTF-8 text", line_number=lineno) from None
        if not line:
            continue
        if line.startswith("#"):
            if rows:
                raise ParseError("header line after data", line_number=lineno)
            body = line.lstrip("#").strip()
            key, sep, value = body.partition("=")
            if not sep:
                raise ParseError(f"malformed header {line!r}", line_number=lineno)
            header[key.strip()] = value.strip()
            continue
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
    return header, rows


def _joint_counts(header: dict[str, str], counts: np.ndarray) -> JointCounts:
    """Validate the parsed header and wrap it with the counts."""
    for key in _REQUIRED_KEYS:
        if key not in header:
            raise ParseError(f"missing required header key {key!r}")
    if counts.size == 0:
        raise ParseError("file contains no count rows")
    pair = header["variable_pair"]
    if pair not in ("position", "momentum"):
        raise ParseError(f"unknown variable_pair {pair!r}")

    def _float(key: str) -> float:
        try:
            return float(header[key])
        except ValueError:
            raise ParseError(f"header key {key!r} is not a number") from None

    def _int(key: str) -> int:
        try:
            return int(header[key])
        except ValueError:
            raise ParseError(f"header key {key!r} is not an integer") from None

    try:
        geometry = OpticalGeometry(**{key: _float(key) for key in _GEOMETRY_KEYS})
        return JointCounts(
            variable_pair=pair,
            step=_float("step_mm"),
            counts=counts,
            geometry=geometry,
            i0=_int("i0") if "i0" in header else None,
            j0=_int("j0") if "j0" in header else None,
        )
    except InvalidParameterError as exc:
        raise ParseError(str(exc)) from exc
