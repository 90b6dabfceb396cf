"""Independent reference for `cgwitness sweep` output.

Every witness value is rebuilt from the scan files with plain numpy: the
diagonal sums come from `numpy.trace`, rebinning from padding and
reshaping, and the statistics from their textbook formulas. Only the
bound constant C(gamma) comes from the package, through the public
`entropic_bound_constant`. The checks do not touch any other package code,
so they keep holding when the package is restructured.
"""

from __future__ import annotations

import math
import os

import numpy as np

VALUE_ATOL = 1e-7
# The Monte-Carlo reference draws this many times the sweep's replicates.
MC_REF_FACTOR = 4
MC_CELLS = 3
MC_SIGMAS = 5.0
# A row whose threshold sum sits this close to 0 may flip on %.12g rounding.
DETECT_SLACK = 1e-9

WITNESSES = ("coarse_variance", "coarse_entropic", "naive_discrete")
PAIRING_SIGNS = {"pm": ("+", "-"), "mp": ("-", "+")}


def read_scan(path) -> dict:
    """Header dict, int64 count matrix and scan origin of one scan file."""
    header: dict[str, str] = {}
    data: list[str] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line.lstrip("#").strip().partition("=")
                header[key.strip()] = value.strip()
            else:
                data.append(line)
    ncols = data[0].count(",") + 1
    counts = np.array(",".join(data).split(","), dtype=np.int64).reshape(len(data), ncols)
    rows, cols = counts.shape
    i0 = int(header["i0"]) if "i0" in header else -((rows - 1) // 2)
    j0 = int(header["j0"]) if "j0" in header else -((cols - 1) // 2)
    return {"header": header, "counts": counts, "i0": i0, "j0": j0}


def base_width(header: dict) -> float:
    """Width of the base global-variable bin implied by the optics."""
    g = {k: float(header[k]) for k in ("f1_mm", "f2_mm", "f3_mm", "lambda_mm", "s_x_mm", "s_p_mm")}
    if header["variable_pair"] == "position":
        return 2.0 * g["s_x_mm"] * (g["f1_mm"] / g["f2_mm"])
    return 2.0 * g["s_p_mm"] * (2.0 * math.pi / (g["f3_mm"] * g["lambda_mm"]))


def diagonal_marginal(scan: dict, sign: str) -> tuple[int, np.ndarray]:
    """(lowest global index, counts) of the sum or difference marginal."""
    c = scan["counts"]
    rows, cols = c.shape
    if sign == "+":
        flipped = c[:, ::-1]
        sums = [np.trace(flipped, offset=cols - 1 - s) for s in range(rows + cols - 1)]
        return scan["i0"] + scan["j0"], np.array(sums, dtype=np.int64)
    sums = [np.trace(c, offset=-d) for d in range(-(cols - 1), rows)]
    return scan["i0"] - scan["j0"] - (cols - 1), np.array(sums, dtype=np.int64)


def group_bins(k_min: int, counts: np.ndarray, factor: int) -> tuple[int, np.ndarray]:
    """Merge runs of `factor` bins so that group J covers J*factor +- half."""
    half = (factor - 1) // 2
    g_min = (k_min + half) // factor
    left = k_min - (g_min * factor - half)
    total = left + counts.size
    right = -total % factor
    padded = np.concatenate([np.zeros(left, np.int64), counts, np.zeros(right, np.int64)])
    return g_min, padded.reshape(-1, factor).sum(axis=1)


def moments(g_min: int, counts: np.ndarray, width: float) -> tuple[float, float]:
    """Variance of the bin masses over the bin centers, and their entropy."""
    z = (g_min + np.arange(counts.size)) * width
    q = counts / counts.sum()
    mean = float(np.sum(q * z))
    var = float(np.sum(q * (z - mean) ** 2))
    nz = q[q > 0]
    return var, float(-np.sum(nz * np.log(nz)))


def row_entropies(draws: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row of a count matrix (rows with counts)."""
    totals = draws.sum(axis=1).astype(np.float64)
    x = draws.astype(np.float64)
    xlogx = np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0)
    return np.log(totals) - xlogx.sum(axis=1) / totals


class Reference:
    """Expected sweep values for one (position, momentum) scan pair."""

    def __init__(self, position_path, momentum_path, n_list, m_list, bound_constant):
        self.scans = {"position": read_scan(position_path), "momentum": read_scan(momentum_path)}
        self.n_list, self.m_list = list(n_list), list(m_list)
        self.width = {k: base_width(s["header"]) for k, s in self.scans.items()}
        self.base = {
            (k, sign): diagonal_marginal(s, sign) for k, s in self.scans.items() for sign in "+-"
        }
        self.binned = {}
        self.stats = {}
        for (axis, sign), (k_min, counts) in self.base.items():
            for f in self.n_list if axis == "position" else self.m_list:
                g_min, grouped = group_bins(k_min, counts, f)
                self.binned[axis, sign, f] = grouped
                self.stats[axis, sign, f] = moments(g_min, grouped, f * self.width[axis])
        self.values = {}
        for n in self.n_list:
            for m in self.m_list:
                w_r, w_s = n * self.width["position"], m * self.width["momentum"]
                c = float(bound_constant(w_r * w_s))
                for pairing, (sr, ss) in PAIRING_SIGNS.items():
                    var_r, h_r = self.stats["position", sr, n]
                    var_s, h_s = self.stats["momentum", ss, m]
                    self.values[n, m, pairing, "coarse_variance"] = (
                        (var_r + w_r * w_r / 12.0) * (var_s + w_s * w_s / 12.0) - 1.0
                    )
                    self.values[n, m, pairing, "naive_discrete"] = var_r * var_s - 1.0
                    self.values[n, m, pairing, "coarse_entropic"] = (
                        h_r + math.log(w_r) + h_s + math.log(w_s) + math.log(c)
                    )

    def mc_uncertainty(self, n: int, m: int, pairing: str, replicates: int, rng) -> float:
        """Poisson-resampling standard error of one coarse_entropic cell.

        Zero-count bins always draw 0, so only occupied bins are resampled;
        bin centres do not enter entropies, so no centre jitter is drawn.
        """
        sr, ss = PAIRING_SIGNS[pairing]
        h = np.zeros(replicates)
        for grouped in (self.binned["position", sr, n], self.binned["momentum", ss, m]):
            lam = grouped[grouped > 0]
            h += row_entropies(rng.poisson(lam, size=(replicates, lam.size)))
        return float(np.std(h, ddof=1))

    def input_sizes(self, paths) -> dict:
        """Scan shapes, bytes, totals, and base-marginal bins and zero fraction."""
        out = {}
        for axis, scan in self.scans.items():
            out[axis] = {
                "shape": list(scan["counts"].shape),
                "bytes": os.path.getsize(paths[axis]),
                "total_counts": int(scan["counts"].sum()),
                "base_width": self.width[axis],
                "marginals": {
                    sign: {
                        "bins": int(self.base[axis, sign][1].size),
                        "zero_bin_frac": float(np.mean(self.base[axis, sign][1] == 0)),
                    }
                    for sign in "+-"
                },
            }
        return out


def parse_sweep_csv(text: str) -> tuple[list[dict], list[dict]]:
    """Rows of the `# sweep` and `# diagonal` sections of a sweep CSV."""
    sections: dict[str, list[dict]] = {}
    current = None
    columns = None
    for line in text.splitlines():
        if line.startswith("# "):
            current = sections.setdefault(line[2:].strip(), [])
            columns = None
        elif columns is None:
            columns = line.split(",")
        elif current is not None:
            cells = line.split(",")
            if len(cells) != len(columns):
                raise ValueError(f"row {line!r} has {len(cells)} cells, header has {len(columns)}")
            current.append(dict(zip(columns, cells)))
    return sections.get("sweep", []), sections.get("diagonal", [])


def check_sweep(
    text: str,
    ref: Reference,
    *,
    errors: bool,
    nsigma: float,
    replicates: int,
    mc_reference: dict,
) -> list[str]:
    """Problems found in one sweep CSV; an empty list means it passed."""
    problems: list[str] = []
    try:
        rows, diagonal = parse_sweep_csv(text)
        seen = {}
        for row in rows:
            key = (int(row["n"]), int(row["m"]), row["pairing"], row["witness_id"])
            if key in seen:
                problems.append(f"duplicate row {key}")
            seen[key] = row
    except (KeyError, ValueError) as exc:
        return [f"unparseable output: {exc!r}"]
    expected = set(ref.values)
    if set(seen) != expected:
        missing = sorted(expected - set(seen))[:3]
        extra = sorted(set(seen) - expected)[:3]
        problems.append(f"row set differs: missing {missing}, unexpected {extra}")
    for key, row in seen.items():
        if key not in ref.values:
            continue
        try:
            value = float(row["value"])
            unc = float(row["uncertainty"]) if row["uncertainty"] else 0.0
        except ValueError:
            problems.append(f"{key}: non-numeric value or uncertainty")
            continue
        if not abs(value - ref.values[key]) <= VALUE_ATOL:
            problems.append(f"{key}: value {value!r} vs reference {ref.values[key]!r}")
        if errors and not (row["uncertainty"] and math.isfinite(unc) and unc >= 0):
            problems.append(f"{key}: uncertainty {unc!r} is not a standard error")
        margin = value + nsigma * unc
        if abs(margin) > DETECT_SLACK and row["detected"] != ("true" if margin < 0 else "false"):
            problems.append(f"{key}: detected={row['detected']} but value+nsigma*unc={margin!r}")
    diag_keys = [(r["n"], r["m"], r["pairing"], r["witness_id"]) for r in diagonal]
    want = [(r["n"], r["m"], r["pairing"], r["witness_id"]) for r in rows if r["n"] == r["m"]]
    if diag_keys != want:
        problems.append("diagonal section is not the n == m rows of the sweep section")
    tol = MC_SIGMAS / math.sqrt(2.0 * replicates)
    for (n, m, pairing), u_ref in mc_reference.items():
        row = seen.get((n, m, pairing, "coarse_entropic"))
        if row is None or not row["uncertainty"]:
            continue  # reported above
        u = float(row["uncertainty"])
        if not abs(u - u_ref) <= tol * u_ref:
            problems.append(
                f"({n}, {m}, {pairing}) coarse_entropic uncertainty {u!r} vs "
                f"independent Poisson estimate {u_ref!r} (relative tolerance {tol:.3g})"
            )
    return problems


def mc_reference(ref: Reference, replicates: int, seed: int) -> dict:
    """Independent uncertainties for a few seed-chosen coarse_entropic cells."""
    rng = np.random.default_rng([seed, 0x5EED])
    cells = [(n, m, p) for n in ref.n_list for m in ref.m_list for p in PAIRING_SIGNS]
    picks = rng.choice(len(cells), size=min(MC_CELLS, len(cells)), replace=False)
    return {
        cells[i]: ref.mc_uncertainty(*cells[i], MC_REF_FACTOR * replicates, rng)
        for i in sorted(picks)
    }
