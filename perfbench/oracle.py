"""Input generation and output checks for the qpolar benchmark.

Everything here is plain numpy and independent of the library under test:
the inputs are written as QMAT text, and each output is judged against
numpy.linalg on the complex block image chi_T = [[A1, A2], [-conj(A2),
conj(A1)]] of T = A1 + A2 j.
"""

from __future__ import annotations

import numpy as np

# |T| may differ from numpy's singular values of chi_T by this share of ||T||
SV_TOL = 1e-9


def chi_image(a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    return np.block([[a1, a2], [-np.conj(a2), np.conj(a1)]])


def planted_rank(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    """chi image of a random n x n quaternion matrix of quaternionic rank `rank`.

    Full rank is one Gaussian draw; lower rank is the product of an n x rank
    and a rank x n draw, formed on the block images (chi is multiplicative).
    """
    def draw(rows, cols):
        a1 = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        a2 = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        return chi_image(a1, a2)

    if rank == n:
        return draw(n, n)
    return draw(n, rank) @ draw(rank, n)


def format_qmat(chi_t: np.ndarray) -> str:
    """QMAT text of the quaternion matrix whose block image is chi_t."""
    n = chi_t.shape[0] // 2
    a1, a2 = chi_t[:n, :n], chi_t[:n, n:]
    lines = [f"QMAT {n} {n}"]
    for r in range(n):
        fields = []
        for c in range(n):
            p, q = complex(a1[r, c]), complex(a2[r, c])
            fields.append(f"{p.real!r} {p.imag!r} {q.real!r} {q.imag!r}")
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def _header_value(text: str, key: str) -> str | None:
    prefix = f"# {key} "
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def parse_section(text: str, marker: str) -> np.ndarray:
    """chi image of the QMAT block that follows the line `# <marker>`."""
    lines = text.splitlines()
    start = lines.index(f"# {marker}") + 1
    head = lines[start].split()
    if head[0] != "QMAT" or head[1] != head[2]:
        raise ValueError(f"bad QMAT header {lines[start]!r}")
    n = int(head[1])
    vals = np.array([[float(x) for x in lines[start + 1 + r].split()]
                     for r in range(n)])
    if vals.shape != (n, 4 * n):
        raise ValueError(f"section {marker} has shape {vals.shape}")
    a1 = vals[:, 0::4] + 1j * vals[:, 1::4]
    a2 = vals[:, 2::4] + 1j * vals[:, 3::4]
    return chi_image(a1, a2)


def check_polar(exit_code: int, text: str, rank: int,
                sv_ref: np.ndarray) -> list[str]:
    """Problems with one `qpolar polar` report on an operator of planted rank.

    sv_ref holds numpy's singular values of chi_T, descending. The report
    must exit 0, give null_rank n - rank and unique exactly at full rank, and
    its |T| must carry the singular values of T to within SV_TOL * ||T||.
    An empty list means the output is correct.
    """
    n = sv_ref.size // 2
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    null_rank = _header_value(text, "null_rank")
    if null_rank != str(n - rank):
        problems.append(f"null_rank {null_rank}, planted {n - rank}")
    unique = _header_value(text, "unique")
    want = "true" if rank == n else "false"
    if unique != want:
        problems.append(f"unique {unique}, planted {want}")
    try:
        abs_t = parse_section(text, "|T|")
    except (ValueError, IndexError) as exc:
        problems.append(f"unreadable |T|: {exc}")
        return problems
    if not np.isfinite(abs_t).all():
        problems.append("|T| has non-finite entries")
        return problems
    sv = np.linalg.svd(abs_t, compute_uv=False)
    dev = float(np.max(np.abs(sv - sv_ref)))
    if not dev <= SV_TOL * sv_ref[0]:
        problems.append(f"singular values of |T| off by {dev:.3e}"
                        f" (||T|| = {sv_ref[0]:.3e})")
    return problems


def check_battery(report: str) -> list[str]:
    """Problems with one `qpolar verify` report: every FAIL check line."""
    lines = report.splitlines()
    problems = [line for line in lines if line.endswith(" FAIL")]
    if not lines or not lines[-1].startswith("summary "):
        problems.append("missing summary line")
    return problems
