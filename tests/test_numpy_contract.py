"""The three facts about numpy's reductions that the golden outputs and
``numcore``'s column passes assume, checked on crafted rows.  They hold on
numpy 2.4.6, the version the goldens were recorded with; on a numpy where
one does not, this one test fails with one message naming all three,
ahead of the many bit-for-bit mismatches that follow from it.

The goldens' bits also rest on the kernel numpy's bundled OpenBLAS picks for
the CPU (or from ``OPENBLAS_CORETYPE``): they were recorded on its SkylakeX
core, and other cores round GEMM and solve results differently.  A second
test names the running core when it is not that one.
"""

import ctypes
from pathlib import Path

import numpy as np

CONTRACT = ("the pairwise block of 8 (a row shorter than 8 is summed left to right, "
            "a longer one in 8 partial sums combined ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), "
            "then the tail)",
            "the identity add (a sum ends with + 0.0, so an all -0.0 row sums to 0.0)",
            "the sign of a zero max (numpy's max gives a row that mixes 0.0 and -0.0 the "
            "same zero alone as in the whole contiguous array)")
# the OpenBLAS core the golden outputs were recorded on
GOLDEN_CORE = "SkylakeX"


def left_to_right(row) -> float:
    s = 0.0
    for x in row:
        s += x
    return s


def eight_way(row) -> float:
    r = [left_to_right(row[j:len(row) - len(row) % 8:8]) for j in range(8)]
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in row[len(row) - len(row) % 8:]:
        s += x
    return s + 0.0


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def broken_facts() -> list[str]:
    broken = []
    # 1e16 + 1 rounds back to 1e16, so the order of the adds decides the sum
    row = [1e16, 1.0, 1.0, 1.0, -1e16, 1.0, 1.0, 1.0, 1.0, 1.0]
    assert left_to_right(row[:8]) != eight_way(row[:8])  # the row tells the orders apart
    rows = [row[:7], row[:8], row[:10]]
    want = [left_to_right(row[:7]), eight_way(row[:8]), eight_way(row[:10])]
    if not all(same_bits(np.array([r]).sum(axis=-1), [w]) and same_bits(np.sum(r), w)
               for r, w in zip(rows, want)):
        broken.append(CONTRACT[0])

    if any(np.signbit(np.full((2, K), -0.0).sum(axis=-1)).any() for K in (3, 8, 10)):
        broken.append(CONTRACT[1])

    rng = np.random.default_rng(0)
    a = -rng.uniform(0.5, 1.0, (2048, 10))
    zeros = rng.random(a.shape) < 0.3
    a[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
    whole = a.max(axis=-1)
    zero = whole == 0.0
    if not (same_bits(a[zero].max(axis=-1), whole[zero])
            and all(same_bits(a[i].max(), whole[i]) for i in np.flatnonzero(zero))):
        broken.append(CONTRACT[2])
    return broken


def test_numpy_reductions_keep_the_assumed_order():
    broken = broken_facts()
    assert not broken, (
        f"numpy {np.__version__} does not reduce as the goldens and numcore's column passes "
        f"assume (recorded on numpy 2.4.6). They assume: {'; '.join(CONTRACT)}. "
        f"Broken here: {'; '.join(broken)}.")


def openblas_core() -> str | None:
    """The core numpy's bundled OpenBLAS runs, or None when no bundled
    library exports ``scipy_openblas_get_corename64_``."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def test_openblas_runs_the_goldens_core():
    core = openblas_core()
    running = (f"its {core} core" if core
               else "an unknown core (no scipy_openblas_get_corename64_ in numpy.libs)")
    assert core == GOLDEN_CORE, (
        f"numpy's OpenBLAS runs {running}; the goldens were recorded on its {GOLDEN_CORE} "
        f"core, and another core can round their GEMM and solve results differently.")
