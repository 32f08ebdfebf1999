"""Reference coefficient data used as golden vectors.

`X35_LOW_TRACE` lists every nonzero Fourier coefficient a((m, n, r)) of
the normalized weight-35 generator with trace m + n <= 9; indices of
trace <= 9 absent from the table have coefficient zero.  The table is a
literal transcription of independently published leading coefficients
(it deliberately spells out both (m, n, r) and (n, m, r) entries instead
of deriving one from the other, so the expected antisymmetry is part of
what is being pinned).  The verification pipeline and the test suite
compare every built coefficient in this range against the table.
"""

from __future__ import annotations

from .qexp import iter_l2_indices

__all__ = ["X35_LOW_TRACE", "MIN_MATRIX_REFERENCE", "x35_reference_violations"]

X35_LOW_TRACE: dict[tuple[int, int, int], int] = {
    # trace 5
    (2, 3, -1): 1,
    (2, 3, 1): -1,
    (3, 2, -1): -1,
    (3, 2, 1): 1,
    # trace 6: (2, 4) and (4, 2)
    (2, 4, -3): -1,
    (2, 4, -1): -69,
    (2, 4, 1): 69,
    (2, 4, 3): 1,
    (4, 2, -3): 1,
    (4, 2, -1): 69,
    (4, 2, 1): -69,
    (4, 2, 3): -1,
    # trace 7: (2, 5) and (5, 2)
    (2, 5, -3): 69,
    (2, 5, -1): 2277,
    (2, 5, 1): -2277,
    (2, 5, 3): -69,
    (5, 2, -3): -69,
    (5, 2, -1): -2277,
    (5, 2, 1): 2277,
    (5, 2, 3): 69,
    # trace 7: (3, 4) and (4, 3)
    (3, 4, -5): 1,
    (3, 4, -2): -32384,
    (3, 4, -1): -129421,
    (3, 4, 1): 129421,
    (3, 4, 2): 32384,
    (3, 4, 5): -1,
    (4, 3, -5): -1,
    (4, 3, -2): 32384,
    (4, 3, -1): 129421,
    (4, 3, 1): -129421,
    (4, 3, 2): -32384,
    (4, 3, 5): 1,
    # trace 8: (2, 6) and (6, 2)
    (2, 6, -5): 1,
    (2, 6, -3): -2277,
    (2, 6, -1): -47702,
    (2, 6, 1): 47702,
    (2, 6, 3): 2277,
    (2, 6, 5): -1,
    (6, 2, -5): -1,
    (6, 2, -3): 2277,
    (6, 2, -1): 47702,
    (6, 2, 1): -47702,
    (6, 2, 3): -2277,
    (6, 2, 5): 1,
    # trace 8: (3, 5) and (5, 3)
    (3, 5, -4): 32384,
    (3, 5, -2): -2184448,
    (3, 5, -1): -3203072,
    (3, 5, 1): 3203072,
    (3, 5, 2): 2184448,
    (3, 5, 4): -32384,
    (5, 3, -4): -32384,
    (5, 3, -2): 2184448,
    (5, 3, -1): 3203072,
    (5, 3, 1): -3203072,
    (5, 3, 2): -2184448,
    (5, 3, 4): 32384,
    # trace 9: (2, 7) and (7, 2)
    (2, 7, -5): -69,
    (2, 7, -3): 47702,
    (2, 7, -1): 709665,
    (2, 7, 1): -709665,
    (2, 7, 3): -47702,
    (2, 7, 5): 69,
    (7, 2, -5): 69,
    (7, 2, -3): -47702,
    (7, 2, -1): -709665,
    (7, 2, 1): 709665,
    (7, 2, 3): 47702,
    (7, 2, 5): -69,
    # trace 9: (3, 6) and (6, 3)
    (3, 6, -7): -1,
    (3, 6, -5): 129421,
    (3, 6, -4): 2184448,
    (3, 6, -2): 41321984,
    (3, 6, -1): 105235626,
    (3, 6, 1): -105235626,
    (3, 6, 2): -41321984,
    (3, 6, 4): -2184448,
    (3, 6, 5): -129421,
    (3, 6, 7): 1,
    (6, 3, -7): 1,
    (6, 3, -5): -129421,
    (6, 3, -4): -2184448,
    (6, 3, -2): -41321984,
    (6, 3, -1): -105235626,
    (6, 3, 1): 105235626,
    (6, 3, 2): 41321984,
    (6, 3, 4): 2184448,
    (6, 3, 5): 129421,
    (6, 3, 7): -1,
    # trace 9: (4, 5) and (5, 4)
    (4, 5, -7): -69,
    (4, 5, -6): -32384,
    (4, 5, -3): 107121810,
    (4, 5, -2): -31380096,
    (4, 5, -1): 759797709,
    (4, 5, 1): -759797709,
    (4, 5, 2): 31380096,
    (4, 5, 3): -107121810,
    (4, 5, 6): 32384,
    (4, 5, 7): 69,
    (5, 4, -7): 69,
    (5, 4, -6): 32384,
    (5, 4, -3): -107121810,
    (5, 4, -2): 31380096,
    (5, 4, -1): -759797709,
    (5, 4, 1): 759797709,
    (5, 4, 2): -31380096,
    (5, 4, 3): 107121810,
    (5, 4, 6): -32384,
    (5, 4, 7): -69,
}

# p-minimum matrix of each generator, independent of the (odd) prime p:
# the displayed leading coefficient is 1 in every case.
MIN_MATRIX_REFERENCE: dict[str, tuple[int, int, int]] = {
    "X4": (0, 0, 0),
    "X6": (0, 0, 0),
    "X10": (1, 1, -1),
    "X12": (1, 1, -1),
    "X35": (2, 3, -1),
}


def x35_reference_violations(x35) -> list[tuple[tuple, int, object]]:
    """Compare an expansion against the golden table at every trace <= 9 index.

    Returns (index, expected, actual) triples; empty means exact agreement,
    including all the zeroes.  The expansion must be built to trace >= 9.
    """
    if x35.trace_bound < 9:
        raise ValueError("reference comparison needs a trace bound >= 9")
    out = []
    for T in iter_l2_indices(9):
        want = X35_LOW_TRACE.get(T, 0)
        got = x35.coefficient(T)
        if got != want:
            out.append((T, want, got))
    return out
