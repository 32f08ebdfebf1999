"""Component-wise arithmetic on index triples (m, n, r) for the test oracles.

The package keeps indices as plain tuples, whose `+` concatenates, and does
no index arithmetic; the oracles that add or subtract indices use `index_add`.
"""


def index_add(a, b, sign=1):
    """a + sign * b, component by component."""
    return (a[0] + sign * b[0], a[1] + sign * b[1], a[2] + sign * b[2])
