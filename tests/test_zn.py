"""Howell reduction over Z/n: the batched reduce against a scalar loop."""

import random

from totref import _zn


def reduce_one(solver, vec):
    """Reduce one vector pivot row by pivot row, in Python integers."""
    n = solver.n
    v = [x % n for x in vec]
    for row in solver.value_rows:
        j = next(t for t, x in enumerate(row) if x)
        q = v[j] // row[j]
        for t in range(j, solver.height):
            v[t] = (v[t] - q * row[t]) % n
    return v


def test_batched_reduce_beyond_int64():
    # n^2 > 2^63: no product of residues fits a machine word
    n = 3 ** 40
    rng = random.Random(40)
    columns = [[1] + [rng.randrange(n) for _ in range(4)],
               [0, 0, 3 ** 5] + [rng.randrange(n) for _ in range(2)],
               [0, 0, 0] + [3 ** rng.randrange(41) * rng.randrange(n) % n
                            for _ in range(2)]]
    solver = _zn.SpanSolver(columns, n, 5)
    # pivots below n and a column without a pivot
    bounds = solver.reduced_bounds()
    assert bounds[0] == 1 and bounds[1] == n and 1 < bounds[2] < n
    vectors = [[rng.randrange(2 * n) for _ in range(5)] for _ in range(20)]
    vectors += columns + [[0] * 5]
    reduced = solver.reduce(vectors)
    assert reduced == [reduce_one(solver, v) for v in vectors]
    assert reduced[-4:] == [[0] * 5] * 4
    assert all(type(x) is int for row in reduced for x in row)
