"""Exact linear algebra: spans, certificates, rank."""

import random
from fractions import Fraction
from itertools import islice
from math import prod

import pytest

from dburnside.errors import PreconditionError
from dburnside.linalg import FieldSpec, IncrementalSpan, _rank_primes, matrix_rank
from dburnside.numtheory import factorize, is_prime

Q = FieldSpec(0)
F2 = FieldSpec(2)
F5 = FieldSpec(5)


def test_fieldspec_validation():
    FieldSpec(0)
    FieldSpec(7)
    with pytest.raises(PreconditionError):
        FieldSpec(6)
    with pytest.raises(PreconditionError):
        FieldSpec(-3)
    FieldSpec(2 ** 64 - 59)  # the largest prime below 2^64
    with pytest.raises(PreconditionError):
        FieldSpec(2 ** 64 + 13)  # prime, but above the bound


def test_is_prime_against_trial_division():
    assert [n for n in range(10 ** 5) if is_prime(n)] == \
        [n for n in range(10 ** 5) if factorize(n) == [(n, 1)]]
    # a Carmichael number, a strong pseudoprime to bases 2, 3, 5 and 7,
    # and one to every prime base up to 31
    for n in (561, 3215031751, 3825123056546413051):
        assert not is_prime(n)
        assert factorize(n)[0][0] < n


def test_exact_rational_arithmetic():
    rng = random.Random(1)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        if a == 0:
            continue
        assert Q.reduce(a * Q.inverse(a)) == 1
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        Q.inverse(0)


def test_fermat_identity():
    for spec in (F2, F5, FieldSpec(11)):
        p = spec.characteristic
        for x in range(p):
            assert pow(x, p, p) == x % p
            if x:
                assert spec.reduce(x * spec.inverse(x)) == 1
        with pytest.raises(ZeroDivisionError, match="inverse of zero"):
            spec.inverse(p)


# -- incremental spans -------------------------------------------------------

@pytest.mark.parametrize("spec", [Q, F2, F5])
def test_span_zero_vector_not_new(spec):
    span = IncrementalSpan(4, spec)
    assert span.add([]) is False
    assert span.add([(0, 0)]) is False
    assert span.rank == 0


@pytest.mark.parametrize("spec", [Q, F2, F5])
def test_span_basic_growth(spec):
    span = IncrementalSpan(3, spec)
    assert span.add([(0, 1)]) is True
    assert span.add([(0, 1), (1, 1)]) is True
    assert span.rank == 2
    assert span.add([(1, 1)]) is False  # e2 = (e1+e2) - e1


@pytest.mark.parametrize("spec", [Q, F2, F5])
def test_span_pigeonhole(spec):
    rng = random.Random(5)
    span = IncrementalSpan(4, spec)
    news = [span.add([(i, rng.randint(1, 4)) for i in range(4)])
            for _ in range(5)]
    assert news.count(True) <= 4


def test_span_contains_and_certificate_rational():
    span = IncrementalSpan(3, Q)
    span.add([(0, 1)])            # v0 = e0
    span.add([(1, 2)])            # v1 = 2 e1
    assert span.contains([(0, 1), (1, 1)])
    assert not span.contains([(2, 1)])
    cert = span.certificate([(0, 3), (1, 5)])
    # reconstruct: 3 e0 + 5 e1 = 3*v0 + 5/2*v1
    assert cert == [(0, Fraction(3)), (1, Fraction(5, 2))]
    with pytest.raises(PreconditionError):
        span.certificate([(2, 1)])


def test_span_certificate_references_original_insertions():
    rng = random.Random(9)
    for spec in (Q, F5):
        span = IncrementalSpan(6, spec)
        originals = []
        for _ in range(10):
            v = [(i, rng.randint(0, 3)) for i in range(6)]
            originals.append(v)
            span.add(v)
        # query: an exact combination of two originals
        query = {}
        for idx, val in originals[2]:
            query[idx] = query.get(idx, 0) + 2 * val
        for idx, val in originals[5]:
            query[idx] = query.get(idx, 0) + val
        items = sorted(query.items())
        assert span.contains(items)
        cert = span.certificate(items)
        # recombine certificate against original vectors, exactly
        recon = [0] * 6
        for seq, coeff in cert:
            for idx, val in originals[seq]:
                recon[idx] = spec.reduce(recon[idx] + coeff * val)
        expect = [0] * 6
        for idx, val in items:
            expect[idx] = spec.reduce(val)
        assert recon == expect


def test_span_dimension_mismatch():
    span = IncrementalSpan(3, Q)
    with pytest.raises(PreconditionError):
        span.add([(5, 1)])


def test_full_rank_span_contains_everything():
    rng = random.Random(3)
    span = IncrementalSpan(3, F5)
    while span.rank < 3:
        span.add([(i, rng.randint(0, 4)) for i in range(3)])
    for _ in range(10):
        assert span.contains([(i, rng.randint(0, 4)) for i in range(3)])


# -- rank ------------------------------------------------------------------

def test_rank_identity_and_zero():
    ident = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    assert matrix_rank(ident, Q) == 5
    assert matrix_rank(ident, F2) == 5
    zero = [[0] * 4 for _ in range(3)]
    assert matrix_rank(zero, Q) == 0
    assert matrix_rank(zero, F2) == 0
    assert matrix_rank([], Q) == matrix_rank([], F2) == 0


def span_rank(rows, spec):
    """Rank by the sparse span: an elimination independent of matrix_rank."""
    span = IncrementalSpan(len(rows[0]), spec)
    for row in rows:
        span.add(enumerate(row))
    return span.rank


def test_rank_nullity_theorem():
    # a column already in the span of the earlier columns gives a kernel
    # vector through the span's certificate over those columns
    rng = random.Random(17)
    for spec in (Q, F5):
        for _ in range(20):
            rows = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(4)]
            span = IncrementalSpan(4, spec)
            basis = []
            for j in range(5):
                col = [(i, rows[i][j]) for i in range(4)]
                if span.contains(col):
                    v = [0] * 5
                    v[j] = 1
                    for k, c in span.certificate(col):
                        v[k] = spec.reduce(v[k] - c)
                    basis.append(v)
                span.add(col)
            assert matrix_rank(rows, spec) + len(basis) == 5
            for v in basis:
                for row in rows:
                    s = 0
                    for a, x in zip(row, v):
                        s = spec.reduce(s + a * x)
                    assert s == 0


def test_mod_p_rank_at_most_rational():
    rng = random.Random(23)
    primes = [1000003, 1000033, 1000037]
    for _ in range(25):
        rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(5)]
        rq = matrix_rank(rows, Q)
        ranks = [matrix_rank(rows, FieldSpec(p)) for p in primes]
        assert all(rp <= rq for rp in ranks)
        # a random small matrix keeps its rank modulo at least one large prime
        assert rq in ranks


def test_fraction_free_rank_matches_fraction_path():
    # mod p, entries are int64 while min(shape)*(p-1)**2 < 2**63, so that no
    # sum of products of residues overflows, and exact Python ints otherwise:
    # at these sizes 2 and 3 stay in int64, 2147483647 does only for a single
    # row or column, and 4294967311 never does
    for p in (0, 2, 3, 2147483647, 4294967311):
        spec = FieldSpec(p)
        rng = random.Random(29 + p)
        for _ in range(40):
            n = rng.randint(1, 7)
            m = rng.randint(1, 7)
            big = p > 3 and rng.random() < 0.5
            rows = [[rng.randrange(p) if big else rng.randint(-6, 6)
                     for _ in range(m)] for _ in range(n)]
            if n > 2:
                # a combination of two other rows lowers the rank
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
            if rng.random() < 0.5:
                rows[rng.randrange(n)] = [0] * m
            if rng.random() < 0.5:
                c = rng.randrange(m)
                for row in rows:
                    row[c] = 0
            assert matrix_rank(rows, spec) == span_rank(rows, spec), (p, rows)


def test_rank_mod_large_prime_is_exact():
    # a product of two residues mod p overflows int64 once p > 3.04e9
    p = 4294967311
    spec = FieldSpec(p)
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(2, 6)
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n - 1)]
        a, b = rng.randrange(p), rng.randrange(p)
        rows.append([(a * x + b * y) % p for x, y in zip(rows[0], rows[-1])])
        assert matrix_rank(rows, spec) == span_rank(rows, spec)


def _planted(rng, n, m, big):
    """An n x m matrix in which about a third of the rows are combinations
    of two earlier ones, often in an earlier block of 64 rows, and a few
    rows are zero; the other rows have about 5% nonzero entries, small or
    residues below ``big``."""
    rows = []
    for i in range(n):
        if i > 2 and rng.random() < 0.35:
            x, y = rng.sample(rows, 2)
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append([a * s + b * t for s, t in zip(x, y)])
        elif rng.random() < 0.05:
            rows.append([0] * m)
        else:
            rows.append([0 if rng.random() < 0.95 else
                         rng.randrange(big) if big else rng.choice((1, -1, 2, -3))
                         for _ in range(m)])
    return rows


@pytest.mark.parametrize("p", [0, 2, 3, 2147483647, 4294967311])
def test_blocked_rank_matches_span(p):
    # 150 rows make three blocks, and rank above 64 makes later blocks
    # reduce against rows found in earlier ones
    spec = FieldSpec(p)
    rng = random.Random(53 + p)
    for big in (0, p) if p > 3 else (0,):
        rows = _planted(rng, 150, 130, big)
        rank = matrix_rank(rows, spec)
        assert rank == span_rank(rows, spec)
        assert 64 < rank < 130


def test_rank_over_q_with_entries_beyond_int64():
    big = 2 ** 64 + 13
    rows = [[big, 2, 0], [3 * big, 6, 0], [0, 1, big * big], [1, 0, 0]]
    assert matrix_rank(rows, Q) == span_rank(rows, Q) == 3
    rows[3] = [2 * big, 4 + big, big ** 3]  # 2*row0 + big*row2
    assert matrix_rank(rows, Q) == span_rank(rows, Q) == 2


def test_rank_over_q_takes_primes_until_the_hadamard_bound():
    # N vanishes modulo each of the first three primes the rank over Q
    # takes, so the rank found there is 1; only the fourth prime, taken
    # because N^2 is below the Hadamard bound, finds 2
    N = prod(islice(_rank_primes(2), 3))
    assert matrix_rank([[1, 0], [1, N]], Q) == 2
    assert matrix_rank([[1, 1], [1, N + 1]], Q) == 2
    # [0, N] is divided by its gcd before any prime is taken
    assert matrix_rank([[1, 0], [0, N]], Q) == 2
    assert matrix_rank([[N, N], [N, N]], Q) == 1


@pytest.mark.parametrize("p", [0, 2, 4294967311])
def test_rank_skips_zero_rows(p):
    rng = random.Random(59)
    rows = [[0] * 90 for _ in range(140)]
    nonzero = sorted(rng.sample(range(140), 80))
    for k, i in enumerate(nonzero):
        rows[i][k] = rng.randint(1, 9)
        rows[i][k + 1:] = [rng.randint(-2, 2) for _ in range(89 - k)]
    assert matrix_rank(rows, FieldSpec(p)) == 80


def test_span_rows_stay_reduced():
    # white box: every pivot column is nonzero in exactly one stored row
    rng = random.Random(37)
    for spec in (Q, F5):
        span = IncrementalSpan(8, spec)
        for _ in range(12):
            span.add([(i, rng.randint(0, 3)) for i in range(8)])
        # rows are sparse dicts keyed by pivot column; a row's pivot is its
        # lowest column, normalized to 1
        for col, pivot_row in span.rows.items():
            nonzero = sum(1 for row in span.rows.values() if row.get(col, 0) != 0)
            assert nonzero == 1
            assert min(pivot_row) == col and pivot_row[col] == 1
        assert span.rank <= 8


def test_span_rank_matches_matrix_rank():
    rng = random.Random(31)
    for spec in (Q, F2, F5):
        rows = [[rng.randint(0, 5) for _ in range(7)] for _ in range(10)]
        span = IncrementalSpan(7, spec)
        for row in rows:
            span.add(list(enumerate(row)))
        assert span.rank == matrix_rank(rows, spec)


def test_sparse_span_matches_dense_rank_and_certifies():
    # sparse vectors with repeated columns, as products arrive in practice
    rng = random.Random(41)
    for spec in (Q, F2, FieldSpec(3)):
        span = IncrementalSpan(30, spec)
        dense = []
        for _ in range(60):
            items = [(rng.randrange(30), rng.randint(-3, 3))
                     for _ in range(rng.randint(1, 3))]
            row = [0] * 30
            for idx, val in items:
                row[idx] += val
            dense.append(row)
            span.add(items)
            assert span.rank == matrix_rank(dense, spec)
        # every inserted vector is a member, certified over the insertions
        for seq in rng.sample(range(60), 10):
            query = [(i, x) for i, x in enumerate(dense[seq]) if x]
            recon = [0] * 30
            for j, coeff in span.certificate(query):
                for i, x in enumerate(dense[j]):
                    recon[i] = spec.reduce(recon[i] + coeff * x)
            assert recon == [spec.reduce(x) for x in dense[seq]]
