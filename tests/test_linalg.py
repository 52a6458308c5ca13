"""Exact linear algebra: spans, certificates, rank."""

import random
from fractions import Fraction

import pytest

from dburnside.errors import PreconditionError
from dburnside.linalg import Field, FieldSpec, IncrementalSpan, matrix_rank

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


def test_exact_rational_arithmetic():
    f = Field(Q)
    rng = random.Random(1)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        if a == 0:
            continue
        assert f.mul(a, f.inv(a)) == 1


def test_fermat_identity():
    for spec in (F2, F5, FieldSpec(11)):
        f = Field(spec)
        p = spec.characteristic
        for x in range(p):
            assert pow(x, p, p) == x % p
            if x:
                assert f.mul(x, f.inv(x)) == 1


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
        f = Field(spec)
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
        recon = [f.zero] * 6
        for seq, coeff in cert:
            for idx, val in originals[seq]:
                recon[idx] = f.add(recon[idx], f.mul(coeff, f.from_int(val)))
        expect = [f.zero] * 6
        for idx, val in items:
            expect[idx] = f.from_int(val)
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
        f = Field(spec)
        for _ in range(20):
            rows = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(4)]
            span = IncrementalSpan(4, spec)
            basis = []
            for j in range(5):
                col = [(i, rows[i][j]) for i in range(4)]
                if span.contains(col):
                    v = [f.zero] * 5
                    v[j] = f.one
                    for k, c in span.certificate(col):
                        v[k] = f.sub(v[k], c)
                    basis.append(v)
                span.add(col)
            assert matrix_rank(rows, spec) + len(basis) == 5
            for v in basis:
                for row in rows:
                    s = f.zero
                    for a, x in zip(row, v):
                        s = f.add(s, f.mul(f.from_int(a), x))
                    assert f.is_zero(s)


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
    # 2147483647 is the largest prime held in int64, where pv*x - a*y must
    # not overflow; 4294967311 takes exact Python ints
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
        f = Field(spec)
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
            recon = [f.zero] * 30
            for j, coeff in span.certificate(query):
                for i, x in enumerate(dense[j]):
                    recon[i] = f.add(recon[i], f.mul(coeff, f.from_int(x)))
            assert recon == [f.from_int(x) for x in dense[seq]]
