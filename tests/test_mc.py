"""Monte Carlo engine tests: stream determinism, estimator correctness
against closed forms, and the verification verdicts (including the
fault-injection path that proves violations are detectable)."""

import collections
import dataclasses
import math
import multiprocessing
import os
import queue
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

from shiftbounds import bounds, linalg, mc, oracles, suites
from shiftbounds import (
    Direction,
    DomainError,
    Ellipsoid,
    HPolytope,
    InsufficientHitsError,
    InsufficientMassError,
    Intersection,
    Layer,
    LayeredUnimodal,
    LinearImage,
    LpBall,
    Slab,
    as_layered,
    build_covariance,
    build_layered,
    estimate_conditional_center,
    estimate_layered_expectation,
    estimate_power,
    estimate_power_grid,
    estimate_shift_prob,
    identity_covariance,
    oracle_slab,
    ratio_bounds_grid,
    ratio_bounds_set,
    verify_derivative_identity,
    verify_power_envelope,
    verify_sandwich,
)
from shiftbounds.cli import cmd_power, cmd_verify
from shiftbounds.config import parse_run_config
from shiftbounds.linalg import MAX_DIM
from shiftbounds.mc import (
    CHUNK_SIZE,
    SUBSTREAM_DENOM,
    SUBSTREAM_MAIN,
    sample_gaussian,
    standard_normal_chunks,
)

COV2 = identity_covariance(2)
E1 = Direction.axis(2)
UNIT_SLAB = Slab(normal=E1, halfwidth=1.0)

# Each call takes the shift as `t`; the grid estimator puts it between
# two valid thetas, so a bad entry anywhere in a grid must be caught.
STREAM_CALLS = {
    "shift_prob": lambda t=0.5, **kw: estimate_shift_prob(COV2, UNIT_SLAB, E1, t, **kw),
    "layered": lambda t=0.5, **kw: estimate_layered_expectation(
        COV2, as_layered(UNIT_SLAB), E1, t, **kw
    ),
    "power": lambda t=0.5, **kw: estimate_power(COV2, UNIT_SLAB, E1, t, **kw),
    "power_grid": lambda t=0.5, **kw: estimate_power_grid(
        COV2, UNIT_SLAB, E1, [0.0, t, 1.0], **kw
    ),
    "conditional": lambda t=0.5, **kw: estimate_conditional_center(UNIT_SLAB, E1, t, **kw),
    "derivative": lambda t=0.5, **kw: verify_derivative_identity(UNIT_SLAB, E1, t, **kw),
}
# The plan each call of STREAM_CALLS runs, for the calls whose plan takes
# a substream: the calls themselves always draw SUBSTREAM_MAIN, so a bad
# substream reaches those checks only through their plans.
SUBSTREAM_PLANS = {
    "shift_prob": lambda t=0.5, **kw: mc.layered_plan(COV2, UNIT_SLAB, E1, t, **kw),
    "layered": lambda t=0.5, **kw: mc.layered_plan(COV2, as_layered(UNIT_SLAB), E1, t, **kw),
    "power": lambda t=0.5, **kw: mc.power_grid_plan(COV2, UNIT_SLAB, E1, (t,), **kw),
    "power_grid": lambda t=0.5, **kw: mc.power_grid_plan(
        COV2, UNIT_SLAB, E1, [0.0, t, 1.0], **kw
    ),
}
BAD_STREAMS = [
    {"count": 0},
    {"count": True},
    {"seed": -1},
    {"seed": 2**64},
    {"substream": 1 << 15},
    {"substream": True},
    {"t": math.inf},
    {"t": math.nan},
    {"count": mc.STREAM_CAPACITY + 1},
]

# Three chunks, the last one partial.
GOLDEN_COUNT = 2 * CHUNK_SIZE + 123
TWO_LAYER = build_layered(
    [
        Layer(1.0, LpBall(dim=2, p=2.0, radius=2.0)),
        Layer(0.5, LpBall(dim=2, p=2.0, radius=1.0)),
    ]
)

DENSE3 = build_covariance(np.array([[2.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 0.8]]))
U3 = Direction.from_vector(np.array([1.0, -1.0, 2.0]))
BODIES3 = {
    "slab": Slab(normal=Direction.from_vector(np.array([0.3, 1.0, -0.5])), halfwidth=1.1),
    "lp_ball": LpBall(dim=3, p=math.inf, radius=1.6),
    "ellipsoid": Ellipsoid(build_covariance(np.diag([0.5, 1.0, 0.4]))),
    "h_polytope": HPolytope(
        normals=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [1.0, -1.0, 0.5]]),
        offsets=np.array([2.0, 3.0, 3.0]),
    ),
    "intersection": Intersection(
        parts=(LpBall(dim=3, p=2.0, radius=2.0), LpBall(dim=3, p=math.inf, radius=1.5))
    ),
    "linear_image": LinearImage(
        LpBall(dim=3, p=1.0, radius=2.5),
        np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.2, 0.0, 1.0]]),
    ),
}
# Non-dyadic weights, so the layered sums round, on layers that cross:
# the ball reaches (2, 0, 0) outside the box, and the box's corners lie
# outside the ball.
BOX3 = LpBall(dim=3, p=math.inf, radius=1.5)
CROSSING = LayeredUnimodal((Layer(0.3, LpBall(dim=3, p=2.0, radius=2.0)), Layer(0.7, BOX3)))

# Counts of the power grid [0.7, 0.0, 1.3, 0.7] (seed 5, substream 1)
# and of the shift probability at t = 0.9 (seed 5) at GOLDEN_COUNT,
# captured before the indicator pass ran in row blocks.
BLOCKED_PASS_HITS = {
    ("ellipsoid", "dense"): [97798, 89053, 113304, 97798, 28427],
    ("ellipsoid", "identity"): [91328, 84539, 104319, 91328, 35920],
    ("h_polytope", "dense"): [28534, 25720, 37091, 28534, 100815],
    ("h_polytope", "identity"): [19362, 14226, 32212, 19362, 108503],
    ("intersection", "dense"): [66631, 56976, 87705, 66631, 58371],
    ("intersection", "identity"): [57178, 48069, 76153, 57178, 68586],
    ("linear_image", "dense"): [72410, 59931, 97332, 72410, 51251],
    ("linear_image", "identity"): [67937, 58085, 87275, 67937, 57762],
    ("lp_ball", "dense"): [57382, 48326, 77643, 57382, 68203],
    ("lp_ball", "identity"): [47623, 38866, 66461, 47623, 78290],
    ("slab", "dense"): [46358, 41991, 56552, 46358, 81989],
    ("slab", "identity"): [41110, 35731, 53137, 41110, 86757],
}

# Rejections of the power grid [0.0, 0.8, 1.6] (seed 11) at GOLDEN_COUNT
# on the covariance 0.5^|i-j|, captured before the membership kernels
# walked columns.  From dim 8 numpy sums a row pairwise, in another order
# than a running sum over columns.
WIDE_GRID_HITS = {
    ("l1", 8): [58694, 64656, 80412],
    ("l2", 8): [52522, 58931, 75599],
    ("intersection", 8): [50303, 56455, 72923],
    ("l1", 16): [60210, 64430, 75713],
    ("l2", 16): [55759, 60194, 72150],
    ("intersection", 16): [48001, 52374, 64557],
}


# Traced peak bytes of test_narrow_walks_hold_little on 2 sampler
# workers.  Measured: the derivative check 4.96 MB, and 5.78 MB with
# 16,384-row pieces and out-of-place sums (5.95 MB with out-of-place sums
# alone); the d = 6 power grid 2.77 MB, and 6.50 MB with 16,384-row pieces.
NARROW_PEAK_BOUNDS = {"derivative": 5.4e6, "dense_power_grid": 4.0e6}

# Rejections of a 5-shift power grid at MAX_DIM (seed 7, 4 chunks), an l2
# ball under the covariance 0.5^|i-j|, captured before walks ran in pieces.
WIDEST_GRID_HITS = [120646, 122389, 127428, 135683, 146654]


def _denom_power_grid(cov, body, u, thetas, count, seed):
    """The power grid on substream 1, which only a plan, never a public
    estimator, draws."""
    return mc._run(mc.power_grid_plan(cov, body, u, thetas, count, seed, substream=1))


def _walk_bits(kind, sigma, count):
    """Every estimate of the piece-size tests on BODIES3[kind], in hex."""
    cov = DENSE3 if sigma == "dense" else identity_covariance(3)
    body = BODIES3[kind]
    weight = LayeredUnimodal((Layer(0.3, body), Layer(0.7, BOX3)))
    grid = _denom_power_grid(cov, body, U3, [0.7, 0.0, 1.3, 0.7], count, 5)
    prob = estimate_shift_prob(cov, body, U3, 0.9, count, seed=5)
    layered = estimate_layered_expectation(cov, weight, U3, 0.9, count, seed=5)
    estimates = [(e.value.hex(), e.stderr.hex(), e.hits) for e in [*grid, prob, layered]]
    if sigma == "dense":
        return estimates
    center = estimate_conditional_center(body, U3, 0.9, count, seed=5)
    check = verify_derivative_identity(weight, U3, 0.9, count, seed=5)
    return [*estimates, _hex_fields(center), _hex_fields(check)]


def _wide_grid_case(name, dim):
    cov = build_covariance(
        np.array([[0.5 ** abs(i - j) for j in range(dim)] for i in range(dim)])
    )
    u = Direction.from_vector(np.linspace(-1.0, 2.0, dim))
    bodies = {
        "l1": LpBall(dim=dim, p=1.0, radius=0.8 * dim),
        "l2": LpBall(dim=dim, p=2.0, radius=math.sqrt(dim)),
        "intersection": Intersection(
            parts=(
                LpBall(dim=dim, p=2.0, radius=1.1 * math.sqrt(dim)),
                LpBall(dim=dim, p=1.0, radius=0.85 * dim),
            )
        ),
    }
    return cov, bodies[name], u

def _count_draws(monkeypatch):
    """Record (seed, index, start, rows, dim) of every draw, a piece or a
    whole chunk; a run waits for its draws when it ends."""
    draws = []
    draw = mc._normal_chunk

    def counting(seed, substream, index, out, start=0):
        draws.append((seed, index, start, *out.shape))
        return draw(seed, substream, index, out, start)

    monkeypatch.setattr(mc, "_normal_chunk", counting)
    return draws


def _tiles(pieces, rows):
    """Whether the (start, rows) pieces, in order, tile rows [0, rows)."""
    end = 0
    for start, length in pieces:
        if start != end or length < 1:
            return False
        end += length
    return end == rows


def _assert_walks_tile_their_chunks(draws, count, walks):
    """Each of `walks` walks of `count` samples drew each piece of its
    chunks once, and the pieces of every chunk tile that chunk; walks of
    one width draw the same pieces."""
    chunk_rows = [min(CHUNK_SIZE, count - start) for start in range(0, count, CHUNK_SIZE)]
    walked = 0
    for dim in {dim for *_, dim in draws}:
        copies = collections.Counter(
            (index, start, rows) for _, index, start, rows, d in draws if d == dim
        )
        (dim_walks,) = set(copies.values())
        walked += dim_walks
        assert all(rows <= mc._piece_rows(dim) for _, _, rows in copies)
        assert {index for index, _, _ in copies} == set(range(len(chunk_rows)))
        for index, rows in enumerate(chunk_rows):
            assert _tiles(sorted((s, n) for i, s, n in copies if i == index), rows)
    assert walked == walks


def _set_piece_rows(monkeypatch, rows, dim=3):
    """Make a dim-wide stream draw pieces of `rows` rows, a multiple of 4."""
    monkeypatch.setattr(mc, "PIECE_MIN_ROWS", 4)
    monkeypatch.setattr(mc, "PIECE_VALUES", rows * dim)
    assert mc._piece_rows(dim) == rows


def _hex_fields(result):
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(result)]


def _hex_tree(value):
    """Every float of a result, nested dataclasses and lists included, in hex."""
    if dataclasses.is_dataclass(value):
        return [_hex_tree(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return [_hex_tree(v) for v in value]
    return value.hex() if isinstance(value, float) else value


# Walks of each Monte Carlo suite: one per estimate, two per sandwich
# verdict or estimated-size power verdict.
SUITE_WALKS = {
    "oracles": 12 + 20,
    "sandwich": 2 * 22,
    "derivative": 4,
    "conditional": 11,
    "power": 3 + 2 * 2,
}


class TestStreams:
    def test_chunks_have_requested_shape(self):
        chunks = list(standard_normal_chunks(3, CHUNK_SIZE + 1000, seed=5))
        assert [c.shape for c in chunks] == [(CHUNK_SIZE, 3), (1000, 3)]
        assert all(np.isfinite(c).all() for c in chunks)

    def test_streams_are_reproducible(self):
        a = np.vstack(list(standard_normal_chunks(2, 70000, seed=9)))
        b = np.vstack(list(standard_normal_chunks(2, 70000, seed=9)))
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        a = mc._normal_chunk(9, SUBSTREAM_MAIN, 0, np.empty((1000, 2)))
        b = mc._normal_chunk(9, SUBSTREAM_DENOM, 0, np.empty((1000, 2)))
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("stream", ["normal", "gaussian"])
    def test_streams_draw_in_line(self, monkeypatch, stream):
        # A stream draws each chunk on the calling thread when it is read:
        # no pool, and nothing drawn ahead of the chunks read before the
        # stream is dropped.
        draws = _count_draws(monkeypatch)
        pools = []

        def pool(*args, **kwargs):
            pools.append(args)
            return ThreadPoolExecutor(*args, **kwargs)

        monkeypatch.setattr(mc, "ThreadPoolExecutor", pool)
        count = 10 * CHUNK_SIZE
        if stream == "normal":
            chunks = standard_normal_chunks(3, count, seed=7)
        else:
            chunks = sample_gaussian(DENSE3, count, seed=7)
        assert [next(chunks).shape for _ in range(2)] == [(CHUNK_SIZE, 3)] * 2
        del chunks
        assert pools == []
        assert draws == [(7, 0, 0, CHUNK_SIZE, 3), (7, 1, 0, CHUNK_SIZE, 3)]

    def test_moments(self):
        z = np.vstack(list(standard_normal_chunks(4, 200000, seed=11)))
        n = z.size
        assert abs(z.mean()) <= 4.0 / math.sqrt(n)
        assert abs(z.std() - 1.0) <= 4.0 / math.sqrt(2 * n)
        # Tail mass beyond 3 sigma at the right rate.
        p3 = np.mean(np.abs(z) > 3.0)
        want = 2.0 * 0.0013498980316300945
        assert abs(p3 - want) <= 4.0 * math.sqrt(want / n)

    def test_sample_gaussian_covariance(self):
        sigma = np.array([[2.0, 0.7], [0.7, 1.0]])
        cov = build_covariance(sigma)
        x = np.vstack(list(sample_gaussian(cov, 400000, seed=13)))
        empirical = x.T @ x / x.shape[0]
        assert np.max(np.abs(empirical - sigma)) <= 5e-3 * np.max(np.abs(sigma)) + 5e-3

    @pytest.mark.parametrize("rows", [CHUNK_SIZE, 7, 1])
    def test_uniform_map_matches_the_integer_formula(self, rows):
        # The stream contract: ndtri of (top 53 bits of a Philox word + 0.5)
        # * 2^-53, as the chunks were drawn before the map ran in place.
        for seed, substream, index in [
            (0, SUBSTREAM_MAIN, 0), (5, SUBSTREAM_DENOM, 2), (2**64 - 1, 7, 11),
            (123456789, 3, 0),
        ]:
            rng = mc._chunk_rng(seed, substream, index)
            bits = rng.integers(0, 1 << 53, size=(rows, 3), dtype=np.uint64)
            want = ndtri((bits.astype(np.float64) + 0.5) * 2.0**-53)
            got = mc._normal_chunk(seed, substream, index, np.empty((rows, 3)))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize(
        "piece_rows, dims",
        [(None, (1, 2, 3, 7, 8, 9, MAX_DIM)), (12, range(1, MAX_DIM + 1))],
        ids=["piece_rows", "every_dim"],
    )
    def test_pieces_concatenate_to_the_chunk(self, monkeypatch, piece_rows, dims):
        # Each piece advances the chunk's Philox counter past the words of
        # the rows before it, so the pieces of a chunk, the last one
        # partial, give the whole-chunk draw bit for bit.  Pieces of 12
        # rows cover every dim cheaply: 12 * dim words is a whole number of
        # 4-word counters at any dim, as every piece's rows * dim is.
        for dim in dims:
            if piece_rows is None:
                rows = (CHUNK_SIZE, 2 * mc._piece_rows(dim) + 5)
            else:
                _set_piece_rows(monkeypatch, piece_rows, dim)
                rows = (29,)
            for count in rows:
                want = mc._normal_chunk(5, SUBSTREAM_DENOM, 2, np.empty((count, dim)))
                pieces = list(mc._spans(count, mc._piece_rows(dim)))
                assert _tiles(pieces, count) and len(pieces) > 1
                got = np.vstack([
                    mc._normal_chunk(5, SUBSTREAM_DENOM, 2, np.empty((n, dim)), start)
                    for start, n in pieces
                ])
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (dim, count)

    def test_piece_geometry(self):
        # Whole Philox counters, at least the row floor, about PIECE_VALUES
        # values above it, and a transform (rows * dim^2 multiply-adds)
        # within OpenBLAS's calling-thread gemm bound at dim <= 8.
        assert mc._piece_rows(2) == 16384 and mc._piece_rows(6) == 5460
        for dim in range(1, MAX_DIM + 1):
            rows = mc._piece_rows(dim)
            assert rows % 4 == 0 and rows >= mc.PIECE_MIN_ROWS == 4096, dim
            assert rows == mc.PIECE_MIN_ROWS or rows * dim <= mc.PIECE_VALUES, dim
            assert rows * dim > mc.PIECE_VALUES - 4 * dim or rows == mc.PIECE_MIN_ROWS, dim
            if dim <= 8:
                assert rows * dim * dim <= 262_144, dim

    @pytest.mark.parametrize("abandon", ["raising_sums", "raising_finisher"])
    def test_abandoned_stream_stops_drawing(self, monkeypatch, abandon):
        # One sampler thread, held inside the first draw past chunk 0 of
        # seed 3, with more draws in flight: the rest are still queued when
        # the run is dropped after that chunk, and must never be drawn.  A
        # run draws chunk 0 in pieces.  The multi-plan run drops its
        # second, 153-chunk check when the first, one-piece check's
        # finisher raises.  Closing the run waits for the held draw, so a
        # timer releases it.
        draws = _count_draws(monkeypatch)
        monkeypatch.setattr(mc, "SAMPLER_WORKERS", 4)
        monkeypatch.setattr(
            mc, "ThreadPoolExecutor", lambda workers, **kw: ThreadPoolExecutor(1, **kw)
        )
        release = threading.Event()
        timer = threading.Timer(0.5, release.set)
        draw = mc._normal_chunk

        def held(seed, substream, index, out, start=0):
            if (seed, index) != (3, 0):
                release.wait(timeout=30)
            return draw(seed, substream, index, out, start)

        monkeypatch.setattr(mc, "_normal_chunk", held)
        count = 10_000_000

        def plan(count, seed, reduce, finish=lambda totals: totals):
            walk = mc.Walk(COV2, UNIT_SLAB, E1, (0.0,), count, seed, SUBSTREAM_MAIN, reduce)
            return mc.Plan((walk,), finish)

        def failing(*args):
            raise ArithmeticError("reduction failed")

        def count_rows(coords, inside):
            return np.array([inside.shape[-1]])

        timer.start()
        try:
            if abandon == "raising_sums":
                with pytest.raises(ArithmeticError):
                    mc.run_plans([plan(count, 3, failing)])
            else:
                plans = [plan(1000, 3, count_rows, failing), plan(count, 4, count_rows)]
                with pytest.raises(ArithmeticError):
                    mc.run_plans(plans)
        finally:
            release.set()
            timer.cancel()
        read = [(start, rows) for seed, index, start, rows, _ in draws if (seed, index) == (3, 0)]
        assert _tiles(read, 1000 if abandon == "raising_finisher" else CHUNK_SIZE)
        assert len(draws) <= len(read) + 1
        assert draws[0][:3] == (3, 0, 0)

    @pytest.mark.parametrize("run", ["estimator", "read", "raising_finisher"])
    def test_no_sampler_thread_outlives_a_run(self, run):
        count = 3 * CHUNK_SIZE

        def count_rows(coords, inside):
            return np.array([inside.shape[-1]])

        def plan(finish=lambda totals: totals):
            walk = mc.Walk(COV2, UNIT_SLAB, E1, (0.0,), count, 5, SUBSTREAM_MAIN, count_rows)
            return mc.Plan((walk,), finish)

        def failing(*args):
            raise ArithmeticError("finisher failed")

        if run == "estimator":
            estimate_shift_prob(COV2, UNIT_SLAB, E1, 0.5, count, seed=7)
        elif run == "read":
            assert mc.run_plans([plan(), plan()]) == [[count], [count]]
        else:
            with pytest.raises(ArithmeticError):
                mc.run_plans([plan(failing), plan()])
        names = [thread.name for thread in threading.enumerate()]
        assert not [name for name in names if name.startswith("shiftbounds-sampler")]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_forked_child_samples_after_the_parent(self):
        # Each run makes a sampler pool of its own, so a child forked after
        # the parent's run must finish its estimate, with the parent's bits.
        def estimate():
            return estimate_shift_prob(COV2, UNIT_SLAB, E1, 0.5, GOLDEN_COUNT, seed=7)

        parent = estimate()
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=lambda: results.put(estimate()))
        child.start()
        try:
            got = results.get(timeout=30)
            child.join(timeout=30)
            assert not child.is_alive()
        except queue.Empty:
            pytest.fail("the forked child's estimate did not finish")
        finally:
            if child.is_alive():
                child.kill()
                child.join(timeout=10)
        assert got == parent

    def test_seed_validation(self):
        gen = standard_normal_chunks(2, 10, seed=-1)
        with pytest.raises(DomainError):
            next(gen)
        with pytest.raises(DomainError):
            next(standard_normal_chunks(2, 0, seed=1))
        with pytest.raises(DomainError):
            mc.Walk(COV2, UNIT_SLAB, E1, (0.0,), 10, 1, 1 << 20, lambda coords, inside: 0)

    @pytest.mark.parametrize(
        "estimator, bad",
        [
            pytest.param(estimator, bad, id=f"{estimator}-{bad!r}")
            for estimator in sorted(STREAM_CALLS)
            for bad in BAD_STREAMS
            if estimator in SUBSTREAM_PLANS or "substream" not in bad
        ],
    )
    def test_estimators_validate_stream_before_sampling(self, monkeypatch, estimator, bad):
        draws = _count_draws(monkeypatch)
        stream = {"count": 1000, "seed": 1, **bad}
        with pytest.raises(DomainError):
            if "substream" in bad:
                mc._run(SUBSTREAM_PLANS[estimator](**stream))
            else:
                STREAM_CALLS[estimator](**stream)
        assert len(draws) == 0


class TestDeterminism:
    def test_estimates_are_bit_reproducible(self):
        a = estimate_shift_prob(COV2, UNIT_SLAB, E1, 1.0, 150000, seed=17)
        b = estimate_shift_prob(COV2, UNIT_SLAB, E1, 1.0, 150000, seed=17)
        assert a == b

    def test_golden_estimates(self):
        # Exact bits of each estimator on a dense covariance: any change to
        # the stream, the chunk order of the sums or the stderr formula
        # shows here.
        cov = build_covariance(
            np.array([[2.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 0.8]])
        )
        u = Direction.from_vector(np.array([1.0, -1.0, 2.0]))
        ball = LpBall(dim=3, p=2.0, radius=2.0)
        weight = build_layered(
            [
                Layer(1.0, LpBall(dim=3, p=2.0, radius=2.5)),
                Layer(0.5, LpBall(dim=3, p=1.0, radius=1.5)),
            ]
        )
        n = GOLDEN_COUNT
        cases = [
            (
                estimate_shift_prob(cov, ball, u, 0.8, n, seed=3),
                "0x1.25c26dca9fd2ap-1", "0x1.65e9327185c1bp-10", 75273,
            ),
            (
                estimate_layered_expectation(cov, weight, u, 0.8, n, seed=3),
                "0x1.aac37a0a2e8ddp-1", "0x1.5c50e7813cf9cp-10", 101232,
            ),
            (
                _denom_power_grid(cov, ball, u, (1.2,), n, seed=3)[0],
                "0x1.0ff7aa00a8d77p-1", "0x1.692a11b5e6848p-10", 69689,
            ),
            (
                estimate_conditional_center(ball, u, 0.8, n, seed=3),
                "0x1.5328e536401afp-2", "0x1.4b7cbf8eded3fp-9", 85179,
            ),
        ]
        for est, value, stderr, hits in cases:
            assert (est.value.hex(), est.stderr.hex(), est.hits) == (value, stderr, hits)
            assert type(est.hits) is int and est.samples == n

    def test_power_grid_matches_single_theta_calls(self):
        # One pass over the stream must give each theta the bits of its own
        # pass: unsorted, with the size at 0.0 and one theta repeated.
        cov = build_covariance(
            np.array([[2.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 0.8]])
        )
        u = Direction.from_vector(np.array([1.0, -1.0, 2.0]))
        ball = LpBall(dim=3, p=2.0, radius=2.0)
        thetas = [1.2, 0.0, 0.4, 2.5, 1.2]
        grid = _denom_power_grid(cov, ball, u, thetas, GOLDEN_COUNT, seed=3)
        assert len(grid) == len(thetas)
        for theta, est in zip(thetas, grid):
            (single,) = _denom_power_grid(cov, ball, u, (theta,), GOLDEN_COUNT, seed=3)
            assert (est.value.hex(), est.stderr.hex(), est.hits) == (
                single.value.hex(), single.stderr.hex(), single.hits
            )
            assert est == single
        assert grid[0] == grid[4]

    @pytest.mark.parametrize("sigma", ["dense", "identity"])
    @pytest.mark.parametrize("kind", sorted(BODIES3))
    def test_block_size_does_not_move_a_bit(self, monkeypatch, kind, sigma):
        # A row's transform and verdict ignore its neighbours, and the
        # reductions run over whole chunks, so no piece, however small, may
        # move a bit.  Pieces of 4 and 12 rows (a piece starts on a 4-word
        # Philox counter) loop in Python per piece, so they run on 1,000
        # samples: 83 pieces of 12 and a partial one, against the whole
        # 1,000-row chunk as one piece.  The layered estimate and the
        # derivative check pair the body with a box under non-dyadic
        # weights; the conditional and derivative estimators sample the
        # identity covariance only.
        runs = [_walk_bits(kind, sigma, 1000)]
        for rows in (12, 4):
            _set_piece_rows(monkeypatch, rows)
            runs.append(_walk_bits(kind, sigma, 1000))
        assert all(run == runs[0] for run in runs)

    @pytest.mark.parametrize("sigma", ["dense", "identity"])
    @pytest.mark.parametrize("kind", sorted(BODIES3))
    def test_piece_size_does_not_move_a_bit(self, monkeypatch, kind, sigma):
        # Pieces concatenate to their chunk, each row is tested on its
        # own, the coordinates <u, z> are one gemv per piece and every
        # reduction still runs over whole chunks, so no piece size may
        # move a bit of the block-size test's estimates: PIECE_VALUES's
        # pieces, the row floor's and whole chunks give the same bits.
        runs = [_walk_bits(kind, sigma, GOLDEN_COUNT)]
        monkeypatch.setattr(mc, "PIECE_VALUES", 0)
        assert mc._piece_rows(3) == mc.PIECE_MIN_ROWS
        runs.append(_walk_bits(kind, sigma, GOLDEN_COUNT))
        _set_piece_rows(monkeypatch, CHUNK_SIZE)
        runs.append(_walk_bits(kind, sigma, GOLDEN_COUNT))
        assert all(run == runs[0] for run in runs)
        assert [hits for *_, hits in runs[0][:5]] == BLOCKED_PASS_HITS[kind, sigma]

    @pytest.mark.parametrize("name, dim", sorted(WIDE_GRID_HITS))
    def test_wide_ball_grid_hits_are_pinned(self, name, dim):
        cov, body, u = _wide_grid_case(name, dim)
        grid = estimate_power_grid(cov, body, u, [0.0, 0.8, 1.6], GOLDEN_COUNT, 11)
        assert [est.hits for est in grid] == WIDE_GRID_HITS[name, dim]

    @pytest.mark.parametrize("sigma", ["dense", "identity"])
    def test_worker_count_does_not_move_a_bit(self, monkeypatch, sigma):
        # Chunks are drawn ahead on the pool but reduced in chunk order, so
        # neither the pool size nor the look-ahead may move a bit.
        cov = DENSE3 if sigma == "dense" else identity_covariance(3)
        ball = LpBall(dim=3, p=2.0, radius=2.0)
        weight = build_layered(
            [Layer(1.0, ball), Layer(0.5, LpBall(dim=3, p=1.0, radius=1.5))]
        )

        def bits(count):
            results = [
                estimate_shift_prob(cov, ball, U3, 0.8, count, seed=3),
                estimate_layered_expectation(cov, weight, U3, 0.8, count, seed=3),
                estimate_layered_expectation(cov, CROSSING, U3, 0.8, count, seed=3),
                *_denom_power_grid(cov, ball, U3, (1.2,), count, seed=3),
                *_denom_power_grid(cov, ball, U3, [0.7, 0.0, 1.3], count, 5),
                estimate_conditional_center(ball, U3, 0.8, count, seed=3),
                verify_derivative_identity(weight, U3, 0.8, count, seed=3),
            ]
            return [_hex_fields(r) for r in results]

        for count in (GOLDEN_COUNT, 1000):
            runs = []
            for workers in (1, 2, 4):
                monkeypatch.setattr(mc, "SAMPLER_WORKERS", workers)
                runs.append(bits(count))
            assert all(run == runs[0] for run in runs)

    def test_blas_thread_count_does_not_move_a_bit(self):
        # A whole-chunk dot product splits its sum over OpenBLAS threads;
        # layer counts summed once after the pass do not.
        script = (
            "from test_mc import CROSSING, DENSE3, GOLDEN_COUNT, U3\n"
            "from shiftbounds import estimate_layered_expectation\n"
            "e = estimate_layered_expectation(DENSE3, CROSSING, U3, 0.8, GOLDEN_COUNT, 3)\n"
            "print(e.value.hex(), e.stderr.hex(), e.hits)\n"
        )
        here = Path(__file__).resolve().parent
        path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        est = estimate_layered_expectation(DENSE3, CROSSING, U3, 0.8, GOLDEN_COUNT, 3)
        want = f"{est.value.hex()} {est.stderr.hex()} {est.hits}\n"
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = threads
            child = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                timeout=300,
            )
            assert (child.returncode, child.stdout) == (0, want), child.stderr

    def test_only_sampling_leaves_the_calling_thread(self, monkeypatch):
        # Membership tests, weights and the reduction stay on the caller's
        # thread, in one-plan runs and a multi-plan run alike (the single
        # span stack of perfbench/tracing.py and the nesting check of
        # perfbench/smoke.py rely on it); the draws run on the pool.
        caller = threading.get_ident()
        threads = {"sample": set(), "reduce": set()}

        def on_thread(role, function):
            def wrapper(*args):
                threads[role].add(threading.get_ident())
                return function(*args)

            return wrapper

        draw = mc._normal_chunk
        monkeypatch.setattr(mc, "_normal_chunk", on_thread("sample", draw))
        for kind in {type(body) for body in BODIES3.values()}:
            monkeypatch.setattr(kind, "contains_batch", on_thread("reduce", kind.contains_batch))
        monkeypatch.setattr(LayeredUnimodal, "weigh", on_thread("reduce", LayeredUnimodal.weigh))
        body = BODIES3["intersection"]
        weight = as_layered(LpBall(dim=3, p=2.0, radius=2.0))
        estimate_shift_prob(DENSE3, body, U3, 0.8, GOLDEN_COUNT, seed=3)
        estimate_power_grid(identity_covariance(3), body, U3, [0.0, 1.0], GOLDEN_COUNT, 3)
        estimate_layered_expectation(DENSE3, weight, U3, 0.8, GOLDEN_COUNT, seed=3)
        estimate_conditional_center(body, U3, 0.8, GOLDEN_COUNT, seed=3)
        verify_derivative_identity(weight, U3, 0.8, GOLDEN_COUNT, seed=3)
        n = CHUNK_SIZE + 123
        mc.run_plans([
            mc.sandwich_plan(DENSE3, CROSSING, U3, 0.8, n, seed=3),
            mc.power_grid_plan(DENSE3, BODIES3["h_polytope"], U3, [0.7, 0.0], n, seed=5),
            mc.derivative_plan(CROSSING, U3, 0.8, n, seed=9),
            mc.layered_plan(DENSE3, BODIES3["linear_image"], U3, 0.4, n, seed=11),
            mc.layered_plan(DENSE3, BODIES3["slab"], U3, 0.4, n, seed=11),
            mc.layered_plan(DENSE3, BODIES3["ellipsoid"], U3, 0.4, n, seed=11),
        ])
        assert threads["reduce"] == {caller}
        assert threads["sample"] and caller not in threads["sample"]

    def test_power_grid_needs_a_theta(self):
        with pytest.raises(DomainError):
            estimate_power_grid(COV2, UNIT_SLAB, E1, [], 1000, seed=1)
        with pytest.raises(DomainError):
            estimate_power_grid(COV2, UNIT_SLAB, E1, np.array([]), 1000, seed=1)

    @pytest.mark.parametrize(
        "grid", [np.array([0.0]), np.linspace(0.0, 2.0, 5)], ids=["one", "five"]
    )
    def test_power_grid_takes_an_array(self, grid):
        got = estimate_power_grid(COV2, UNIT_SLAB, E1, grid, 1000, seed=1)
        want = estimate_power_grid(COV2, UNIT_SLAB, E1, grid.tolist(), 1000, seed=1)
        assert [_hex_fields(e) for e in got] == [_hex_fields(e) for e in want]

    def test_golden_derivative_check(self):
        u = Direction.from_vector(np.array([1.0, 2.0]))
        check = verify_derivative_identity(TWO_LAYER, u, 0.7, GOLDEN_COUNT, seed=5)
        got = {
            name: getattr(check, name).hex()
            for name in (
                "t", "fd_estimate", "fd_stderr", "direct_estimate",
                "direct_stderr", "expectation", "difference", "sigma_diff",
                "tolerance", "floor_value",
            )
        }
        assert got == {
            "t": "0x1.6666666666666p-1",
            "fd_estimate": "-0x1.20fc93529ba7ap-2",
            "fd_stderr": "0x1.6b0917110a827p-7",
            "direct_estimate": "-0x1.1b1cd862d777dp-2",
            "direct_stderr": "0x1.28a07408e2766p-9",
            "expectation": "0x1.eb6273d92b541p-1",
            "difference": "-0x1.77eebbf10bf0cp-8",
            "sigma_diff": "0x1.78f9bbd688a6fp-7",
            "tolerance": "0x1.812ae2c0017bfp-5",
            "floor_value": "-0x1.57f81de4d1879p-1",
        }
        assert mc.DERIVATIVE_STEP.hex() == "0x1.47ae147ae147bp-7"
        assert check.identity_ok and check.floor_ok

    def test_derivative_check_shares_the_layered_stream(self):
        # The derivative check's mid-shift mean is the layered estimator
        # under the identity covariance, on the same stream.
        u = Direction.from_vector(np.array([1.0, 2.0]))
        check = verify_derivative_identity(TWO_LAYER, u, 0.7, GOLDEN_COUNT, seed=5)
        est = estimate_layered_expectation(
            identity_covariance(2), TWO_LAYER, u, 0.7, GOLDEN_COUNT, seed=5
        )
        assert check.expectation == est.value

    def test_seed_record(self):
        est = estimate_shift_prob(COV2, UNIT_SLAB, E1, 0.5, 1000, seed=21)
        assert (est.seed, est.substream) == (21, SUBSTREAM_MAIN)
        assert est.samples == 1000


class TestWalker:
    @pytest.mark.parametrize("kind", sorted(BODIES3))
    def test_flat_and_zero_shifts_match_the_broadcast_add(self, kind):
        # 1,000 rows: three whole tiles and a partial one.  Signed zeros,
        # NaN and infinities must get the verdicts of np.add(x, s u).
        rng = np.random.default_rng(23)
        x = rng.standard_normal((1000, 3)) @ np.asarray(DENSE3.chol).T
        x[:4] = [[-0.0, -0.0, -0.0], [-0.0, 0.0, -0.0], [math.nan, 0.0, 1.0],
                 [0.5, math.inf, -0.0]]
        x[-3:] = [[-math.inf, 0.2, 0.1], [math.nan, math.nan, math.nan], [-0.0, 1.0, -0.0]]
        body = BODIES3[kind]
        out = np.empty_like(x)
        with np.errstate(all="ignore"):
            for s in (0.0, -0.0, 0.9, -1.3):
                want = np.add(x, s * U3.entries)
                got = mc._shifted(x, mc._offset_tile(s, U3), out)
                assert np.array_equal(body.contains_batch(got), body.contains_batch(want))
                if s != 0.0:
                    assert got is out
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
                else:
                    assert got is x

    def test_multi_plan_run_matches_one_check_at_a_time(self):
        ball = LpBall(dim=3, p=2.0, radius=2.0)
        polytope = BODIES3["h_polytope"]
        n = GOLDEN_COUNT
        plans = [
            mc.sandwich_plan(DENSE3, ball, U3, 0.8, n, seed=3),
            mc.power_grid_plan(DENSE3, polytope, U3, [0.7, 0.0, 1.3], n, seed=5, substream=1),
            mc.conditional_plan(ball, U3, 0.8, n, seed=7),
            mc.derivative_plan(CROSSING, U3, 0.8, n, seed=9),
            mc.sandwich_plan(DENSE3, CROSSING, U3, 1.5, n, seed=11),
            mc.power_envelope_plan(
                DENSE3, polytope, U3, ratio_bounds_grid(DENSE3, polytope, U3, (1.2,)), n,
                seed=13,
            ),
        ]
        singles = [
            verify_sandwich(DENSE3, ball, U3, 0.8, n, seed=3),
            _denom_power_grid(DENSE3, polytope, U3, [0.7, 0.0, 1.3], n, seed=5),
            estimate_conditional_center(ball, U3, 0.8, n, seed=7),
            verify_derivative_identity(CROSSING, U3, 0.8, n, seed=9),
            verify_sandwich(DENSE3, CROSSING, U3, 1.5, n, seed=11),
            verify_power_envelope(DENSE3, polytope, U3, 1.2, n, seed=13),
        ]
        *results, (_, (verdict,)) = mc.run_plans(plans)
        assert [_hex_tree(r) for r in [*results, verdict]] == [_hex_tree(r) for r in singles]

    def test_widest_walk_holds_pieces_not_chunks(self, monkeypatch):
        # On 2 workers a walk holds 1 + 3 * 2 pieces at the 4,096-row floor
        # (2.1 MB of doubles each at d = 64) and one transformed and one
        # shifted piece, about 20 MB traced in all; 16,384-row pieces
        # peaked at 66 MB, and whole chunks (33.5 MB each, one tested and
        # two drawn ahead) at 110 MB.
        monkeypatch.setattr(mc, "SAMPLER_WORKERS", 2)
        cov, body, u = _wide_grid_case("l2", MAX_DIM)
        thetas = [0.0, 0.5, 1.0, 1.5, 2.0]
        tracemalloc.start()
        try:
            grid = estimate_power_grid(cov, body, u, thetas, 4 * CHUNK_SIZE, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [est.hits for est in grid] == WIDEST_GRID_HITS
        assert peak < 30e6

    @pytest.mark.parametrize("check", ["derivative", "dense_power_grid"])
    def test_narrow_walks_hold_little(self, monkeypatch, check):
        # Pieces of PIECE_VALUES values hold about the same bytes at every
        # dim <= 8, and the derivative check reduces its weight rows in
        # place (NARROW_PEAK_BOUNDS).
        monkeypatch.setattr(mc, "SAMPLER_WORKERS", 2)
        tracemalloc.start()
        try:
            if check == "derivative":
                verify_derivative_identity(CROSSING, U3, 0.9, 2 * CHUNK_SIZE, seed=5)
            else:
                cov, body, u = _wide_grid_case("l2", 6)
                estimate_power_grid(cov, body, u, [0.0, 0.5, 1.0, 1.5, 2.0], 2 * CHUNK_SIZE, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < NARROW_PEAK_BOUNDS[check]

    @pytest.mark.parametrize("suite", sorted(SUITE_WALKS))
    def test_suite_draws_exactly_the_chunks_it_reads(self, monkeypatch, suite):
        # Two chunks per walk, the second of one row: the window runs over
        # every check of the run and stops at the last piece read.
        draws = _count_draws(monkeypatch)
        cfg = parse_run_config(
            {"dim": 1, "suite": suite, "mc": {"samples": CHUNK_SIZE + 1, "seed": 0}}
        )
        cmd_verify(cfg)
        _assert_walks_tile_their_chunks(draws, CHUNK_SIZE + 1, SUITE_WALKS[suite])


    @pytest.mark.parametrize(
        "config, walks",
        [
            ({"theta_grid": [0.0, 1.0, 0.5], "mc": {"samples": CHUNK_SIZE + 1}}, 2),
            ({"theta_grid": [0.0], "mc": {"samples": CHUNK_SIZE + 1}}, 1),
            ({"theta_grid": [0.0, 1.0], "alpha": 0.05}, 0),
        ],
        ids=["theta_grid", "size_only", "alpha_only"],
    )
    def test_power_draws_exactly_the_chunks_it_reads(self, monkeypatch, config, walks):
        # MAIN (the size and every power) and, with a theta > 0 to check,
        # DENOM (the verdicts' size): two chunks per walk.
        draws = _count_draws(monkeypatch)
        body = {"kind": "lp_ball", "dim": 2, "p": 2.0, "radius": 2.0}
        cmd_power(parse_run_config({"dim": 2, "u": [1.0, 0.0], "body": body, **config}))
        _assert_walks_tile_their_chunks(draws, CHUNK_SIZE + 1, walks)


class TestEstimators:
    def test_shift_prob_matches_slab_closed_form(self):
        for t in (0.0, 1.0, 2.0):
            est = estimate_shift_prob(COV2, UNIT_SLAB, E1, t, 400000, seed=23)
            want = oracle_slab(1.0, t)
            assert abs(est.value - want) <= 4.0 * est.stderr
            # Indicator stderr is the binomial formula.
            want_se = math.sqrt(est.value * (1.0 - est.value) / est.samples)
            assert est.stderr == pytest.approx(want_se, rel=1e-12)

    def test_single_layer_matches_indicator_estimate(self):
        # Same stream, same integrand: the layered route must agree with
        # the membership route exactly, not just statistically.
        layered = estimate_layered_expectation(
            COV2, as_layered(UNIT_SLAB), E1, 0.7, 200000, seed=29
        )
        direct = estimate_shift_prob(COV2, UNIT_SLAB, E1, 0.7, 200000, seed=29)
        assert layered == direct

    def test_crossing_weight_matches_its_pointwise_values(self):
        # Summed from counts, the estimate still agrees with the weight's
        # values on the same stream, up to the rounding of each row's sum.
        est = estimate_layered_expectation(DENSE3, CROSSING, U3, 0.8, GOLDEN_COUNT, 3)
        values = np.concatenate([
            CROSSING.evaluate_batch(x - 0.8 * U3.entries)
            for x in sample_gaussian(DENSE3, GOLDEN_COUNT, 3)
        ])
        mean = math.fsum(values) / GOLDEN_COUNT
        second = math.fsum(values * values) / GOLDEN_COUNT
        assert est.hits == np.count_nonzero(values)
        assert abs(est.value - mean) <= 4 * math.ulp(mean)
        stderr = math.sqrt((second - mean * mean) / GOLDEN_COUNT)
        assert est.stderr == pytest.approx(stderr, rel=1e-12)

    def test_weight_scaling_is_exact(self):
        doubled = build_layered(
            [
                Layer(2.0, LpBall(dim=2, p=2.0, radius=2.0)),
                Layer(1.0, LpBall(dim=2, p=2.0, radius=1.0)),
            ]
        )
        a = estimate_layered_expectation(COV2, TWO_LAYER, E1, 0.5, 150000, seed=31)
        b = estimate_layered_expectation(COV2, doubled, E1, 0.5, 150000, seed=31)
        assert b.value == 2.0 * a.value
        assert b.stderr == 2.0 * a.stderr
        assert b.hits == a.hits

    def test_power_at_zero_is_size_complement(self):
        reject = estimate_power(COV2, UNIT_SLAB, E1, 0.0, 200000, seed=37)
        accept = estimate_shift_prob(COV2, UNIT_SLAB, E1, 0.0, 200000, seed=37)
        # Same stream, so the indicator complements sample by sample.
        assert reject.hits == accept.samples - accept.hits
        assert reject.value == pytest.approx(1.0 - accept.value, abs=1e-15)

    def test_power_increases_with_shift(self):
        values = [
            estimate_power(COV2, UNIT_SLAB, E1, theta, 200000, seed=41).value
            for theta in (0.0, 1.0, 2.0)
        ]
        assert values[0] < values[1] < values[2]

    def test_conditional_center_slab_closed_form(self):
        # Conditioning a slab on its own normal truncates the coordinate
        # to [t-a, t+a]; the mean has the closed form -g_a'(t)/g_a(t).
        est = estimate_conditional_center(UNIT_SLAB, E1, 1.0, 400000, seed=43)
        want = 0.7227897522452308
        assert abs(est.value - want) <= 4.0 * est.stderr
        assert est.value <= 1.0 + 4.0 * est.stderr
        assert est.hits >= 100

    def test_conditional_center_starvation(self):
        tiny = LpBall(dim=2, p=2.0, radius=0.05)
        with pytest.raises(InsufficientHitsError):
            estimate_conditional_center(tiny, E1, 5.0, 20000, seed=47)

    def test_dimension_mismatch(self):
        from shiftbounds import ShapeError

        with pytest.raises(ShapeError):
            estimate_shift_prob(identity_covariance(3), UNIT_SLAB, E1, 0.5, 100, seed=1)
        with pytest.raises(DomainError):
            estimate_shift_prob(COV2, UNIT_SLAB, E1, -0.5, 100, seed=1)


class TestVerifySandwich:
    def test_slab_passes(self):
        verdict = verify_sandwich(COV2, UNIT_SLAB, E1, 1.0, 200000, seed=53)
        assert verdict.passed
        assert verdict.lower_z >= -4.0 and verdict.upper_z >= -4.0
        assert verdict.numerator.substream == SUBSTREAM_MAIN
        assert verdict.denominator.substream == SUBSTREAM_DENOM
        # The slab attains the upper bound: the estimate straddles it.
        assert abs(verdict.upper_z) <= 4.0

    def test_layered_target(self):
        verdict = verify_sandwich(COV2, TWO_LAYER, E1, 0.8, 200000, seed=59)
        assert verdict.passed

    def test_fault_injection_is_detected(self):
        # Shrinking the upper bound must produce a detected violation;
        # this is the canary proving the verdict can fail at all.
        plan = mc.sandwich_plan(COV2, UNIT_SLAB, E1, 1.0, 200000, seed=61, upper_scale=0.5)
        (verdict,) = mc.run_plans((plan,))
        assert not verdict.passed
        assert verdict.upper_z < -4.0
        assert verdict.upper_scale == 0.5

    def test_starved_denominator(self):
        tiny = LpBall(dim=2, p=2.0, radius=0.002)
        with pytest.raises(InsufficientMassError):
            verify_sandwich(COV2, tiny, E1, 0.5, CHUNK_SIZE, seed=67)


class TestVerifyDerivative:
    def test_slab_identity_and_floor(self):
        check = verify_derivative_identity(UNIT_SLAB, E1, 0.5, 300000, seed=71)
        assert check.passed
        assert abs(check.difference) <= check.tolerance
        # Against the analytic slab derivative.
        from shiftbounds import slab_mass

        want = slab_mass(1.0, 0.5).derivative
        assert abs(check.fd_estimate - want) <= 4.0 * check.fd_stderr + 1e-3
        assert check.fd_estimate >= check.floor_value - 4.0 * check.fd_stderr

    def test_two_layer_weight(self):
        check = verify_derivative_identity(TWO_LAYER, E1, 1.0, 300000, seed=73)
        assert check.passed

    def test_threshold_scales_every_margin(self):
        default = verify_derivative_identity(UNIT_SLAB, E1, 0.5, 20000, seed=71)
        assert default.tolerance == 4.0 * default.sigma_diff + mc.DERIVATIVE_ALLOWANCE
        # The analytic-derivative margin reads the same threshold.
        margin = 4.0 * default.fd_stderr + mc.DERIVATIVE_ALLOWANCE
        assert default.matches(default.fd_estimate + 0.99 * margin)
        assert not default.matches(default.fd_estimate + 1.01 * margin)

    def test_step_domain(self):
        # t must exceed the fixed step, so t - step stays a positive shift.
        with pytest.raises(DomainError):
            verify_derivative_identity(UNIT_SLAB, E1, mc.DERIVATIVE_STEP, 1000, seed=1)
        with pytest.raises(DomainError):
            verify_derivative_identity(UNIT_SLAB, E1, 0.005, 1000, seed=1)
        with pytest.raises(DomainError):
            verify_derivative_identity(UNIT_SLAB, E1, 0.0, 1000, seed=1)
        with pytest.raises(DomainError):
            verify_derivative_identity(UNIT_SLAB, E1, math.inf, 1000, seed=1)


def _estimate(value: float, stderr: float) -> mc.McEstimate:
    return mc.McEstimate(
        value=value, stderr=stderr, samples=100, hits=0, seed=1, substream=SUBSTREAM_MAIN
    )


class TestScores:
    def test_interval_combines_each_bounds_stderr(self):
        lower_z, upper_z, passed = mc.score_interval(
            _estimate(0.5, 0.03), 0.4, 0.04, 0.9, 0.0
        )
        assert lower_z == (0.5 - 0.4) / math.hypot(0.03, 0.04)
        assert upper_z == (0.9 - 0.5) / 0.03
        assert passed

    def test_interval_fails_past_the_threshold(self):
        lower_z, _, passed = mc.score_interval(_estimate(0.5, 0.01), 0.55, 0.0, 1.0, 0.0)
        assert lower_z == pytest.approx(-5.0) and not passed

    def test_infinite_bound_never_fails(self):
        lower_z, upper_z, passed = mc.score_interval(
            _estimate(0.5, 0.0), -math.inf, 0.0, 0.5, 0.0
        )
        assert (lower_z, upper_z, passed) == (math.inf, 0.0, True)

    @pytest.mark.parametrize(
        "value, z, passed", [(0.25, 0.0, True), (0.5, math.inf, False), (0.0, -math.inf, False)]
    )
    def test_zero_stderr_passes_only_on_the_reference(self, value, z, passed):
        assert mc.score_agreement(_estimate(value, 0.0), 0.25) == (z, passed)
        lower_z, upper_z, ok = mc.score_interval(_estimate(value, 0.0), 0.25, 0.0, 0.25, 0.0)
        assert (lower_z, upper_z, ok) == (z, -z, passed)

    def test_agreement_is_two_sided(self):
        assert mc.score_agreement(_estimate(0.5, 0.1), 0.2) == ((0.5 - 0.2) / 0.1, True)
        z, passed = mc.score_agreement(_estimate(0.5, 0.05), 0.75)
        assert z == (0.5 - 0.75) / 0.05 and not passed


class TestVerifyPower:
    def test_ball_envelope_passes(self):
        ball = LpBall(dim=2, p=2.0, radius=2.0)
        verdict = verify_power_envelope(COV2, ball, E1, 1.0, 200000, seed=79)
        assert verdict.passed
        assert 0.0 < verdict.alpha_estimate.value < 1.0
        assert verdict.beta_lower <= verdict.beta_estimate.value + 4.0 * verdict.beta_estimate.stderr
        assert verdict.beta_estimate.value <= verdict.beta_upper + 4.0 * verdict.beta_estimate.stderr

    def test_domain(self):
        for theta in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                verify_power_envelope(COV2, UNIT_SLAB, E1, theta, 1000, seed=1)

    @pytest.mark.parametrize("size", [0.0, 1.0])
    def test_degenerate_size_estimate_is_scored(self, size):
        # An estimated size of exactly 0 or 1 lies outside power_envelope's
        # domain; the score still evaluates the envelope formula there.
        report = ratio_bounds_set(COV2, UNIT_SLAB, E1, 1.0)
        stream = {"seed": 1, "substream": SUBSTREAM_DENOM}
        alpha = mc.McEstimate(
            value=size, stderr=0.0, samples=100, hits=int(100 * size), **stream
        )
        beta = mc.McEstimate(value=0.5, stderr=0.05, samples=100, hits=50, **stream)
        verdict = mc.score_power_envelope(report, alpha, beta)
        assert verdict.beta_lower == 1.0 - report.upper * (1.0 - size)
        assert verdict.beta_upper == 1.0 - report.lower * (1.0 - size)
        assert verdict.lower_z == (0.5 - verdict.beta_lower) / 0.05
        assert verdict.upper_z == (verdict.beta_upper - 0.5) / 0.05
        assert verdict.theta == 1.0

    def test_far_orthogonal_shift_keeps_the_size(self):
        # A shift orthogonal to the slab's normal leaves every point's
        # membership alone, however far.  theta = inf used to read 1.0
        # here (inf * 0 gave NaN coordinates); it is now a DomainError.
        slab = Slab(normal=Direction.from_vector(np.array([0.0, 1.0])), halfwidth=1.0)
        far = estimate_power(COV2, slab, E1, 1e300, 20000, seed=3)
        assert far == estimate_power(COV2, slab, E1, 0.0, 20000, seed=3)


def _scaled(fn, factor):
    return lambda *args: factor * fn(*args)


def _power_bounds_upper_at_lower(report, alpha):
    lower, _ = bounds.power_bounds(report, alpha)
    return lower, lower


def _power_envelope_lower_at_upper(report, alpha):
    envelope = bounds.power_envelope(report, alpha)
    return dataclasses.replace(envelope, beta_lower=envelope.beta_upper)


def _edited_ratio_bounds(edit):
    return lambda *args: [edit(report) for report in bounds.ratio_bounds_grid(*args)]


# Each bound the derivative, conditional, power and sandwich suites score,
# and each reference the oracles suite checks against, patched where the
# suite reads it, and the checks the patch must fail.  derivative_floor is
# negative, so halving it raises the floor past the slab's true derivative.
# A 1% larger ball mass leaves its log-derivative and the far tail's cap
# alone; the slab oracle also serves oracle_ball at dim 1, so the dim-1
# anchor still agrees.  An upper bound 5% too high (capped at 1) fails only
# the extremal slabs, which must sit on it, not merely below it.
FAULT_PROBES = {
    "derivative_floor_halved": (
        "derivative", mc, "derivative_floor", _scaled(bounds.derivative_floor, 0.5),
        ["derivative_slab_t0.5", "derivative_slab_t1.0"],
    ),
    "conditional_ceiling_halved": (
        "conditional", suites, "conditional_coordinate_ceiling",
        _scaled(bounds.conditional_coordinate_ceiling, 0.5),
        ["conditional_ball_r15_far_t1.0", "conditional_ball_r15_t0.5",
         "conditional_box_r12_t0.5", "conditional_slab_a1_t1.0"],
    ),
    "power_bounds_upper_at_lower": (
        "power", mc, "power_bounds", _power_bounds_upper_at_lower,
        ["power_estimated_alpha_ball", "power_estimated_alpha_box"],
    ),
    "power_envelope_lower_at_upper": (
        "power", suites, "power_envelope", _power_envelope_lower_at_upper,
        ["power_slab_theta0.5", "power_slab_theta1.0", "power_slab_theta2.0"],
    ),
    "oracle_ball_raised": (
        "oracles", oracles, "oracle_ball", _scaled(oracles.oracle_ball, 1.01),
        ["oracle_ball_dim1_slab", "oracle_ball_frozen_values",
         "oracle_ball_mc_n2_r2_t0", "oracle_ball_mc_n2_r2_t1",
         "oracle_ball_mc_n3_r2_t0", "oracle_ball_mc_n3_r2_t1", "oracle_ball_n3_closed_form"],
    ),
    "oracle_slab_raised": (
        "oracles", oracles, "oracle_slab", _scaled(oracles.oracle_slab, 1.01),
        ["oracle_slab_mc_battery"],
    ),
    "sandwich_upper_raised": (
        "sandwich", mc, "ratio_bounds_grid",
        _edited_ratio_bounds(lambda r: dataclasses.replace(r, upper=min(1.0, 1.05 * r.upper))),
        ["sandwich_extremal_eye", "sandwich_extremal_rnd"],
    ),
}
FAULT_PROBE_SAMPLES = 131_072


def _run_suite(suite: str) -> list:
    return suites.SUITES[suite](samples=FAULT_PROBE_SAMPLES, seed=0)


def _failed_checks(suite: str) -> list[str]:
    return sorted(r.check for r in _run_suite(suite) if not r.passed)


def test_suite_oracles_builds_one_identity_per_dimension(monkeypatch):
    # 12 ball and 20 slab plans over dimensions 2, 3 and 5.
    calls = []
    build = linalg.build_covariance

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(linalg, "build_covariance", counting)
    suites.suite_oracles(samples=2000)
    assert len(calls) == 3


class TestSuiteFaultProbes:
    """Each bound a suite scores can fail the suite: a wrong bound shows."""

    @pytest.mark.parametrize(
        "suite", ["conditional", "derivative", "oracles", "power", "sandwich"]
    )
    def test_unpatched_suite_passes(self, suite):
        assert _failed_checks(suite) == []

    @pytest.mark.parametrize("probe", sorted(FAULT_PROBES))
    def test_patched_bound_fails_exactly_its_checks(self, monkeypatch, probe):
        suite, module, name, patched, expected = FAULT_PROBES[probe]
        monkeypatch.setattr(module, name, patched)
        assert _failed_checks(suite) == expected

    def test_sandwich_lower_at_upper_fails_every_check_with_room(self, monkeypatch):
        # With lower := upper, both sides share one sigma and a - b = -(b - a)
        # in IEEE arithmetic, so every lower_z is exactly -upper_z: the
        # checks fail whose upper bound has more than Z_THRESHOLD sigmas of
        # room.  The upper side is untouched, so upper_z keeps its unpatched
        # bits; two battery checks sit near the threshold, so the set is read
        # off them rather than pinned.
        lower_at_upper = _edited_ratio_bounds(lambda r: dataclasses.replace(r, lower=r.upper))
        monkeypatch.setattr(mc, "ratio_bounds_grid", lower_at_upper)
        results = _run_suite("sandwich")
        assert all(r.details["lower_z"] == -r.details["upper_z"] for r in results)
        roomy = sorted(r.check for r in results if r.details["upper_z"] > mc.Z_THRESHOLD)
        assert sorted(r.check for r in results if not r.passed) == roomy
        assert len(roomy) >= len(results) // 2
