import numpy as np
import pytest

from tsakit import rng
from tsakit.errors import InvalidArgumentError


class TestUniforms:
    def test_open_interval(self):
        u = rng.uniforms(0, 100_000)
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_deterministic_in_seed(self):
        assert np.array_equal(rng.uniforms(5, 64), rng.uniforms(5, 64))
        assert not np.array_equal(rng.uniforms(5, 64), rng.uniforms(6, 64))

    def test_counter_based_prefix_property(self):
        # Drawing more values extends the sequence without changing the head.
        short = rng.uniforms(9, 10)
        long = rng.uniforms(9, 1000)
        assert np.array_equal(short, long[:10])

    def test_moments(self):
        u = rng.uniforms(123, 200_000)
        assert float(u.mean()) == pytest.approx(0.5, abs=0.005)
        assert float(u.var()) == pytest.approx(1.0 / 12.0, rel=0.02)

    def test_negative_count(self):
        with pytest.raises(InvalidArgumentError):
            rng.uniforms(1, -1)

    def test_zero_count(self):
        assert rng.uniforms(1, 0).size == 0

    # A float or bool count would draw ceil(count) values.
    @pytest.mark.parametrize("draw", [rng.uniforms, rng.normals])
    @pytest.mark.parametrize("count", [2.5, 3.0, True])
    def test_count_must_be_an_integer(self, draw, count):
        with pytest.raises(InvalidArgumentError) as info:
            draw(0, count)
        assert str(info.value) == f"count must be an integer, got {count!r}"

    @pytest.mark.parametrize("draw", [rng.uniforms, rng.normals])
    def test_numpy_integer_count_gives_the_same_draws(self, draw):
        assert draw(4, np.int64(37)).tobytes() == draw(4, 37).tobytes()
        assert draw(4, np.uint8(37)).tobytes() == draw(4, 37).tobytes()

    def test_negative_seed_allowed(self):
        assert np.array_equal(rng.uniforms(-3, 8), rng.uniforms(-3, 8))

    # A float seed used to fail in numpy, a bool to read as 0 or 1, and a
    # numpy integer to overflow a C long.
    @pytest.mark.parametrize("draw", [rng.uniforms, rng.normals])
    @pytest.mark.parametrize("seed", [1.5, 2.0, True])
    def test_seed_must_be_an_integer(self, draw, seed):
        with pytest.raises(InvalidArgumentError) as info:
            draw(seed, 2)
        assert str(info.value) == f"seed must be an integer, got {seed!r}"

    @pytest.mark.parametrize("draw", [rng.uniforms, rng.normals])
    @pytest.mark.parametrize("seed", [5, -3, 2**63 + 7])
    def test_numpy_integer_seed_gives_the_same_draws(self, draw, seed):
        as_numpy = np.uint64(seed) if seed >= 2**63 else np.int64(seed)
        assert draw(as_numpy, 37).tobytes() == draw(seed, 37).tobytes()

    # Every chunk of a streamed simulation draws its slice of one sequence.
    @pytest.mark.parametrize("start, count", [(0, 0), (0, 5), (3, 1), (17, 40), (4096, 7)])
    def test_draws_at_an_offset_are_a_slice_of_one_call(self, start, count):
        assert rng.normals(11, count, start=start).tobytes() == \
            rng.normals(11, 4200)[start:start + count].tobytes()
        assert rng.uniforms(11, count, start=start).tobytes() == \
            rng.uniforms(11, 4200)[start:start + count].tobytes()

    # The counter arithmetic in Python ints: draws past 2**32 and 2**63, and a
    # start whose counters wrap past 2**64 (the stream's period).
    @pytest.mark.parametrize("seed", [0, -3, 2**64 + 7])
    @pytest.mark.parametrize("start", [0, 5, 2**32 - 2, 2**63 - 1, 2**64 - 2, 2**64 + 5])
    def test_draws_match_the_counter_hash(self, seed, start):
        mask = (1 << 64) - 1

        def draw(t):
            v = (seed * 0x9E3779B97F4A7C15 + t * 0xBF58476D1CE4E5B9
                 + 0x9E3779B97F4A7C15) & mask
            v = ((v ^ v >> 30) * 0xBF58476D1CE4E5B9) & mask
            v = ((v ^ v >> 27) * 0x94D049BB133111EB) & mask
            return (((v ^ v >> 31) >> 11) + 0.5) / 2.0**53

        assert rng.uniforms(seed, 4, start).tolist() == [draw(start + i) for i in range(4)]


class TestNormals:
    def test_moments(self):
        z = rng.normals(321, 400_000)
        assert float(z.mean()) == pytest.approx(0.0, abs=0.01)
        assert float(z.var()) == pytest.approx(1.0, rel=0.01)
        skew = float(((z - z.mean()) ** 3).mean())
        excess = float(((z - z.mean()) ** 4).mean()) - 3.0
        assert abs(skew) < 0.02
        assert abs(excess) < 0.05

    def test_deterministic(self):
        assert np.array_equal(rng.normals(77, 128), rng.normals(77, 128))
