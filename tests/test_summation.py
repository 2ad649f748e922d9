import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riemannlab.summation import neumaier_sum


class TestNeumaier:
    def test_empty(self):
        assert neumaier_sum([]) == (0.0, 0.0)

    def test_cancellation_case(self):
        # naive left-to-right summation loses the 1.0 here
        values = [1e16, 1.0, -1e16]
        total, residual = neumaier_sum(values)
        assert total == 1.0
        assert residual != 0.0

    def test_matches_fsum_on_random_data(self):
        rng = np.random.default_rng(0)
        for scale in (1.0, 1e8, 1e-8):
            values = rng.standard_normal(10_000) * scale
            total, _ = neumaier_sum(values)
            assert abs(total - math.fsum(values)) <= 4 * np.finfo(float).eps * np.sum(
                np.abs(values)
            )

    @given(st.lists(st.floats(-1e12, 1e12, allow_nan=False), max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_close_to_exact(self, values):
        total, _ = neumaier_sum(values)
        exact = math.fsum(values)
        scale = math.fsum(abs(v) for v in values)
        assert abs(total - exact) <= 4 * np.finfo(float).eps * max(scale, 1.0)

    def test_order_is_part_of_the_contract(self):
        values = np.array([0.1, 0.2, 0.3, 0.4])
        a = neumaier_sum(values)
        b = neumaier_sum(values)
        assert a == b  # bitwise reproducible, residual included

    @given(
        st.lists(
            st.floats(-1e300, 1e300, allow_nan=False), max_size=200
        ).flatmap(lambda v: st.tuples(st.just(v), st.permutations(v)))
    )
    @example(([8629323275487076.0, 2241961246255065.0, 1.2090499913545907e-17],) * 2)
    @settings(max_examples=200, deadline=None)
    def test_total_is_fsum_in_any_order(self, values_and_permutation):
        values, permuted = values_and_permutation
        exact = math.fsum(values)
        assert neumaier_sum(values)[0].hex() == exact.hex()
        assert neumaier_sum(permuted)[0].hex() == exact.hex()

    def test_residual_is_the_correction_over_the_plain_ascending_sum(self):
        values = [1e16, 1.0, -1e16]
        plain = (1e16 + 1.0) + -1e16  # 0.0: the 1.0 is lost
        total, residual = neumaier_sum(values)
        assert residual == total - plain == 1.0
