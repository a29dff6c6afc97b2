import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from transitopt import enumerate_combinations, frequency_shares, perceived_headway
from transitopt.combos import CombinationError


def ascending_menu(draw, max_len=7):
    length = draw(st.integers(min_value=1, max_value=max_len))
    values = draw(st.lists(st.floats(min_value=1.0, max_value=60.0),
                           min_size=length, max_size=length, unique=True))
    return tuple(sorted(values))


menus = st.builds(tuple, st.lists(
    st.floats(min_value=1.0, max_value=60.0), min_size=1, max_size=7, unique=True
).map(sorted))


class TestEnumeration:
    @pytest.mark.parametrize("n_patterns,menu_size,expected", [
        (2, 2, 8),
        (3, 3, 63),
        (1, 1, 1),
    ])
    def test_cardinality_examples(self, n_patterns, menu_size, expected):
        menu = tuple(float(4 + k) for k in range(menu_size))
        cs = enumerate_combinations(n_patterns, menu)
        assert len(cs) == expected

    def test_two_pattern_listing_is_lexicographic(self):
        cs = enumerate_combinations(2, (5.0, 7.0))
        assert [c.headway_indices for c in cs] == [
            (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]

    def test_single_pattern_single_headway(self):
        cs = enumerate_combinations(1, (6.0,))
        assert [c.headway_indices for c in cs] == [(1,)]
        assert cs[0].perceived_headway == 6.0

    @given(st.integers(min_value=1, max_value=3), menus)
    def test_cardinality_formula(self, n_patterns, menu):
        cs = enumerate_combinations(n_patterns, menu)
        assert len(cs) == (len(menu) + 1) ** n_patterns - 1
        assert len({c.headway_indices for c in cs}) == len(cs)

    def test_empty_menu_rejected(self):
        with pytest.raises(CombinationError):
            enumerate_combinations(2, ())

    def test_consistent_with(self):
        cs = enumerate_combinations(2, (5.0, 7.0))
        # pattern 0 at menu index 1, pattern 1 off
        ids = cs.consistent_with((1, 0))
        assert [cs[k].headway_indices for k in ids] == [(1, 0)]
        ids = cs.consistent_with((1, 2))
        assert [cs[k].headway_indices for k in ids] == [(0, 2), (1, 0), (1, 2)]

    def test_consistent_with_is_stored_per_assignment(self):
        cs = enumerate_combinations(2, (5.0, 7.0))
        for assigned in product(range(3), repeat=2):
            scan = tuple(k for k, c in enumerate(cs)
                         if all(assigned[p] == c.headway_indices[p] for p in c.active_patterns))
            first = cs.consistent_with(assigned)
            assert first == scan and type(first) is tuple
            assert cs.consistent_with(list(assigned)) is first
        # the sets are shared per (n_patterns, menu), and so are the answers
        assert enumerate_combinations(2, [5.0, 7.0]).consistent_with((1, 2)) is \
            cs.consistent_with((1, 2))


class TestPerceivedHeadway:
    def test_examples(self):
        assert perceived_headway((1,), (7.0,)) == 7.0
        assert perceived_headway((1, 2), (5.0, 7.0)) == pytest.approx(35.0 / 12.0)
        assert perceived_headway((1, 2, 3), (5.0, 7.0, 10.0)) == pytest.approx(70.0 / 31.0)

    def test_all_zero_rejected(self):
        with pytest.raises(CombinationError):
            perceived_headway((0, 0), (5.0, 7.0))

    def test_frequencies_added_left_to_right(self):
        # the same on every interpreter: ``sum`` of floats is compensated
        # from Python 3.12, and gives 1.894736842105263 here
        assert perceived_headway((1, 2, 3), (4.0, 6.0, 9.0)) == 1.8947368421052635

    @given(menus, st.data())
    def test_harmonic_identity(self, menu, data):
        n_patterns = data.draw(st.integers(min_value=1, max_value=3))
        vec = data.draw(st.lists(st.integers(min_value=0, max_value=len(menu)),
                                 min_size=n_patterns, max_size=n_patterns)
                        .filter(lambda v: any(h != 0 for h in v)))
        t_c = perceived_headway(vec, menu)
        inv = sum(1.0 / menu[h - 1] for h in vec if h != 0)
        assert abs(1.0 / t_c - inv) <= 1e-9

    @given(menus, st.data())
    def test_never_above_min_active(self, menu, data):
        n_patterns = data.draw(st.integers(min_value=1, max_value=3))
        vec = data.draw(st.lists(st.integers(min_value=0, max_value=len(menu)),
                                 min_size=n_patterns, max_size=n_patterns)
                        .filter(lambda v: any(h != 0 for h in v)))
        t_c = perceived_headway(vec, menu)
        min_active = min(menu[h - 1] for h in vec if h != 0)
        n_active = sum(1 for h in vec if h != 0)
        assert t_c <= min_active + 1e-12
        if n_active == 1:
            assert t_c == min_active

    def test_adding_pattern_strictly_decreases(self):
        menu = (5.0, 7.0, 10.0)
        base = perceived_headway((1, 0, 0), menu)
        more = perceived_headway((1, 3, 0), menu)
        even_more = perceived_headway((1, 3, 2), menu)
        assert more < base
        assert even_more < more


class TestFrequencyShares:
    def test_examples(self):
        assert frequency_shares((1, 2), (5.0, 10.0)) == pytest.approx((2 / 3, 1 / 3))
        assert frequency_shares((0, 1), (5.0, 10.0)) == pytest.approx((0.0, 1.0))
        assert frequency_shares((1, 1), (7.0, 9.0)) == pytest.approx((0.5, 0.5))

    @given(menus, st.data())
    def test_sum_and_ratio(self, menu, data):
        n_patterns = data.draw(st.integers(min_value=1, max_value=3))
        vec = data.draw(st.lists(st.integers(min_value=0, max_value=len(menu)),
                                 min_size=n_patterns, max_size=n_patterns)
                        .filter(lambda v: any(h != 0 for h in v)))
        shares = frequency_shares(vec, menu)
        assert abs(sum(shares) - 1.0) <= 1e-12
        active = [p for p, h in enumerate(vec) if h != 0]
        for a in range(len(active)):
            for b in range(a + 1, len(active)):
                p1, p2 = active[a], active[b]
                t1, t2 = menu[vec[p1] - 1], menu[vec[p2] - 1]
                # share ratio equals the inverse headway ratio
                assert abs(shares[p1] * t1 - shares[p2] * t2) <= 1e-9 * max(t1, t2)

    def test_inactive_share_zero(self):
        shares = frequency_shares((0, 2, 1), (5.0, 7.0))
        assert shares[0] == 0.0
        assert shares[1] > 0 and shares[2] > 0


class TestRandomizedIdentity:
    def test_thousand_random_menus(self):
        rng = random.Random(20250808)
        for _ in range(1000):
            length = rng.randint(1, 7)
            menu = tuple(sorted(rng.uniform(1.0, 60.0) for _ in range(length)))
            if len(set(menu)) != length:
                continue
            n_patterns = rng.randint(1, 3)
            vec = [rng.randint(0, length) for _ in range(n_patterns)]
            if all(h == 0 for h in vec):
                vec[rng.randrange(n_patterns)] = rng.randint(1, length)
            t_c = perceived_headway(vec, menu)
            inv = sum(1.0 / menu[h - 1] for h in vec if h != 0)
            assert abs(1.0 / t_c - inv) <= 1e-9
            shares = frequency_shares(vec, menu)
            assert abs(sum(shares) - 1.0) <= 1e-12
