import itertools
import math

import pytest

from otl import (
    DividendSpec,
    MarketModel,
    Move,
    ResourceLimitError,
    ValidationError,
    derive_path_seed,
    enumerate_paths,
    price_process,
)
from otl.market import MAX_ENUM_HORIZON, expected_dividend_by_enumeration, sample_moves


def model(p=0.5, u=10.0, d=-10.0):
    return MarketModel(u=u, d=d, p_up=p)


class TestSamplePath:
    def test_certain_up(self):
        assert sample_moves(1.0, 5, path_seed=123) == (Move.UP,) * 5

    def test_certain_down(self):
        assert sample_moves(0.0, 3, path_seed=9) == (Move.DOWN,) * 3

    def test_deterministic_in_seed(self):
        a = sample_moves(0.37, 50, path_seed=777)
        b = sample_moves(0.37, 50, path_seed=777)
        assert a == b
        assert sample_moves(0.37, 50, path_seed=778) != a

    def test_single_move_frequency(self):
        # binomial 3-sigma band around p = 0.4 at N = 100,000
        n = 100_000
        ups = sum(
            sample_moves(0.4, 1, derive_path_seed(2024, i))[0] is Move.UP
            for i in range(n)
        )
        half_width = 3 * math.sqrt(0.4 * 0.6 / n)
        assert abs(ups / n - 0.4) < half_width


class TestSeedDerivation:
    def test_pure_function(self):
        assert derive_path_seed(42, 7) == derive_path_seed(42, 7)

    def test_spreads_indices(self):
        seeds = {derive_path_seed(42, i) for i in range(10_000)}
        assert len(seeds) == 10_000

    def test_master_seed_matters(self):
        assert derive_path_seed(1, 0) != derive_path_seed(2, 0)


class TestEnumeratePaths:
    def test_completeness_t2(self):
        paths = list(enumerate_paths(model(p=0.3), 2))
        assert len(paths) == 4
        assert sum(prob for _, prob in paths) == pytest.approx(1.0, abs=1e-12)

    def test_all_up_probability(self):
        paths = enumerate_paths(model(p=0.6), 3)
        uuu = next(prob for moves, prob in paths if moves == (Move.UP,) * 3)
        assert uuu == pytest.approx(0.216)

    def test_zero_horizon(self):
        assert list(enumerate_paths(model(), 0)) == [((), 1.0)]

    @pytest.mark.parametrize("T", range(13))
    def test_probabilities_sum_to_one(self, T):
        paths = enumerate_paths(model(p=0.42), T)
        assert sum(prob for _, prob in paths) == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_sum_to_one_at_the_bound(self):
        # 2^20 paths; the largest horizon the default bound admits
        probs = [prob for _, prob in enumerate_paths(model(p=0.55), 20)]
        assert len(probs) == 2**20
        # accurate summation: naive left-to-right accumulation over 2^20
        # terms drowns the check in its own rounding error
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.3, 0.42, 0.55])
    def test_probabilities_match_the_per_path_product(self, p):
        # reference: each path's weight multiplied out left to right, one
        # path at a time; every probability must agree to the last bit
        for T in range(13):
            expected = []
            for moves in itertools.product((Move.UP, Move.DOWN), repeat=T):
                prob = 1.0
                for mv in moves:
                    prob *= p if mv is Move.UP else (1.0 - p)
                expected.append((moves, prob.hex()))
            got = [(moves, prob.hex()) for moves, prob in enumerate_paths(model(p=p), T)]
            assert got == expected

    def test_sample_frequencies_match_enumeration(self):
        # chi-square over the 8 outcomes of T=3 at N=100,000; the critical
        # value is the df=7 quantile at the two-sided 3-sigma level (0.9973)
        m = model(p=0.37)
        expected = dict(enumerate_paths(m, 3))
        n = 100_000
        counts = {moves: 0 for moves in expected}
        for i in range(n):
            counts[sample_moves(m.p_up, 3, derive_path_seed(99, i))] += 1
        chi2 = sum(
            (counts[mv] - n * pr) ** 2 / (n * pr) for mv, pr in expected.items()
        )
        assert chi2 < 21.85

    def test_bound_enforced(self):
        with pytest.raises(ResourceLimitError):
            enumerate_paths(model(), MAX_ENUM_HORIZON + 1)


IDENTITY = DividendSpec(
    per_step_dividend=lambda t, a, level: 0.0,
    terminal_payoff=lambda level: level,
    initial_level=100.0,
)


class TestPriceProcess:
    @pytest.mark.parametrize("T", [0, 1, 4, 9])
    def test_martingale_returns_initial_level(self, T):
        price = price_process(model(p=0.5, u=1.0, d=-1.0), IDENTITY, T)
        assert price == 100.0

    def test_biased_one_step(self):
        price = price_process(model(p=0.6, u=1.0, d=-1.0), IDENTITY, 1)
        assert price == pytest.approx(100.2, abs=1e-12)

    def test_zero_everything(self):
        zero = DividendSpec(
            per_step_dividend=lambda t, a, level: 0.0,
            terminal_payoff=lambda level: 0.0,
        )
        assert price_process(model(p=0.7, u=2.0, d=-1.0), zero, 8) == 0.0

    @pytest.mark.parametrize("T", [0, 1, 2, 5, 10])
    def test_matches_enumeration_for_action_free_dividends(self, T):
        m = model(p=0.55, u=2.0, d=-1.0)
        coupon = DividendSpec(
            per_step_dividend=lambda t, a, level: 0.02 * level + 0.1 * t,
            terminal_payoff=lambda level: max(level - 100.0, 0.0),
            initial_level=100.0,
        )
        assert price_process(m, coupon, T) == pytest.approx(
            expected_dividend_by_enumeration(m, coupon, T), abs=1e-9
        )

    def test_max_over_actions_picks_the_better_dividend(self):
        m = model(p=0.5, u=1.0, d=-1.0)
        spec = DividendSpec(
            per_step_dividend=lambda t, a, level: 5.0 if a == "rich" else 1.0,
            terminal_payoff=lambda level: 0.0,
        )
        assert price_process(m, spec, 3, actions=("poor", "rich")) == pytest.approx(15.0)

    def test_bound_enforced(self):
        with pytest.raises(ResourceLimitError):
            price_process(model(), IDENTITY, MAX_ENUM_HORIZON + 1)


class TestModelValidation:
    def test_tick_signs(self):
        with pytest.raises(ValidationError):
            MarketModel(u=-1.0, d=-2.0, p_up=0.5)

    def test_probability_range(self):
        with pytest.raises(ValidationError):
            MarketModel(u=1.0, d=-1.0, p_up=1.2)

    @pytest.mark.parametrize("name", ["u", "d", "initial_wealth"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_fields_rejected(self, name, bad):
        fields = {"u": 1.0, "d": -1.0, "p_up": 0.5, "initial_wealth": 1000.0, name: bad}
        with pytest.raises(ValidationError, match=f"MarketModel {name} must be finite"):
            MarketModel(**fields)
