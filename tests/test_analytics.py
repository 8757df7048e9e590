import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rabisweep import analytics
from rabisweep.analytics import (
    CROSSING_CAP,
    cascade_gaps,
    cascade_probabilities,
    default_n_max,
    fock_prep_window,
    lz_probability,
    multimode_gaps,
    poisson_overlap,
    sequential_crossing_probabilities,
)
from rabisweep.errors import (
    DegenerateCrossingError,
    GapTruncationError,
    InvalidParameterError,
    ResourceLimitError,
)
from rabisweep.model import Mode, MultiModeParams

RNG = np.random.default_rng(11)


def up_probs(records):
    return {r.label.photons: r.probability for r in records if r.label.qubit == "up"}


def down0(records):
    return next(
        r.probability
        for r in records
        if r.label.qubit == "down" and r.label.photons in (0, (0,), (0, 0))
    )


class TestPoissonOverlap:
    def test_reference_values(self):
        assert poisson_overlap(1, 1.0, 1.0) == pytest.approx(0.36787944117144233, abs=1e-12)
        assert poisson_overlap(2, math.sqrt(2.0), 1.0) == pytest.approx(0.2706705664732254, abs=1e-12)

    def test_zero_coupling(self):
        assert poisson_overlap(0, 0.0, 1.0) == 1.0
        assert poisson_overlap(3, 0.0, 1.0) == 0.0

    def test_large_index_stays_finite(self):
        val = poisson_overlap(400, 3.0, 1.0)
        assert 0.0 <= val < 1e-200

    def test_normalization(self):
        total = sum(poisson_overlap(n, 2.0, 1.0) for n in range(80))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestLzProbability:
    def test_limits(self):
        assert lz_probability(0.0, 1.0) == 1.0
        assert lz_probability(1.0, 1e-6) < 1e-200

    def test_half_transfer_point(self):
        v = math.pi / (2.0 * math.log(2.0))
        assert lz_probability(1.0, v) == pytest.approx(0.5, abs=1e-12)

    def test_monotonicity(self):
        vs = np.logspace(-2, 2, 40)
        ps = [lz_probability(0.7, v) for v in vs]
        assert all(b > a for a, b in zip(ps, ps[1:]))
        deltas = np.linspace(0.1, 3.0, 20)
        pd = [lz_probability(d, 1.0) for d in deltas]
        assert all(b < a for a, b in zip(pd, pd[1:]))

    def test_rejects_bad_rate(self):
        with pytest.raises(InvalidParameterError):
            lz_probability(1.0, 0.0)


class TestCascadeGaps:
    def test_zero_coupling(self):
        spec = cascade_gaps(0.9, 0.0, 1.0, n_max=5)
        assert spec.gaps[0] == pytest.approx(0.9)
        assert all(spec.gaps[n] == 0.0 for n in range(1, 6))

    def test_unit_ratio_values(self):
        spec = cascade_gaps(1.0, 1.0, 1.0, n_max=4)
        assert spec.gaps[0] == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert spec.gaps[1] == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)

    @pytest.mark.parametrize("gow", [0.1, 1.0, 3.0])
    def test_sum_rule(self, gow):
        delta = 0.37
        spec = cascade_gaps(delta, gow, 1.0)
        total = sum(g * g for g in spec.gaps.values())
        assert abs(total - delta * delta) <= 1e-10 * delta * delta
        assert spec.sum_rule_tail <= 1e-10 * delta * delta

    def test_crossing_positions(self):
        spec = cascade_gaps(1.0, 0.5, 2.0, n_max=3)
        assert spec.crossing_positions == {0: 0.0, 1: 2.0, 2: 4.0, 3: 6.0}

    @pytest.mark.parametrize(
        "delta, g, omega", [(0.37, 0.3, 1.0), (1.0, 1.0, 1.3), (0.2, 3.9, 1.5)]
    )
    def test_every_gap_and_position_matches_the_ladder_formula(self, delta, g, omega):
        # Delta_n = Delta exp(-2 alpha^2) (2 alpha)^n / sqrt(n!), alpha = g/omega,
        # computed directly (no logs), with the crossing of n at n omega.
        spec = cascade_gaps(delta, g, omega)
        alpha = g / omega
        n_max = default_n_max(g, omega)
        assert list(spec.gaps) == list(range(n_max + 1)) and spec.ratios == (alpha,)
        for n in range(n_max + 1):
            want = delta * math.exp(-2.0 * alpha * alpha) * (2.0 * alpha) ** n / math.sqrt(
                math.factorial(n)
            )
            assert spec.gaps[n] == pytest.approx(want, rel=1e-12, abs=0.0)
            assert spec.crossing_positions[n] == n * omega


class TestCascadeProbabilities:
    def test_normalization(self):
        for gow in (0.1, 1.0, 3.0):
            for x in (0.1, 1.0, 30.0):
                recs = cascade_probabilities(0.2, x * 0.04, gow, 1.0)
                assert abs(sum(r.probability for r in recs) - 1.0) <= 1e-9

    def test_survival_is_exact_two_level_form(self):
        delta, v = 0.3, 0.5
        recs = cascade_probabilities(delta, v, 2.0, 1.0)
        assert down0(recs) == pytest.approx(lz_probability(delta, v), rel=1e-12)

    def test_zero_coupling_collapses_to_two_level(self):
        delta, v = 0.8, 1.1
        recs = cascade_probabilities(delta, v, 0.0, 1.0, n_max=6)
        ups = up_probs(recs)
        assert ups[0] == pytest.approx(1.0 - lz_probability(delta, v), rel=1e-12)
        assert all(ups[n] == 0.0 for n in range(1, 7))

    def test_rate_rescaling_covariance(self):
        # P(k*delta, k^2*v) = P(delta, v): only v/delta^2 enters.
        delta, v, gow = 0.15, 0.3, 1.3
        base = cascade_probabilities(delta, v, gow, 1.0)
        for _ in range(3):
            k = float(RNG.uniform(0.2, 5.0))
            scaled = cascade_probabilities(k * delta, k * k * v, gow, 1.0)
            for a, b in zip(base, scaled):
                assert b.probability == pytest.approx(a.probability, rel=1e-9, abs=1e-300)

    def test_peak_ratio_law_small_coupling(self):
        # max over v of P(up,n)/P(up,n-1) approaches (2 g/w)^2 / n.
        grid = np.logspace(-1, 2, 76)
        tables = [up_probs(cascade_probabilities(1.0, v, 0.1, 1.0)) for v in grid]
        for n in range(1, 6):
            ratios = [t[n] / t[n - 1] for t in tables if t[n - 1] > 0]
            want = 0.04 / n
            assert abs(max(ratios) - want) <= 0.05 * want

    def test_strong_coupling_peak_value(self):
        # Independent oracle: dense grid + golden refinement of P(up,1) at
        # g/omega = 3, where only the first two crossings matter.
        gow, delta = 3.0, 1.0
        spec = cascade_gaps(delta, gow, 1.0, n_max=2)
        x1 = math.pi * spec.gaps[1] ** 2 / 2.0

        vs = np.exp(np.linspace(math.log(x1 / 5e3), math.log(x1 * 5e3), 4001))
        # One array call over the grid; a scalar call would raise where an
        # entry holds an error.
        entries = cascade_probabilities(delta, vs, gow, 1.0)
        assert len(entries) == len(vs)
        assert not any(isinstance(e, Exception) for e in entries)
        peak_grid = max(up_probs(records)[1] for records in entries)
        assert peak_grid == pytest.approx(0.880, abs=2e-3)

    def test_insufficient_retention_raises(self):
        with pytest.raises(GapTruncationError):
            cascade_probabilities(1.0, 50.0, 2.0, 1.0, n_max=2)

    def test_probabilities_in_range(self):
        for v in np.logspace(-2, 3, 12):
            for rec in cascade_probabilities(0.5, v, 1.5, 1.0):
                assert -1e-12 <= rec.probability <= 1.0 + 1e-12


class TestMultimodeGaps:
    def test_single_mode_equals_cascade_exactly(self):
        p = MultiModeParams(0.7, (Mode(1.3, 0.9, 16),))
        got = multimode_gaps(p, caps=(8,))
        want = cascade_gaps(0.7, 0.9, 1.3, n_max=8)
        for n in range(9):
            assert got.gaps[(n,)] == want.gaps[n]
            assert got.crossing_positions[(n,)] == want.crossing_positions[n]

    def test_decoupled_modes_have_single_gap(self):
        p = MultiModeParams(1.1, (Mode(1.0, 0.0, 4), Mode(2.0, 0.0, 4)))
        spec = multimode_gaps(p, caps=(2, 2))
        assert spec.gaps[(0, 0)] == pytest.approx(1.1)
        assert all(g == 0.0 for occ, g in spec.gaps.items() if occ != (0, 0))

    def test_identical_modes_are_degenerate(self):
        p = MultiModeParams(0.5, (Mode(1.0, 0.4, 6), Mode(1.0, 0.4, 6)))
        spec = multimode_gaps(p, caps=(2, 2))
        assert spec.gaps[(1, 0)] == pytest.approx(spec.gaps[(0, 1)], rel=1e-12)
        groups = spec.degenerate_groups()
        assert ((0, 1), (1, 0)) in groups or ((1, 0), (0, 1)) in groups
        with pytest.raises(DegenerateCrossingError):
            sequential_crossing_probabilities(spec, 0.1)

    def test_crossing_order_and_positions(self):
        p = MultiModeParams(0.3, (Mode(1.0, 0.5, 6), Mode(2.3, 0.9, 6)))
        spec = multimode_gaps(p, caps=(3, 2))
        order = spec.sorted_occupations()
        positions = [spec.crossing_positions[o] for o in order]
        assert positions == sorted(positions)
        assert spec.crossing_positions[(1, 2)] == pytest.approx(1.0 + 4.6)

    def test_sequential_marginal_matches_single_mode(self):
        # A decoupled second mode must not change the cascade.
        delta, v = 0.25, 0.05
        single = cascade_probabilities(delta, v, 0.6, 1.0, n_max=16)
        p = MultiModeParams(delta, (Mode(1.0, 0.6, 20), Mode(2.3, 0.0, 3)))
        spec = multimode_gaps(p, caps=(16, 2))
        both = sequential_crossing_probabilities(spec, v)
        marg: dict[int, float] = {}
        for rec in both:
            if rec.label.qubit == "up":
                n1 = rec.label.photons[0]
                marg[n1] = marg.get(n1, 0.0) + rec.probability
        for rec in single:
            if rec.label.qubit == "up":
                assert marg[rec.label.photons] == pytest.approx(rec.probability, abs=1e-12)


class TestFockPrepWindow:
    def test_strong_separation_nonempty(self):
        for n in range(1, 6):
            w = fock_prep_window(1.0, 3.0, 1.0, n)
            assert not w.empty

    def test_weak_coupling_empty(self):
        w = fock_prep_window(1.0, 0.1, 1.0, 1)
        assert w.empty
        assert w.predicted_peak == 0.0

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("g", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("delta", [0.1, 1.0])
    def test_peak_matches_closed_form(self, delta, g, n):
        # The closed-form peak is what the cascade itself gives at peak_rate,
        # and it is a strict maximum of P(up, n) over the rate.
        w = fock_prep_window(delta, g, 1.0, n)
        if w.empty:
            pytest.skip("no window: gap_n <= gap_{n-1}")

        def p_up(v):
            return up_probs(cascade_probabilities(delta, v, g, 1.0))[n]

        peak = p_up(w.peak_rate)
        assert peak == pytest.approx(w.predicted_peak, abs=1e-12)
        assert p_up(w.peak_rate * (1.0 - 1e-2)) < peak
        assert p_up(w.peak_rate * (1.0 + 1e-2)) < peak

    def test_margin_separation_needs_wide_gap_ratio(self):
        # Decade margins on both sides require (gap_n/gap_{n-1})^2 > 100;
        # a ratio below ~ sqrt(10) per level cannot separate.
        w = fock_prep_window(1.0, 3.0, 1.0, 6)  # (2g/w)^2/n = 6 < 10
        assert not w.empty
        assert not w.separated

    def test_rejects_target_zero(self):
        with pytest.raises(InvalidParameterError):
            fock_prep_window(1.0, 1.0, 1.0, 0)


class TestInvalidInputs:
    @pytest.mark.parametrize(
        "delta, v",
        [(0.1, math.nan), (0.1, math.inf), (0.1, -1.0), (math.nan, 1.0), (math.inf, 1.0)],
    )
    def test_lz_probability(self, delta, v):
        with pytest.raises(InvalidParameterError):
            lz_probability(delta, v)

    @pytest.mark.parametrize(
        "v",
        [math.nan, math.inf, 0.0, -2.0, [0.5, math.nan], [0.5, 0.0, 1.0], [[0.5]]],
    )
    def test_sequential_crossing_probabilities(self, monkeypatch, v):
        # A bad rate refuses the whole call before any readout is built.
        class NoReadouts:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a readout was built")

            rows = classmethod(__init__)

        spec = cascade_gaps(0.3, 1.0, 1.0)
        monkeypatch.setattr(analytics, "Readout", NoReadouts)
        with pytest.raises(InvalidParameterError):
            sequential_crossing_probabilities(spec, v)

    @pytest.mark.parametrize(
        "n, g, omega",
        [(2, 1.0, math.nan), (2, math.nan, 1.0), (2, math.inf, 1.0), (2, 1.0, 0.0),
         (1.5, 1.0, 1.0), (2.0, 1.0, 1.0), (-1, 1.0, 1.0)],
    )
    def test_poisson_overlap(self, n, g, omega):
        with pytest.raises(InvalidParameterError):
            poisson_overlap(n, g, omega)

    @pytest.mark.parametrize(
        "delta, g, omega",
        [(0.1, 1.0, math.nan), (0.1, math.nan, 1.0), (math.nan, 1.0, 1.0),
         (0.1, math.inf, 1.0), (0.1, 1.0, -1.0)],
    )
    def test_cascade_gaps(self, delta, g, omega):
        with pytest.raises(InvalidParameterError):
            cascade_gaps(delta, g, omega)

    @pytest.mark.parametrize(
        "g, omega",
        [(1.0, 0.0), (1.0, -1.0), (1.0, math.nan), (math.nan, 1.0), (math.inf, 1.0)],
    )
    def test_default_n_max(self, g, omega):
        # omega = 0 used to raise ZeroDivisionError and omega = -1 gave 64.
        with pytest.raises(InvalidParameterError):
            default_n_max(g, omega)

    def test_a_coupling_whose_defaults_overflow_is_refused(self):
        # (g/omega)^2 overflows at g/omega = 1e200; it used to raise
        # OverflowError from the float power.
        for call in (lambda: default_n_max(1e200, 1.0), lambda: poisson_overlap(0, 1e200, 1.0)):
            with pytest.raises(InvalidParameterError, match="not finite"):
                call()

    def test_a_mesh_past_the_crossing_cap_is_refused_before_it_is_built(self):
        # g/omega = 1e10 asks for about 4e20 crossings by default; every
        # preset needs at most 97.
        assert default_n_max(3.0, 1.0) + 1 < CROSSING_CAP
        for call in (
            lambda: cascade_gaps(1.0, 1e10, 1.0),
            lambda: cascade_gaps(1.0, 1.0, 1.0, n_max=CROSSING_CAP),
            lambda: multimode_gaps(
                MultiModeParams(0.1, (Mode(1.0, 0.5, 8), Mode(2.3, 0.9, 8))), (200, 200)
            ),
        ):
            with pytest.raises(ResourceLimitError, match=f"exceed the cap {CROSSING_CAP}"):
                call()


_RATES = st.lists(
    st.floats(-3.0, 3.0).map(lambda e: 10.0**e), min_size=1, max_size=6, unique=True
)


class TestOracleProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        delta=st.floats(0.05, 2.0),
        gow=st.floats(0.0, 3.0),
        n_max=st.one_of(st.none(), st.integers(1, 30)),
        rates=_RATES,
    )
    def test_array_entries_equal_scalar_calls(self, delta, gow, n_max, rates):
        spec = cascade_gaps(delta, gow, 1.0, n_max)
        entries = sequential_crossing_probabilities(spec, np.array(rates))
        assert len(entries) == len(rates)
        for v, entry in zip(rates, entries):
            try:
                alone = sequential_crossing_probabilities(spec, v)
            except GapTruncationError as exc:
                assert isinstance(entry, GapTruncationError)
                assert str(entry) == str(exc)
                continue
            assert [r.label for r in entry] == [r.label for r in alone]
            for got, ref in zip(entry, alone):
                assert abs(got.probability - ref.probability) <= 1e-15

    @settings(max_examples=25, deadline=None)
    @given(
        delta=st.floats(0.05, 2.0),
        gow=st.floats(0.0, 3.0),
        second=st.tuples(st.floats(1.05, 2.95), st.floats(0.0, 1.0)),
        caps=st.tuples(st.integers(2, 12), st.integers(0, 6)),
        rates=_RATES,
    )
    # delta * delta and delta**2 differ by one ulp at this draw, so the
    # reference squares delta as the oracle does.
    @example(delta=1.5081972364554688, gow=0.0, second=(2.0, 0.0), caps=(2, 0), rates=[1.0])
    def test_probabilities_sum_to_one_and_survival_is_exact(
        self, delta, gow, second, caps, rates
    ):
        # Whenever the residual check passes, a cascade or multimode table
        # sums to 1, and P(down, 0) is exp(-pi delta^2 / 2v) to the bit, in
        # the oracle's own arithmetic.
        omega2, gow2 = second
        mm = MultiModeParams(delta, (Mode(1.0, gow, 16), Mode(omega2, gow2 * omega2, 16)))
        mesh = multimode_gaps(mm, caps)
        assume(not mesh.degenerate_groups())
        for spec in (cascade_gaps(delta, gow, 1.0), mesh):
            for v, entry in zip(rates, sequential_crossing_probabilities(spec, np.array(rates))):
                if isinstance(entry, GapTruncationError):
                    continue
                assert abs(sum(r.probability for r in entry) - 1.0) <= 1e-9
                assert down0(entry) == math.exp(-math.pi * (delta * delta) / (2.0 * v))

    @settings(max_examples=25, deadline=None)
    @given(
        delta=st.floats(0.05, 2.0),
        gow=st.floats(0.0, 3.0),
        n_max=st.one_of(st.none(), st.integers(1, 80)),
        second=st.tuples(st.floats(1.05, 2.95), st.floats(0.0, 1.0)),
        caps=st.tuples(st.integers(0, 12), st.integers(0, 6)),
    )
    def test_gap_sum_rule(self, delta, gow, n_max, second, caps):
        # The retained gaps hold at most delta^2, and sum_rule_tail the rest.
        omega2, gow2 = second
        mm = MultiModeParams(delta, (Mode(1.0, gow, 16), Mode(omega2, gow2 * omega2, 16)))
        for spec in (cascade_gaps(delta, gow, 1.0, n_max), multimode_gaps(mm, caps)):
            covered = math.fsum(gap * gap for gap in spec.gaps.values())
            assert covered / delta**2 <= 1.0 + 1e-12
            assert abs((covered + spec.sum_rule_tail) / delta**2 - 1.0) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(gow=st.floats(0.0, 3.0))
    def test_poisson_weights_sum_to_one(self, gow):
        total = math.fsum(poisson_overlap(n, gow, 1.0) for n in range(120))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestDefaultRetention:
    def test_covers_spectrum_peak(self):
        for gow in (0.1, 1.0, 3.0):
            assert default_n_max(gow, 1.0) >= int(4 * gow * gow) + 60
