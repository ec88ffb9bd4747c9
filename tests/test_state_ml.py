"""Closed-form state ML against the iterative reference, the concavity certificate and a decimal sphere solve."""

import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phasegate import tomography
from phasegate.errors import ConvergenceError, DataFormatError
from phasegate.experiment import (
    ExperimentPlan,
    calibrated_noise,
    ideal_noise,
    rescale_efficiencies,
    select_without_feedforward,
    simulate_counts,
)
from phasegate.states import BASIS_LABELS, BASIS_OUTCOMES, density, projector
from phasegate.tomography import (
    GAP_TOL,
    PROB_FLOOR,
    _bloch,
    _ml_fixed_point,
    ml_reconstruct_state,
    ml_reconstruct_states,
    state_counts,
)

OPERATORS = np.stack([projector(label) for b in BASIS_LABELS for label in BASIS_OUTCOMES[b]])
#: Certified distance to the likelihood maximum that an exact solve must reach, in nats.
GAP_NATS = 1e-6


def flat_counts(basis_counts):
    return np.array([c for b in BASIS_LABELS for c in basis_counts[b]], dtype=float)


def certified_gap(rho, basis_counts):
    """Upper bound on ``max L - L(rho)`` in nats, from concavity of the log-likelihood.

    With ``R = sum_k (n_k/N) / p_k E_k`` over nonzero counts, every state
    ``sigma`` has ``L(sigma) - L(rho) <= N (Tr[R sigma] - 1) <= N (lambda_max(R) - 1)``
    (Glancy, Knill & Girard, NJP 14, 095017, 2012).
    """
    counts = flat_counts(basis_counts)
    keep = counts > 0
    ops, n = OPERATORS[keep], counts[keep]
    p = np.einsum("kij,ji->k", ops, rho).real
    if np.any(p <= 0.0):
        return float("inf")
    r = np.einsum("k,kij->ij", (n / n.sum()) / p, ops)
    return float(n.sum() * (np.linalg.eigvalsh(0.5 * (r + r.conj().T))[-1] - 1.0))


def reference(basis_counts):
    """The iterative estimator of the process fits (RrhoR, then Newton on a factor) on the same six projectors."""
    fit, = _ml_fixed_point(OPERATORS, [flat_counts(basis_counts)], 2, 1.0)
    return fit.choi, fit.log_likelihood


def bloch(rho):
    return np.array([2 * rho[0, 1].real, -2 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real])


def assert_physical(rho):
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-15)
    assert abs(np.trace(rho).real - 1.0) < 1e-14
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12


# Raw counts are integers and efficiency-rescaled counts are integers divided
# by an efficiency, so a nonzero count is at least about 1.  The range is kept
# where double precision can certify 1e-6 nats: an outcome probability p near 0
# is stored with absolute error about 2**-54 (the spacing of numbers near 1/2),
# which moves the certificate by about N * 2**-54 / p, up to N**2 * 2**-54 / n_min
# for an outcome with n_min counts.  With N <= 18,000 and n_min >= 0.5 that is
# below 4e-8 nats, whatever the estimator.
count = st.one_of(
    st.just(0.0),
    st.integers(0, 30).map(float),
    st.integers(0, 3000).map(float),
    st.floats(0.5, 3000.0),
)
basis_counts_st = st.fixed_dictionaries({b: st.tuples(count, count) for b in BASIS_LABELS})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(basis_counts_st)
def test_closed_form_matches_or_beats_reference(basis_counts):
    total = flat_counts(basis_counts).sum()
    assume(total > 0)
    res = ml_reconstruct_state(basis_counts)
    assert_physical(res.rho)
    # Every iterate of the reference is a state, so the inequality holds whether
    # or not its fit is certified; the certificate below checks optimality on its own.
    _, ref_ll = reference(basis_counts)
    assert res.log_likelihood >= ref_ll - 1e-9 * total
    assert certified_gap(res.rho, basis_counts) <= GAP_NATS
    assert res.on_boundary == (np.linalg.norm(bloch(res.rho)) > 1.0 - 1e-12)


class TestExplicitCases:
    def test_linear_inversion_exactly_on_sphere(self):
        counts = {"Z": (8.0, 2.0), "X": (9.0, 1.0), "Y": (5.0, 5.0)}  # r = (0.8, 0, 0.6)
        res = ml_reconstruct_state(counts)
        assert res.on_boundary
        np.testing.assert_allclose(bloch(res.rho), [0.8, 0.0, 0.6], atol=1e-15)
        assert certified_gap(res.rho, counts) <= GAP_NATS

    def test_one_zero_count_outcome(self):
        counts = {"Z": (100.0, 0.0), "X": (60.0, 40.0), "Y": (50.0, 50.0)}
        res = ml_reconstruct_state(counts)
        assert res.on_boundary
        r = bloch(res.rho)
        assert 0.0 < r[2] < 1.0 and r[0] > 0.0
        assert certified_gap(res.rho, counts) <= GAP_NATS
        assert res.log_likelihood >= reference(counts)[1] - 1e-9 * 300

    def test_two_zero_count_outcomes(self):
        counts = {"Z": (100.0, 0.0), "X": (0.0, 50.0), "Y": (40.0, 40.0)}
        res = ml_reconstruct_state(counts)
        assert res.on_boundary
        r = bloch(res.rho)
        assert r[2] > 0.0 and r[0] < 0.0
        assert certified_gap(res.rho, counts) <= GAP_NATS
        assert res.log_likelihood >= reference(counts)[1] - 1e-9 * 230

    def test_zero_count_outcome_pins_pole(self):
        # Only one basis measured and one outcome empty: the estimate is the pole itself.
        counts = {"Z": (0.0, 7.0), "X": (0.0, 0.0), "Y": (0.0, 0.0)}
        res = ml_reconstruct_state(counts)
        np.testing.assert_allclose(res.rho, density("1"), atol=1e-15)
        assert res.on_boundary
        assert res.log_likelihood == 0.0

    def test_multiplier_many_decades_below_counts(self):
        # X holds one tiny count, so the multiplier sits near 1e-90 while Y's counts are O(1):
        # the sphere point keeps Y's own optimum r_Y = -1/3.
        counts = {"Z": (0.0, 0.0), "X": (0.0, 1e-90), "Y": (1.0, 2.0)}
        res = ml_reconstruct_state(counts)
        np.testing.assert_allclose(bloch(res.rho), [-np.sqrt(8.0) / 3.0, -1.0 / 3.0, 0.0], atol=1e-14)
        assert res.log_likelihood == pytest.approx(np.log(1 / 3) + 2 * np.log(2 / 3), abs=1e-12)
        assert certified_gap(res.rho, counts) <= GAP_NATS

    def test_subnormal_counts(self):
        # Only ratios matter: two equal subnormal counts give the same state as two equal counts of 1.
        res = ml_reconstruct_state({"Z": (0.0, 0.0), "X": (0.0, 5e-324), "Y": (0.0, 5e-324)})
        np.testing.assert_allclose(bloch(res.rho), [-np.sqrt(0.5), -np.sqrt(0.5), 0.0], atol=1e-15)
        # A count below 1e-100 of the largest is negligible.
        res = ml_reconstruct_state({"Z": (0.0, 0.0), "X": (1.0, 1e-300), "Y": (1.0, 1.0)})
        np.testing.assert_allclose(bloch(res.rho), [1.0, 0.0, 0.0], atol=1e-15)

    def test_unmeasured_basis_stays_at_zero(self):
        counts = {"Z": (0.0, 0.0), "X": (95.0, 5.0), "Y": (90.0, 10.0)}
        res = ml_reconstruct_state(counts)
        assert res.on_boundary
        assert res.rho[0, 0].real == 0.5
        assert certified_gap(res.rho, counts) <= GAP_NATS

    def test_interior_estimate_is_linear_inversion(self):
        counts = {"Z": (600.0, 400.0), "X": (300.0, 700.0), "Y": (500.0, 500.0)}
        res = ml_reconstruct_state(counts)
        assert not res.on_boundary
        np.testing.assert_allclose(bloch(res.rho), [-0.4, 0.0, 0.2], atol=1e-15)
        assert certified_gap(res.rho, counts) <= 1e-9

    def test_outside_ball_lands_on_sphere(self):
        counts = {"Z": (990.0, 10.0), "X": (600.0, 400.0), "Y": (520.0, 480.0)}
        res = ml_reconstruct_state(counts)
        assert res.on_boundary
        assert np.linalg.norm(bloch(res.rho)) == pytest.approx(1.0, abs=1e-15)
        est, ref_ll = reference(counts)
        np.testing.assert_allclose(res.rho, est, atol=1e-5)
        assert res.log_likelihood >= ref_ll - 1e-9 * 3000

    def test_reference_certifies_nearly_empty_outcome(self):
        # One Z outcome holds 0.5 of 168,530 counts and X, Y are empty.  A stop on the step
        # size alone ends here after 2 iterations at rho_11 = 7.9e-11, 6.3e9 nats short of
        # the optimum rho_11 = 0.5 / 168,530.
        counts = {"Z": (168529.5, 0.5), "X": (0.0, 0.0), "Y": (0.0, 0.0)}
        fit, = _ml_fixed_point(OPERATORS, [flat_counts(counts)], 2, 1.0)
        assert fit.converged and fit.stop_reason == "certified"
        assert certified_gap(fit.choi, counts) <= GAP_TOL
        assert fit.choi[1, 1].real == pytest.approx(0.5 / 168530.0, rel=1e-3)
        assert np.all(np.diff(fit.log_likelihood_trace) >= -1e-12)

    def test_diagnostics_fields(self):
        res = ml_reconstruct_state({b: (5.0, 5.0) for b in BASIS_LABELS})
        assert (res.iterations, res.converged, res.likelihood_decreases) == (0, True, 0)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_counts_rejected(self, bad):
        with pytest.raises(DataFormatError, match="bad count"):
            ml_reconstruct_state({"Z": (bad, 1.0), "X": (1.0, 1.0), "Y": (1.0, 1.0)})

    @pytest.mark.parametrize("pair", [(5.0,), (1.0, 2.0, 3.0)])
    def test_a_basis_needs_two_outcome_counts(self, pair):
        with pytest.raises(DataFormatError, match=f"^basis X needs exactly two outcome counts, got {len(pair)}$"):
            ml_reconstruct_state({"Z": (1.0, 1.0), "X": pair, "Y": (1.0, 1.0)})


def scalar_fit(basis_counts):
    """The estimator one fit at a time in Python floats, as it ran before the array entry: ``(rho, L, on_boundary)``.

    A row outside the ball takes its sphere point, ``(r, s)`` per basis, from ``_bloch``, which
    :func:`assert_sphere_points_near_reference` holds to the decimal reference.
    """
    pairs = [(float(basis_counts[b][0]), float(basis_counts[b][1])) for b in BASIS_LABELS]
    top = max(max(pair) for pair in pairs)
    exponent = math.frexp(top)[1]
    scaled = [tuple(math.ldexp(c, -exponent) if c >= 1e-100 * top else 0.0 for c in pair) for pair in pairs]
    comps = [((a - c) / (a + c), 2.0 * min(a, c) / (a + c)) if a + c > 0.0 else (0.0, 1.0) for a, c in scaled]
    norm2 = sum(r * r for r, _ in comps)
    if norm2 > 1.0:
        r, s, _ = _bloch(np.array([pairs]))
        comps = list(zip(r[0].tolist(), s[0].tolist()))
    probs = [(1.0 - 0.5 * s, 0.5 * s) if r >= 0.0 else (0.5 * s, 1.0 - 0.5 * s) for r, s in comps]
    (_, _), (r_x, _), (r_y, _) = comps
    coherence = 0.5 * complex(r_x, -r_y)
    rho = np.array([[probs[0][0], coherence], [coherence.conjugate(), probs[0][1]]], dtype=complex)
    ll = sum(a * math.log(max(p, PROB_FLOOR)) + c * math.log(max(q, PROB_FLOOR))
             for (a, c), (p, q) in zip(pairs, probs))
    return rho, ll, norm2 >= 1.0


#: Decimal digits of :func:`reference_sphere`.
REFERENCE_DIGITS = 40
#: Largest ``|r - r_ref|`` and ``|s - s_ref| / s_ref`` of any basis of a row outside the ball, against
#: :func:`reference_sphere`.  Both were measured once on the scalar sphere solve that the array pass replaced, over
#: the rows these tests draw (8.78e-16 and 9.74e-9), so the array pass must be at least as accurate; it measured
#: 4.0e-16 and 2.9e-15.  The scalar solve's largest ``s`` error sat near a pole, on seed 1 of ideal16k: an empty
#: outcome whose ``s = (4 - x)/(3 + sqrt(1 + 2x))``, ``x = n/mu -> 4``, takes a last-bit change of ``mu`` as a
#: large relative change.
R_ATOL = 8.8e-16
S_RTOL = 9.8e-9


def _decimal_root(f, lo, hi, x, rtol):
    """Root of ``f`` with ``f(lo) < 0 < f(hi)``, ``f(x)`` returning ``(value, slope)``: Newton, with bisection (in
    ``log x`` across decades) for a step that leaves the bracket."""
    for _ in range(2000):
        value, slope = f(x)
        if value == 0:
            return x
        lo, hi = (x, hi) if value < 0 else (lo, x)
        nxt = x - value / slope if slope else None
        if nxt is None or not lo < nxt < hi:
            nxt = (lo * hi).sqrt() if 0 < 1000 * lo < hi else (lo + hi) / 2
        if abs(nxt - x) <= rtol * abs(x) or not lo < nxt < hi:
            return nxt
        x = nxt
    raise AssertionError("the decimal sphere solve did not converge")


def reference_sphere(row):
    """``(r, s = 1 - |r|)`` per basis of the likelihood maximum on the Bloch sphere of one ``(3, 2)`` count row,
    in :data:`REFERENCE_DIGITS`-digit decimals.

    The same equations as the estimator: each basis's component at multiplier ``mu`` is the root in (0, 1] of
    ``big s - small (2-s) - 2 mu s (2-s) (1-s)`` (with an empty outcome, its closed form), and ``mu`` makes
    ``|r| = 1``.  Both are solved by Newton to 5 digits beyond those returned, from the counts as exact decimals.
    """
    top = max(max(pair) for pair in row)
    with localcontext() as ctx:
        ctx.prec = REFERENCE_DIGITS + 10
        rtol = Decimal(10) ** -(REFERENCE_DIGITS + 5)
        pairs = [tuple(Decimal(float(c)) if c >= 1e-100 * top else Decimal(0) for c in pair) for pair in row]

        def component(a, c, mu):
            n, big, small = a + c, max(a, c), min(a, c)
            if n == 0:
                return Decimal(0), Decimal(1), Decimal(0)
            if small == 0:
                x = n / mu
                s = (4 - x) / (3 + (1 + 2 * x).sqrt())
            else:
                def cubic(s):
                    return (big * s - small * (2 - s) - 2 * mu * s * (2 - s) * (1 - s),
                            n - 2 * mu * (3 * s * s - 6 * s + 2))
                s = _decimal_root(cubic, Decimal(0), Decimal(1), 2 * (small + mu) / (n + 2 * mu), rtol)
            r = (1 if a >= c else -1) * (1 - s)
            return r, s, 2 * r / (-big / (2 - s) ** 2 - (small / s / s if small else 0) - 2 * mu)

        def shortfall(mu):  # 1 - |r(mu)|^2, increasing in mu
            comps = [component(a, c, mu) for a, c in pairs]
            return 1 - sum(r * r for r, _, _ in comps), -2 * sum(r * dr for r, _, dr in comps)

        hi = max(max(pair) for pair in pairs)
        lo = max([(a + c) / 4 for a, c in pairs if min(a, c) == 0], default=Decimal(0))
        mu = _decimal_root(shortfall, lo, hi, (lo + hi) / 2, rtol)
        comps = [component(a, c, mu)[:2] for a, c in pairs]
    with localcontext() as ctx:
        ctx.prec = REFERENCE_DIGITS
        return [(+r, +s) for r, s in comps]


def sphere_errors(rows):
    """Largest ``|r - r_ref|`` and ``|s - s_ref| / s_ref`` over every basis of the rows outside the ball."""
    r, s, norm2 = _bloch(np.asarray(rows, dtype=float))
    worst_r = worst_s = Decimal(0)
    for j in np.flatnonzero(norm2 > 1.0):
        for b, (r_ref, s_ref) in enumerate(reference_sphere(rows[j])):
            worst_r = max(worst_r, abs(Decimal(r[j, b].item()) - r_ref))
            worst_s = max(worst_s, abs(Decimal(s[j, b].item()) - s_ref) / s_ref)
    return float(worst_r), float(worst_s)


def assert_sphere_points_near_reference(rows):
    worst_r, worst_s = sphere_errors(rows)
    assert worst_r <= R_ATOL and worst_s <= S_RTOL, (worst_r, worst_s)
    return worst_r, worst_s


def assert_stack_matches_scalar_fits(rows):
    # rho bit for bit, zero signs included, as the state files write them; L through np.log within 1e-15.
    # Returns the sphere rows' errors against the decimal reference.
    rows = np.asarray([[row[b] for b in BASIS_LABELS] if isinstance(row, dict) else row for row in rows], dtype=float)
    fits = ml_reconstruct_states(rows)
    assert len(fits) == len(rows)
    for fit, row in zip(fits, rows):
        basis_counts = dict(zip(BASIS_LABELS, row.tolist()))
        alone = ml_reconstruct_state(basis_counts)
        rho, ll, on_boundary = scalar_fit(basis_counts)
        assert fit.rho.tobytes() == alone.rho.tobytes() == rho.tobytes()
        assert fit.on_boundary == alone.on_boundary == on_boundary
        for value in (fit.log_likelihood, alone.log_likelihood):
            assert abs(value - ll) <= 1e-15 * abs(ll)
    return assert_sphere_points_near_reference(rows)


nonzero_basis_counts = basis_counts_st.filter(lambda row: flat_counts(row).sum() > 0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(nonzero_basis_counts, min_size=1, max_size=8))
def test_state_stack_matches_scalar_fits(rows):
    assert_stack_matches_scalar_fits(rows)


EDGE_ROWS = [
    {"Z": (0.0, 7.0), "X": (0.0, 0.0), "Y": (0.0, 0.0)},  # empty outcomes
    {"Z": (100.0, 0.0), "X": (0.0, 50.0), "Y": (40.0, 40.0)},
    {"Z": (0.0, 0.0), "X": (1.0, 1e-300), "Y": (1.0, 1.0)},
    {"Z": (0.0, 0.0), "X": (0.0, 5e-324), "Y": (0.0, 5e-324)},
    {"Z": (0.0, 0.0), "X": (0.0, 1e-90), "Y": (1.0, 2.0)},
    {"Z": (0.0, 0.0), "X": (95.0, 5.0), "Y": (90.0, 10.0)},  # unmeasured basis
    {"Z": (8.0, 2.0), "X": (9.0, 1.0), "Y": (5.0, 5.0)},  # on the sphere, r_y = 0
    {"Z": (2.0, 8.0), "X": (1.0, 9.0), "Y": (5.0, 5.0)},  # and with r_x < 0
    {"Z": (5.0, 5.0), "X": (5.0, 5.0), "Y": (5.0, 5.0)},
]


def test_state_stack_matches_scalar_fits_at_the_edges():
    assert_stack_matches_scalar_fits(EDGE_ROWS)
    assert_stack_matches_scalar_fits(EDGE_ROWS[::-1])


def test_state_stack_rejects_an_all_zero_row():
    rows = [[row[b] for b in BASIS_LABELS] for row in EDGE_ROWS]
    rows.insert(2, [(0.0, 0.0)] * 3)
    with pytest.raises(DataFormatError, match="total count is zero; nothing to reconstruct"):
        ml_reconstruct_states(rows)
    with pytest.raises(DataFormatError, match="total count is zero; nothing to reconstruct"):
        ml_reconstruct_state({b: (0.0, 0.0) for b in BASIS_LABELS})


def test_state_stack_of_none_and_bad_shapes():
    assert ml_reconstruct_states(np.zeros((0, 3, 2))) == []
    with pytest.raises(DataFormatError, match="shape"):
        ml_reconstruct_states(np.ones((2, 2, 2)))
    with pytest.raises(DataFormatError, match="bad count nan for basis X"):
        ml_reconstruct_states([[(1.0, 1.0)] * 3, [(1.0, 1.0), (1.0, np.nan), (1.0, 1.0)]])


def seed_one_rows(noise):
    """The state rows of both analyses of seed 1 of the pipeline's stream, as ``reconstruct_analyses`` fits them."""
    table = simulate_counts(ExperimentPlan(), noise, 1)
    return np.concatenate([state_counts(rescale_efficiencies(analyzed, noise)).reshape(-1, len(BASIS_LABELS), 2)
                           for analyzed in (table, select_without_feedforward(table))])


@pytest.mark.parametrize("noise", [ideal_noise(pair_rate=16000.0), calibrated_noise()], ids=["ideal16k", "calibrated"])
def test_state_stack_matches_scalar_fits_on_seed_one(noise):
    rows = seed_one_rows(noise)
    assert len(rows) == 84
    # The array pass's own accuracy on these rows, measured at 1.2e-16 and 6.8e-16, with a tenfold margin: a pole
    # basis whose s is taken with cancellation, or from a multiplier that is off in its last bit, reads 1e-12 or more.
    worst_r, worst_s = assert_stack_matches_scalar_fits(rows)
    assert worst_r <= 1.2e-15 and worst_s <= 6.8e-15, (worst_r, worst_s)


def test_a_sphere_solve_out_of_steps_names_its_row(monkeypatch):
    monkeypatch.setattr(tomography, "_NEWTON_MAX_STEPS", 1)
    rows = [EDGE_ROWS[-1], {"Z": (990.0, 10.0), "X": (600.0, 400.0), "Y": (520.0, 480.0)}]
    with pytest.raises(ConvergenceError) as caught:
        ml_reconstruct_states([[row[b] for b in BASIS_LABELS] for row in rows])
    match = re.fullmatch(r"state row 1: the sphere solve did not settle in 1 Newton steps; counts "
                         r"\{'Z': \(990\.0, 10\.0\), 'X': \(600\.0, 400\.0\), 'Y': \(520\.0, 480\.0\)\}, "
                         r"multiplier bracket \[(\S+), (\S+)\]", str(caught.value))
    assert match, str(caught.value)
    lo, hi = map(float, match.groups())
    assert 0.0 <= lo < hi <= 990.0
