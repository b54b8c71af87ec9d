"""Spectral functions of the intertwinor families."""

import hashlib
from fractions import Fraction

import pytest

from speclab import spectral
from speclab.scalar_ops import scalar_eigenvalue
from speclab.spectral import (
    ExcludedParameterError,
    SpectrumTable,
    dirac_intertwinor_eigen,
    dirac_step_candidates,
    dirac_transfer_holds,
    entropy_log_bound,
    entropy_operator_eigen,
    finite,
    first_order_eigen,
    half_step_intertwinor_eigen,
    intertwinor_eigen,
    intertwinor_residue,
    intertwinor_residue_value,
    normalized_intertwinor_eigen,
    odd_intertwinor_eigen,
    odd_intertwinor_transfer_identity,
    product_operator_eigen,
    recurrence_check,
)


# ---------------------------------------------------------------------------
# the gamma-ratio family
# ---------------------------------------------------------------------------


def test_half_order_family_is_first_order():
    for n in (2, 3, 4, 5):
        for j in range(8):
            v = intertwinor_eigen(n, Fraction(1, 2), j)
            assert v.value == Fraction(n - 1, 2) + j
            assert v.value == first_order_eigen(n, j)


def test_integer_order_examples():
    assert intertwinor_eigen(4, 1, 1).value == 6
    assert intertwinor_eigen(2, 0, 5).value == 1


def test_negative_half_order_reciprocal_products():
    # n=3, r=-1: 1/((j+3/2)(j+1/2)), no poles anywhere
    for j in range(6):
        v = intertwinor_eigen(3, -1, j)
        assert v.value == 1 / ((Fraction(3, 2) + j) * (Fraction(1, 2) + j))


def test_pole_lattice_flagged_with_residue():
    v = intertwinor_eigen(2, -1, 0)
    assert v.kind == "pole"
    assert v.residue_value == intertwinor_residue(2, 0, 0) == 1
    # above the pole order the value is finite again
    v = intertwinor_eigen(2, -1, 1)
    assert v.kind == "finite" and v.value == Fraction(1, 2)


def test_residue_examples():
    assert intertwinor_residue(2, 0, 0) == 1
    assert intertwinor_residue(2, 0, 1) == 0
    assert intertwinor_residue(3, 1, 0) == Fraction(-1, 6)


def test_residue_numeric_limit_oracle():
    # (r - r0) Z(r, j) -> residue as r -> r0 = -n/2 - j0
    import mpmath

    mpmath.mp.dps = 40
    for n, j0, j in ((3, 1, 0), (2, 1, 1), (4, 2, 1)):
        r0 = -mpmath.mpf(n) / 2 - j0
        eps = mpmath.mpf(10) ** -18
        z = mpmath.gammaprod(
            [mpmath.mpf(n) / 2 + j + r0 + eps], [mpmath.mpf(n) / 2 + j - r0 - eps]
        )
        got = float(eps * z)
        want = float(intertwinor_residue(n, j0, j))
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_exact_and_float_branches_agree():
    # the mpmath branch evaluated at lattice parameters must reproduce
    # the exact product values
    for n in (2, 3, 5):
        for r_exact, r_float in ((Fraction(3, 2), 1.5), (Fraction(2), 2.0)):
            for j in range(8):
                exact = intertwinor_eigen(n, r_exact, j).value
                approx = intertwinor_eigen(n, r_float, j).value
                assert abs(float(exact) - approx) <= 1e-12 * max(1.0, abs(approx))


def test_recurrence_grid():
    for n in (2, 3, 4, 5, 6):
        for r in (Fraction(1, 2), Fraction(-1, 2), 1, -1, Fraction(3, 2), 2, 0.3, 1.7):
            on_pole_lattice = (
                not isinstance(r, float)
                and (Fraction(r) + Fraction(n, 2)).denominator == 1
                and -Fraction(r) - Fraction(n, 2) >= 0
            )
            if on_pole_lattice:
                j0 = int(-Fraction(r) - Fraction(n, 2))
                rows = [(j, intertwinor_residue_value(n, j0, j)) for j in range(13)]
                assert recurrence_check(n, r, rows)
                assert intertwinor_eigen(n, r, j0).kind == "pole"
            else:
                tab = SpectrumTable.scalar(n, r, 12)
                assert recurrence_check(n, r, tab.rows)


def test_recurrence_is_falsifiable():
    tab = SpectrumTable.scalar(3, Fraction(3, 2), 8)
    rows = list(tab.rows)
    lvl, sv = rows[3]
    rows[3] = (lvl, finite(sv.value + 1))
    assert not recurrence_check(3, Fraction(3, 2), rows)
    # constant table at r = 0 passes trivially
    rows = [(j, finite(Fraction(7))) for j in range(5)]
    assert recurrence_check(4, 0, rows)


def test_eigenvalue_gaps():
    for n in (2, 3, 4):
        for j in range(10):
            gap = scalar_eigenvalue(n, j + 1) - scalar_eigenvalue(n, j)
            assert gap == n + 2 * j


# ---------------------------------------------------------------------------
# product operators
# ---------------------------------------------------------------------------


def test_product_examples():
    assert product_operator_eigen(4, 1, 0) == 2
    assert product_operator_eigen(2, 1, 0) == 0


def test_product_equals_gamma_ratio():
    for n in (2, 3, 4, 5):
        for r in (1, 2, 3):
            for j in range(11):
                assert product_operator_eigen(n, r, j) == intertwinor_eigen(n, r, j).value


# ---------------------------------------------------------------------------
# normalization and the entropy-side family
# ---------------------------------------------------------------------------


def test_normalized_family():
    # r stays inside (0, n/2): the endpoint r = n/2 is outside the family
    for n in (2, 3, 4):
        for r in (Fraction(1, 2), 1, Fraction(3, 2)):
            if r >= Fraction(n, 2):
                continue
            assert normalized_intertwinor_eigen(n, r, 0).value == 1
    assert normalized_intertwinor_eigen(2, Fraction(1, 2), 1).value == 3
    rows = [(j, normalized_intertwinor_eigen(4, 1, j)) for j in range(8)]
    assert recurrence_check(4, 1, rows)


def test_normalized_at_pole_lattice_is_residue_family():
    vals = [normalized_intertwinor_eigen(2, -1, j).value for j in range(4)]
    assert vals[0] == 1
    assert vals[1] == vals[2] == vals[3] == 0


def test_entropy_eigen_examples():
    assert entropy_operator_eigen(2, 2) == 3
    assert entropy_operator_eigen(5, 0) == 0
    assert entropy_operator_eigen(2, 3) == Fraction(11, 3)


def test_entropy_eigen_difference_rule():
    # the increments are 4 over the eigenvalue gaps
    for n in (2, 3, 4):
        for j in range(12):
            diff = entropy_operator_eigen(n, j + 1) - entropy_operator_eigen(n, j)
            gap = scalar_eigenvalue(n, j + 1) - scalar_eigenvalue(n, j)
            assert diff == Fraction(4) / gap


def test_entropy_derivative_table_matches_reference():
    # the table keeps a running sum; each row must equal the direct sum
    for n in range(2, 7):
        table = SpectrumTable.entropy_derivative(n, 40)
        assert [level for level, _ in table.rows] == list(range(41))
        for j, sv in table.rows:
            assert sv == finite(entropy_operator_eigen(n, j))


def test_entropy_derivative_table_refuses_a_pole_as_the_reference_does():
    # n = -4: n/2 + 2 vanishes, so levels 0..2 exist and level 3 does not
    table = SpectrumTable.entropy_derivative(-4, 2)
    assert [sv.value for _, sv in table.rows] == [
        entropy_operator_eigen(-4, j) for j in range(3)
    ]
    with pytest.raises(ValueError) as want:
        entropy_operator_eigen(-4, 3)
    with pytest.raises(ValueError) as got:
        SpectrumTable.entropy_derivative(-4, 3)
    assert str(got.value) == str(want.value)


def test_log_bound_examples():
    import math

    mu, log_term = entropy_log_bound(2, 1)
    assert mu == 2 and abs(log_term - 2 * math.log(3)) < 1e-15
    assert entropy_log_bound(3, 0) == (0, 0.0)
    mu, log_term = entropy_log_bound(4, 2)
    assert mu == Fraction(5, 3)
    assert abs(log_term - 2 * math.log(7 / 3)) < 1e-15
    assert float(mu) <= log_term


def test_log_bound_margin_nonnegative():
    for n in (2, 3, 4, 5):
        for j in range(26):
            mu, log_term = entropy_log_bound(n, j)
            assert float(mu) <= log_term + 1e-14


def test_first_order_examples():
    assert first_order_eigen(3, 0) == 1
    assert first_order_eigen(2, 2) == Fraction(5, 2)
    for n in (2, 3, 4):
        for j in range(11):
            a = first_order_eigen(n, j)
            assert a * a - Fraction(n - 1, 2) ** 2 == j * (n - 1 + j)


# ---------------------------------------------------------------------------
# Dirac-side families
# ---------------------------------------------------------------------------


def test_cubic_candidates():
    assert dirac_step_candidates(Fraction(3, 2)) == (
        Fraction(-3, 2),
        Fraction(1, 2),
        Fraction(5, 2),
    )
    assert dirac_step_candidates(0) == (0, -1, 1)
    n = 4
    got = dirac_step_candidates(Fraction(n, 2))
    assert got == (-Fraction(n, 2), Fraction(n, 2) - 1, Fraction(n, 2) + 1)


def test_odd_intertwinor_values():
    assert odd_intertwinor_eigen(1, 2) == 6
    assert odd_intertwinor_eigen(1, 1) == 0
    assert odd_intertwinor_eigen(0, Fraction(7, 3)) == Fraction(7, 3)


def test_odd_intertwinor_symbolic_transfer():
    for k in range(5):
        assert odd_intertwinor_transfer_identity(k)


@pytest.mark.parametrize("bad_k", range(4))
def test_odd_transfer_check_catches_a_wrong_polynomial(monkeypatch, bad_k):
    # lam^2 added to the family at one k breaks the transfer at that k only
    true = spectral.odd_intertwinor_eigen

    def wrong(k, lam):
        return true(k, lam) + (Fraction(lam) ** 2 if k == bad_k else 0)

    monkeypatch.setattr(spectral, "odd_intertwinor_eigen", wrong)
    assert [odd_intertwinor_transfer_identity(k) for k in range(4)] == [
        k != bad_k for k in range(4)
    ]


def test_dirac_gamma_shift_and_oddness_float():
    for n in (2, 3):
        for k in (0.25, 1 / 3):
            for j in range(7):
                lam = Fraction(n, 2) + j
                a = float(dirac_intertwinor_eigen(n, k, lam))
                a_neg = float(dirac_intertwinor_eigen(n, k, -lam))
                assert abs(a + a_neg) <= 1e-12 * max(1.0, abs(a))
                a_up = float(dirac_intertwinor_eigen(n, k, lam + 1))
                lhs = a_up * (float(lam) - k)
                rhs = (float(lam) + 1 + k) * a
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_dirac_gamma_transfer_relation_float():
    for n, k in ((2, 0.25), (3, 1 / 3)):
        alpha = lambda lam: dirac_intertwinor_eigen(n, k, lam)
        for j in range(5):
            lam = Fraction(n, 2) + j
            for mu in dirac_step_candidates(lam):
                if abs(mu) < Fraction(n, 2):
                    continue  # not an eigenvalue: the compression is vacuous
                assert dirac_transfer_holds(alpha, lam, mu, k, rel_tol=1e-12)


def test_reflection_parity_dichotomy():
    # the absolute-value form Gamma(|P|+k+1)/Gamma(|P|-k) equals
    # sgn(P)^n times the signed form: the reflection factor is +1 on the
    # integer eigenvalue lattice (even n) and -1 on the half-odd one
    import mpmath

    mpmath.mp.dps = 40
    for n, k in ((2, 0.25), (3, 0.25), (2, 1 / 3), (3, 1 / 3)):
        for j in range(5):
            lam = Fraction(n, 2) + j
            for s in (lam, -lam):
                sf = mpmath.mpf(s.numerator) / s.denominator
                signed = mpmath.gammaprod([sf + k + 1], [sf - k])
                unsigned = mpmath.gammaprod([abs(sf) + k + 1], [abs(sf) - k])
                want = mpmath.sign(sf) ** n * signed
                assert abs(unsigned - want) <= 1e-25 * max(1, abs(want))


def test_half_step_formula_matches_gamma_ratio_even_dimensions():
    for n in (2, 4):
        for j in range(7):
            lam = Fraction(n, 2) + j
            for s in (lam, -lam):
                assert dirac_intertwinor_eigen(n, Fraction(1, 2), s).value == half_step_intertwinor_eigen(s)


def test_half_step_transfer_exact_both_parities():
    # the explicit order-2 formula passes the transfer relation on the
    # lattices of both parities, exactly
    for n in (2, 3):
        for j in range(7):
            lam = Fraction(n, 2) + j
            for s in (lam, -lam):
                for mu in dirac_step_candidates(s):
                    if mu == 0 or abs(mu) < Fraction(n, 2):
                        continue
                    assert dirac_transfer_holds(
                        half_step_intertwinor_eigen, s, mu, Fraction(1, 2)
                    )


def test_excluded_parameters_flagged():
    with pytest.raises(ExcludedParameterError):
        dirac_intertwinor_eigen(3, Fraction(1, 2), Fraction(3, 2))
    with pytest.raises(ExcludedParameterError):
        dirac_intertwinor_eigen(2, 1, Fraction(1))
    # and the fallback formula covers the excluded half-step case
    assert half_step_intertwinor_eigen(Fraction(3, 2)) == Fraction(3, 2) * Fraction(
        3, 2
    ) - Fraction(1, 4)


def test_oddness_exact_branch():
    # exact-lattice parameters obeying the non-integrality hypothesis:
    # half-odd k for even n, integer k for odd n
    for n, k in ((2, Fraction(1, 2)), (2, Fraction(3, 2)), (3, 1), (3, 2)):
        for j in range(7):
            lam = Fraction(n, 2) + j
            a = dirac_intertwinor_eigen(n, k, lam)
            b = dirac_intertwinor_eigen(n, k, -lam)
            assert a.value == -b.value


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_table_csv_shape_and_determinism():
    t = SpectrumTable.scalar(2, 0.3, 3)
    csv1, csv2 = t.to_csv(), SpectrumTable.scalar(2, 0.3, 3).to_csv()
    assert csv1 == csv2
    lines = csv1.strip().splitlines()
    assert lines[0] == "level,value,kind"
    assert len(lines) == 5
    # floats carry 17 significant digits
    assert len(lines[1].split(",")[1].replace(".", "").replace("-", "")) >= 15


@pytest.mark.parametrize(
    "args, digest",
    [
        ((3, Fraction(1, 3), 6), "7ccc6347bbab47b52172b21a95d111b10f3c2fde3c17a9fe4aacf49f9f4d126b"),
        ((4, 0.3, 6), "57779522123de445b156568c7041ea1acb8a61dd9df91ca5393f4896cb3d56a0"),
        ((2, Fraction(-3, 2), 4), "73b4633e15bd21072a2977a193f5a5b2589cd09ee4285998bac4fdf77ab9e0ba"),
        # on the pole lattice: levels 0 and 1 are poles (a ratio of residues),
        # and the levels above them read 0
        ((5, Fraction(-7, 2), 5), "dbe8d06cebd1460755b3bffaf6bf6dcce32194226447be446a4cbdb2acd29298"),
    ],
)
def test_golden_scalar_normalized_table(args, digest):
    t = SpectrumTable.scalar_normalized(*args)
    assert t.family == "scalar_normalized" and len(t.rows) == args[2] + 1
    assert hashlib.sha256(t.to_csv().encode()).hexdigest() == digest


def test_table_json_sorted():
    import json

    t = SpectrumTable.residue_family(2, 1, 4)
    d = json.loads(json.dumps(t.to_dict(), sort_keys=True))
    assert d["family"] == "residue"
    assert [row["kind"] for row in d["rows"]][:2] == ["residue", "residue"]


def test_float_orders_leave_global_mpmath_precision_alone():
    import mpmath

    saved = mpmath.mp.dps
    try:
        mpmath.mp.dps = 23
        assert intertwinor_eigen(3, 0.3, 2).kind == "finite"
        assert mpmath.mp.dps == 23
        SpectrumTable.dirac(2, 0.3, 3)
        assert mpmath.mp.dps == 23
    finally:
        mpmath.mp.dps = saved
