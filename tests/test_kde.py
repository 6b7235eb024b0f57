"""Batch Gaussian KDE through certified low-rank kernel expansion."""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from expcheb.approx import (
    ExportedPolynomial,
    export_polynomial,
    find_degree,
    problem,
)
from expcheb.coeffs import CoeffValue, Target
from expcheb.approx import ChebSeries
from expcheb.errors import CapacityError, DomainError, SoundnessError
from expcheb.hp import hpf
from expcheb.kde import (
    cost_model,
    build_feature_matrices,
    enumerate_multi_indices,
    estimate_diameter_sq,
    expand_kernel_poly,
    feature_count,
    kde_bruteforce,
    kde_matvec,
    make_instance,
    measured_diameter_sq,
    reconstruct_feature_value,
    solve,
)
from expcheb.kde import _two_prod, _two_sum


def _synthetic_poly(mono):
    """Wrap monomial coefficients in the exported-polynomial container."""
    mono = tuple(Fraction(c) for c in mono)
    d = len(mono) - 1
    cheb = ChebSeries(hpf(1, 64), Target.EXP_NEG,
                      tuple(CoeffValue(hpf(0, 64), hpf(0, 64))
                            for _ in range(d + 1)))
    return ExportedPolynomial(degree=d, domain_B=hpf(1, 64), cheb_form=cheb,
                              monomial_form=mono,
                              certified_sup_bound=hpf(0, 64),
                              rounding_bound=hpf(0, 64), precision_bits=64)


def _box_points(rng, n, m, B, scale=0.98):
    side = math.sqrt(scale * float(B) / m)
    X = rng.uniform(-side / 2, side / 2, size=(n, m))
    Y = rng.uniform(-side / 2, side / 2, size=(n, m))
    return X, Y


def test_feature_count_and_enumeration_order():
    # columns (j, i, beta) with |beta| = j and i <= d - j, counted by hand:
    # m=1, d=1: (0, 0, (0)), (0, 1, (0)), (1, 0, (1))
    # m=2, d=2: 1*3 + 2*2 + 3*1
    assert feature_count(1, 1) == 3
    assert feature_count(2, 2) == 10
    assert feature_count(8, 9) == math.comb(18, 9) == 48620
    idx = enumerate_multi_indices(1, 1)
    assert idx == [(0,), (1,)]
    idx = enumerate_multi_indices(2, 2)
    assert idx == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    idx = enumerate_multi_indices(3, 2)
    assert idx == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                   (2, 0, 0), (1, 1, 0), (0, 2, 0),
                   (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    idx = enumerate_multi_indices(3, 3)
    assert len(idx) == math.comb(6, 3)
    assert idx == sorted(idx, key=lambda t: (sum(t), t[::-1]))
    assert len(set(idx)) == len(idx)
    # columns (j, i, beta) of m=2, d=2, with their hand values at x = (2, 3)
    fm = expand_kernel_poly(_synthetic_poly([0, 0, 1]), 2)
    assert fm.rank == 10
    inst = make_instance([[2.0, 3.0]], [[0.0, 0.0]], [1.0], "1e-3", B=16)
    Xmat, _ = build_feature_matrices(inst, fm)
    a = 13.0
    assert Xmat[0].tolist() == [1.0, a, a * a,      # j=0: i=0..2
                                2.0, 3.0,           # j=1, i=0: x1, x2
                                2.0 * a, 3.0 * a,   # j=1, i=1
                                4.0, 2 * 6.0, 9.0]  # j=2: x1^2, 2 x1x2, x2^2


def test_capacity_error_carries_count():
    with pytest.raises(CapacityError) as exc:
        enumerate_multi_indices(50, 10)
    msg = str(exc.value)
    assert f"C(61, 10) = {math.comb(61, 10)}" in msg


def test_make_instance_validation():
    X = np.zeros((4, 2))
    Y = np.zeros((4, 2))
    w = np.ones(4)
    with pytest.raises(DomainError):
        make_instance(X, Y[:3], w, "1e-3")
    with pytest.raises(DomainError):
        make_instance(X, Y, w[:3], "1e-3")
    with pytest.raises(DomainError):
        make_instance(X.ravel(), Y, w, "1e-3")
    bad = X.copy()
    bad[0, 0] = np.nan
    with pytest.raises(DomainError):
        make_instance(bad, Y, w, "1e-3")
    with pytest.raises(DomainError):
        make_instance(X, Y, w, 0)
    with pytest.raises(DomainError):
        make_instance(X, Y, w, 1)


def test_make_instance_diameter_estimate():
    X = np.array([[0.0, 0.0], [1.0, 2.0]])
    Y = np.array([[0.5, -1.0], [2.0, 0.0]])
    inst = make_instance(X, Y, np.ones(2), "1e-3")
    # pooled per-coordinate ranges: x spans 2, y spans 3
    assert inst.B == Fraction(float(2.0 ** 2 + 3.0 ** 2))
    assert inst.B_estimated
    # degenerate clouds clamp the bound up to 1
    Z = np.zeros((3, 2))
    inst0 = make_instance(Z, Z, np.ones(3), "1e-3")
    assert inst0.B == 1
    inst_fixed = make_instance(X, Y, np.ones(2), "1e-3", B=25)
    assert inst_fixed.B == 25 and not inst_fixed.B_estimated


def test_estimate_dominates_measured_diameter():
    rng = np.random.default_rng(3)
    for _ in range(5):
        X = rng.normal(size=(20, 3))
        Y = rng.normal(size=(20, 3))
        assert estimate_diameter_sq(X, Y) >= measured_diameter_sq(X, Y) - 1e-12


def test_expand_linear_hand_case():
    fm = expand_kernel_poly(_synthetic_poly([0, 1]), 1)
    assert fm.d == 1
    nonzero = {(i, j, k): fm.coef[i, j, k]
               for i in range(2) for j in range(2) for k in range(2)
               if fm.coef[i, j, k] != 0}
    assert nonzero == {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(-2),
                       (0, 0, 1): Fraction(1)}


def test_expand_constant_hand_case():
    fm = expand_kernel_poly(_synthetic_poly([Fraction(3, 8), 0]), 2)
    nonzero = {(i, j, k): fm.coef[i, j, k]
               for i in range(2) for j in range(2) for k in range(2)
               if fm.coef[i, j, k] != 0}
    assert nonzero == {(0, 0, 0): Fraction(3, 8)}
    assert fm.rank == feature_count(2, 1)


def test_expand_square_matches_exact_reference():
    # p(z) = z^2 - z/2 + 1/4 over m = 2 coordinates
    mono = [Fraction(1, 4), Fraction(-1, 2), Fraction(1)]
    fm = expand_kernel_poly(_synthetic_poly(mono), 2)
    pts = [((Fraction(1, 2), Fraction(-1, 3)), (Fraction(2, 5), Fraction(1))),
           ((Fraction(0), Fraction(2)), (Fraction(-1, 7), Fraction(1, 9)))]
    for x, y in pts:
        want = oracles.kernel_poly_value(mono, x, y)
        got = reconstruct_feature_value(fm, x, y)
        assert got == want


def test_expand_real_polynomial_exact():
    spec = problem(Target.EXP_NEG, 4, "1e-3")
    poly = export_polynomial(spec, find_degree(spec))
    fm = expand_kernel_poly(poly, 2)
    import random
    rng = random.Random(5)
    for _ in range(6):
        x = tuple(Fraction(rng.randrange(-8, 9), 8) for _ in range(2))
        y = tuple(Fraction(rng.randrange(-8, 9), 8) for _ in range(2))
        want = oracles.kernel_poly_value(poly.monomial_form, x, y)
        assert reconstruct_feature_value(fm, x, y) == want


def test_parent_links_precede_children():
    fm = expand_kernel_poly(_synthetic_poly([0, 0, 0, 1]), 3)
    idx = [tuple(int(e) for e in vec) for vec in fm.exponents]
    assert idx == enumerate_multi_indices(3, 3)
    linked = {0}
    for dst, src, count, var in fm.runs.tolist():
        for t in range(count):
            child, parent = dst + t, src + t
            assert parent < child and parent in linked
            vec = idx[child]
            assert var == max(v for v in range(3) if vec[v])
            reduced = vec[:var] + (vec[var] - 1,) + vec[var + 1:]
            assert idx[parent] == reduced
            linked.add(child)
    assert linked == set(range(len(idx)))
    assert int(fm.runs[:, 2].sum()) == len(idx) - 1
    starts = fm.level_starts
    assert starts[0] == 0 and starts[-1] == len(idx)
    for lvl in range(len(starts) - 2):
        for i in range(starts[lvl], starts[lvl + 1]):
            assert sum(idx[i]) == lvl


def test_feature_matrices_reproduce_kernel_values():
    spec = problem(Target.EXP_NEG, 4, "1e-4")
    poly = export_polynomial(spec, find_degree(spec))
    fm = expand_kernel_poly(poly, 2)
    X = np.array([[0.25, -0.5], [0.0, 0.75], [-0.125, 0.5]])
    Y = np.array([[0.5, 0.25], [-0.25, 0.0], [0.375, -0.625]])
    inst = make_instance(X, Y, np.ones(3), "1e-4", B=4)
    Xmat, Ymat = build_feature_matrices(inst, fm, center=None)
    K = Xmat @ Ymat.T
    for i in range(3):
        for j in range(3):
            want = float(oracles.kernel_poly_value(
                poly.monomial_form,
                [Fraction(v) for v in X[i]],
                [Fraction(v) for v in Y[j]]))
            assert abs(K[i, j] - want) < 1e-10


def test_float_tables_factor_the_coefficients():
    spec = problem(Target.EXP_NEG, 9, "1e-6")
    poly = export_polynomial(spec, find_degree(spec))
    fm = expand_kernel_poly(poly, 3)
    d = fm.d
    for i in range(d + 1):
        for j in range(d + 1 - i):
            scale = (-2) ** j * math.comb(i + j, i)
            assert fm.pair_scale[j, i] == scale
            for k in range(d + 1 - i - j):
                assert fm.coef[i, j, k] == scale * fm.coef[i + j, 0, k]
                assert fm.horner[i + j, k] == float(fm.coef[i + j, 0, k])
    for beta, wt in zip(fm.exponents, fm.weights):
        want = math.factorial(int(beta.sum()))
        for e in beta:
            want //= math.factorial(int(e))
        assert wt == want


def test_float_bound_encloses_exact_polynomial_sum():
    # dyadic points whose centering is exact, so the float result can be
    # compared with the exact rational value of sum_j w_j p(|x_i - y_j|^2)
    rng = np.random.default_rng(41)
    n, m, B, delta = 12, 2, 9, "1e-6"
    X = rng.integers(-64, 65, (n, m)) / 64
    Y = rng.integers(-64, 65, (n, m)) / 64
    w = rng.integers(-32, 33, n) / 32
    inst = make_instance(X, Y, w, delta, B=B)
    spec = problem(Target.EXP_NEG, B, Fraction(delta) / 2)
    poly = export_polynomial(spec, find_degree(spec))
    fm = expand_kernel_poly(poly, m)
    xs = [[Fraction(v) for v in row] for row in X]
    ys = [[Fraction(v) for v in row] for row in Y]
    exact = [sum(Fraction(w[j]) * oracles.kernel_poly_value(
        poly.monomial_form, xs[i], ys[j]) for j in range(n))
        for i in range(n)]
    w1 = float(np.abs(w).sum())
    for force in (None, "high"):
        res = kde_matvec(inst, fm, force=force)
        assert res.used_high_precision == (force == "high")
        gap = max(abs(Fraction(float(res.v[i])) - exact[i]) for i in range(n))
        assert float(gap) <= res.float_error_bound * w1


def test_matvec_streams_row_chunks(monkeypatch):
    import expcheb.kde as kde_mod
    rng = np.random.default_rng(8)
    X, Y = _box_points(rng, 50, 3, 9)
    w = rng.normal(size=50)
    inst = make_instance(X, Y, w, "1e-4", B=9)
    spec = problem(Target.EXP_NEG, 9, Fraction("1e-4") / 2)
    fm = expand_kernel_poly(export_polynomial(spec, find_degree(spec)), 3)
    whole = kde_matvec(inst, fm)
    monkeypatch.setattr(kde_mod, "_CHUNK_BYTES", 7 * 8 * fm.rank)
    built = []
    real = kde_mod.build_feature_matrices

    def spy(*args, **kwargs):
        Xmat, Ymat = real(*args, **kwargs)
        built.append(Xmat.shape[0] + Ymat.shape[0])
        return Xmat, Ymat
    monkeypatch.setattr(kde_mod, "build_feature_matrices", spy)
    res = kde_matvec(inst, fm)
    assert len(built) == 2 * math.ceil(50 / 7)
    assert max(built) == 7
    w1 = float(np.abs(w).sum())
    gap = float(np.abs(res.v - whole.v).max())
    assert gap <= (res.float_error_bound + whole.float_error_bound) * w1


def test_reference_dimension_stays_plain():
    # criterion 08's m = 8, B = 9, delta = 1e-3 at a small n
    rng = np.random.default_rng(12)
    X, Y = _box_points(rng, 1024, 8, 9)
    w = rng.uniform(0.0, 1.0, 1024)
    inst = make_instance(X, Y, w, "1e-3", B=9)
    res = solve(inst)
    assert res.M == math.comb(18, 9) and res.degree == 9
    assert not res.used_high_precision
    assert res.float_error_bound <= 1e-3 / 2
    brute = kde_bruteforce(inst)
    assert float(np.abs(res.v - brute).max()) <= 1e-3 * float(w.sum())


def test_matvec_within_tolerance_of_bruteforce():
    cases = ((64, 2, 9, "1e-6", 101), (48, 3, 4, "1e-3", 7))
    for n, m, B, delta, seed in cases:
        rng = np.random.default_rng(seed)
        X, Y = _box_points(rng, n, m, B)
        w = rng.normal(size=n)
        inst = make_instance(X, Y, w, delta, B=B)
        res = solve(inst)
        brute = kde_bruteforce(inst)
        gap = float(np.abs(res.v - brute).max())
        w1 = float(np.abs(w).sum())
        assert gap <= float(Fraction(delta)) * w1
        assert res.M == math.comb(m + res.degree + 1, res.degree)
        assert res.float_error_bound <= float(Fraction(delta)) / 2


def test_zero_weights_give_zero_density():
    rng = np.random.default_rng(2)
    X, Y = _box_points(rng, 12, 2, 4)
    inst = make_instance(X, Y, np.zeros(12), "1e-3", B=4)
    res = solve(inst)
    assert not res.v.any()


def test_single_coincident_point():
    inst = make_instance([[0.0]], [[0.0]], [0.7], "1e-4", B=1)
    res = solve(inst)
    assert abs(res.v[0] - 0.7) <= 1e-4 * 0.7


def test_bruteforce_hand_instance():
    inst = make_instance([[0.0], [1.0]], [[0.0], [1.0]], [1.0, 1.0],
                         "1e-3", B=1)
    v = kde_bruteforce(inst)
    want = 1 + math.exp(-1)
    assert abs(v[0] - want) < 1e-14
    assert abs(v[1] - want) < 1e-14


def test_matvec_bitwise_deterministic():
    rng = np.random.default_rng(17)
    X, Y = _box_points(rng, 40, 2, 4)
    w = rng.normal(size=40)
    inst = make_instance(X, Y, w, "1e-4", B=4)
    spec = problem(Target.EXP_NEG, 4, str(Fraction("1e-4") / 2))
    poly = export_polynomial(spec, find_degree(spec))
    fm = expand_kernel_poly(poly, 2)
    a = kde_matvec(inst, fm)
    b = kde_matvec(inst, fm)
    assert a.v.tobytes() == b.v.tobytes()


def _tight_instance():
    # wide domain and tight tolerance: the plain double-precision budget
    # cannot absorb the e^B mass cancellation
    rng = np.random.default_rng(31)
    X, Y = _box_points(rng, 16, 1, 36)
    w = rng.normal(size=16)
    return make_instance(X, Y, w, "1e-6", B=36)


def test_escalates_to_high_precision():
    inst = _tight_instance()
    res = solve(inst)
    assert res.used_high_precision
    brute = kde_bruteforce(inst)
    gap = float(np.abs(res.v - brute).max())
    assert gap <= 1e-6 * float(np.abs(inst.w).sum())


def test_force_plain_over_budget_raises():
    inst = _tight_instance()
    with pytest.raises(SoundnessError):
        solve(inst, force="plain")


def test_force_high_on_easy_instance():
    rng = np.random.default_rng(5)
    X, Y = _box_points(rng, 10, 2, 4)
    w = rng.normal(size=10)
    inst = make_instance(X, Y, w, "1e-3", B=4)
    res = solve(inst, force="high")
    assert res.used_high_precision
    brute = kde_bruteforce(inst)
    assert float(np.abs(res.v - brute).max()) <= 1e-3 * np.abs(w).sum()
    easy = solve(inst)
    assert not easy.used_high_precision
    with pytest.raises(DomainError):
        solve(inst, force="fast")


def test_diameter_validation_warns_and_reports():
    X = np.array([[0.0], [3.0]])
    Y = np.array([[0.0], [-3.0]])
    w = np.array([1.0, 1.0])
    inst = make_instance(X, Y, w, "1e-3", B=1)
    with pytest.warns(UserWarning):
        res = solve(inst, validate_diameter=True)
    assert res.diameter_violation == pytest.approx(36.0)
    ok = make_instance(X, Y, w, "1e-3", B=49)
    res_ok = solve(ok, validate_diameter=True)
    assert res_ok.diameter_violation is None


def test_solve_capacity_refusal():
    X = np.zeros((4, 50))
    inst = make_instance(X, X, np.ones(4), "1e-9", B=9)
    with pytest.raises(CapacityError) as exc:
        solve(inst)
    assert "C(" in str(exc.value)


def test_two_sum_and_two_prod_are_exact():
    a = np.array([1e16, 1.0 + 2.0 ** -30, -3.75])
    b = np.array([1.0, 1.0 + 2.0 ** -40, 2.0 ** -60])
    hi, lo = _two_sum(a, b)
    for i in range(3):
        assert Fraction(float(hi[i])) + Fraction(float(lo[i])) \
            == Fraction(float(a[i])) + Fraction(float(b[i]))
    hi, lo = _two_prod(a, b)
    for i in range(3):
        assert Fraction(float(hi[i])) + Fraction(float(lo[i])) \
            == Fraction(float(a[i])) * Fraction(float(b[i]))


def test_cost_model_scaling_regime():
    n = 2 ** 32
    cm = cost_model(n, 1.0, 1.0, 1e-2)
    assert cm.m == 22
    assert cm.degree == 6
    # rank C(m+d+1, d) = C(29, 6); exponent ln(475020) / ln(2^32)
    assert cm.M == math.comb(22 + 6 + 1, 6) == 475020
    assert abs(cm.exponent_bound - 0.5893) < 2e-3
    assert abs(cm.x - 0.5403621) < 1e-5
    assert cm.envelope == pytest.approx(cm.x * abs(math.log(cm.x)))
    assert cm.degree_source in ("certificate", "prediction")

    cm6 = cost_model(n, 1.0, 1.0, 1e-6)
    assert cm6.degree == 2
    # C(25, 2) = 300; ln(300) / ln(2^32)
    assert abs(cm6.exponent_bound - 0.2572) < 2e-3


def test_cost_model_certifies_when_B_allows():
    # B = 0.3 ln 2^32 ~ 6.65 >= 1, so the degree is the certified one
    n = 2 ** 32
    cm = cost_model(n, 1.0, 1.0, 0.3)
    assert cm.degree_source == "certificate"
    spec = problem(Target.EXP_NEG, repr(0.3 * math.log(n)), repr(n ** -1.0))
    assert cm.degree == find_degree(spec).D_upper


def test_cost_model_validation():
    with pytest.raises(DomainError):
        cost_model(2 ** 20, 1.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        cost_model(2 ** 20, 1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        cost_model(2 ** 20, -1.0, 1.0, 1e-3)
    with pytest.raises(DomainError):
        cost_model(2, 1.0, 1.0, 1e-3)
