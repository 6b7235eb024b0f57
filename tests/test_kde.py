"""Batch Gaussian KDE through certified low-rank kernel expansion."""

import dataclasses
import functools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
import expcheb.kde as kde_mod
from expcheb.kde import (
    cost_model,
    build_feature_matrices,
    enumerate_multi_indices,
    estimate_diameter_sq,
    expand_kernel_poly,
    feature_count,
    gamma_ops,
    kde_bruteforce,
    kde_matvec,
    kernel_map,
    make_instance,
    measured_diameter_sq,
    solve,
)
from expcheb.kde import (
    _EPS,
    _binned_abs_bound,
    _dd_sum_tree,
    _gamma,
    _midrange,
    _two_prod,
    _two_sum,
)


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
    # a' = ||x||^2 - t0/2, with t0 = B/2 = 1/2 for p's domain [0, 1]
    assert fm.shift == 0.25
    a = 13.0 - 0.25
    assert Xmat[0].tolist() == [1.0, a, a * a,      # j=0: i=0..2
                                2.0, 3.0,           # j=1, i=0: x1, x2
                                2.0 * a, 3.0 * a,   # j=1, i=1
                                4.0, 6.0, 9.0]      # j=2: x1^2, x1x2, x2^2
    # kappa_r = (-2)^j C(i+j, i) j!/beta! in the same column order
    assert fm.scale.tolist() == [1, 1, 1, -2, -2, -4, -4, 4, 8, 4]


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
    for bad in (float("inf"), float("nan"), "inf", "nan", "abc",
                "1e-4000000"):
        with pytest.raises(DomainError):
            make_instance(X, Y, w, bad)
        with pytest.raises(DomainError):
            make_instance(X, Y, w, "1e-3", B=bad)


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


def test_estimated_diameter_rounds_up():
    # two points at distance r: the certified B must cover r^2 exactly
    rng = np.random.default_rng(9)
    for r in rng.uniform(2.0, 10.0, 1000).tolist():
        inst = make_instance([[0.0]], [[r]], [1.0], "1e-3")
        assert Fraction(r) ** 2 <= inst.B


def test_estimate_dominates_measured_diameter():
    rng = np.random.default_rng(3)
    for _ in range(5):
        X = rng.normal(size=(20, 3))
        Y = rng.normal(size=(20, 3))
        assert estimate_diameter_sq(X, Y) >= measured_diameter_sq(X, Y) - 1e-12


def _table_coefs(fm):
    """The nonzero c_ijk = (-2)^j C(i+j, i) horner[i + j, k] of the float
    Horner table."""
    d = fm.d
    coefs = {(i, j, k): (-2) ** j * math.comb(i + j, i) * fm.horner[i + j, k]
             for i in range(d + 1) for j in range(d + 1 - i)
             for k in range(d + 1 - i - j)}
    return {key: c for key, c in coefs.items() if c != 0}


def test_expand_linear_hand_case():
    # p(t) = t recentred at t0 = 1/2: q(s) = s + 1/2
    fm = expand_kernel_poly(_synthetic_poly([0, 1]), 1)
    assert fm.d == 1
    assert fm.shifted == (Fraction(1, 2), Fraction(1))
    assert _table_coefs(fm) == {(0, 0, 0): 0.5, (1, 0, 0): 1.0,
                                (0, 1, 0): -2.0, (0, 0, 1): 1.0}


def test_expand_constant_hand_case():
    fm = expand_kernel_poly(_synthetic_poly([Fraction(3, 8), 0]), 2)
    assert _table_coefs(fm) == {(0, 0, 0): 0.375}
    assert fm.rank == feature_count(2, 1)


def test_expand_square_matches_exact_reference():
    # p(z) = z^2 - z/2 + 1/4 over m = 2 coordinates
    mono = [Fraction(1, 4), Fraction(-1, 2), Fraction(1)]
    fm = expand_kernel_poly(_synthetic_poly(mono), 2)
    pts = [((Fraction(1, 2), Fraction(-1, 3)), (Fraction(2, 5), Fraction(1))),
           ((Fraction(0), Fraction(2)), (Fraction(-1, 7), Fraction(1, 9)))]
    for x, y in pts:
        want = oracles.kernel_poly_value(mono, x, y)
        got = oracles.reconstruct_feature_value(fm, x, y)
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
        assert oracles.reconstruct_feature_value(fm, x, y) == want


def test_recentred_map_reproduces_p_exactly():
    # q(s) = p(s + t0), t0 = 2 fl(B/4), shifted exactly; the map at
    # a' = ||x||^2 - t0/2 and c' = ||y||^2 - t0/2 sums to p(||x - y||^2)
    import random
    rng = random.Random(11)
    for m, B, delta in ((1, 16, "1e-12"), (2, 9, "1e-3")):
        _, fm = kernel_map(m, B, delta)
        p = fm.poly.monomial_form
        assert fm.shift == B / 4
        t0 = 2 * Fraction(fm.shift)
        for s in (Fraction(0), Fraction(-7, 3), Fraction(B, 2)):
            assert sum(c * s ** k for k, c in enumerate(fm.shifted)) \
                == sum(c * (s + t0) ** k for k, c in enumerate(p))
        for _ in range(3):
            x = tuple(Fraction(rng.randrange(-64, 65), 32) for _ in range(m))
            y = tuple(Fraction(rng.randrange(-64, 65), 32) for _ in range(m))
            assert oracles.reconstruct_feature_value(fm, x, y) \
                == oracles.kernel_poly_value(p, x, y)


def test_tables_refuse_entries_outside_normal_doubles():
    # a nonzero table entry that rounds to a subnormal breaks the rounding
    # model; at B = 2500 the recentred Horner table has one
    expand_kernel_poly(_synthetic_poly([Fraction(1, 2 ** 1022), 0]), 1)
    for tiny in (Fraction(1, 2 ** 1023), Fraction(1, 2 ** 1080)):
        with pytest.raises(SoundnessError):
            expand_kernel_poly(_synthetic_poly([tiny, 0]), 1)
    with pytest.raises(SoundnessError):
        kernel_map(1, 2500, "1e-3")


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
    Xmat, Ymat = build_feature_matrices(inst, fm)
    K = (Xmat * fm.scale) @ Ymat.T
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
    q = fm.shifted
    columns = iter(fm.scale.tolist())
    for j in range(d + 1):
        level = fm.exponents[fm.level_starts[j]:fm.level_starts[j + 1]]
        for i in range(d + 1 - j):
            for beta in level.tolist():
                weight = math.factorial(j)
                for e in beta:
                    weight //= math.factorial(e)
                # kappa_r = (-2)^j C(i+j, i) j!/beta!, rounded once
                kappa = (-2) ** j * math.comb(i + j, i) * weight
                assert next(columns) == float(kappa)
                for k in range(d + 1 - i - j):
                    s = i + j + k
                    horner = q[s] * math.comb(s, i + j)
                    assert fm.horner[i + j, k] == float(horner)
                    # kappa_r c_{i+j,0,k} = c_ijk j!/beta!, exactly
                    mult = math.factorial(s) // (math.factorial(i)
                                                 * math.factorial(j)
                                                 * math.factorial(k))
                    assert kappa * horner == q[s] * mult * (-2) ** j * weight
    assert next(columns, None) is None


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
    assert res.M == math.comb(17, 8) and res.degree == 8
    assert not res.used_high_precision
    assert res.float_bound_source == "a-priori"
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


def test_escalates_to_high_precision():
    inst = _escalate_instance(delta="2e-13")
    res = solve(inst)
    assert res.used_high_precision
    brute = kde_bruteforce(inst)
    gap = float(np.abs(res.v - brute).max())
    assert gap <= 2e-13 * float(np.abs(inst.w).sum())


def test_escalate_shape_stays_plain():
    # recentred, the kde-escalate shape certifies in plain doubles
    inst = _escalate_instance()
    res = solve(inst)
    assert not res.used_high_precision
    assert res.float_error_bound <= 1e-12 / 2
    brute = kde_bruteforce(inst)
    gap = float(np.abs(res.v - brute).max())
    assert gap <= 1e-12 * float(np.abs(inst.w).sum())


def test_force_plain_over_budget_raises():
    inst = _escalate_instance(delta="2e-13")
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


# ---------------------------------------------------------------------------
# a priori bounds on max_i A_i


def _centered(inst):
    center = _midrange(inst)
    return inst.X - center, inst.Y - center


def _sides(inst, fm):
    """The centered instance and its sides' norms, as kde_matvec has them."""
    Xp, Yp = _centered(inst)
    return (dataclasses.replace(inst, X=Xp, Y=Yp), kde_mod._norms(Xp, fm),
            kde_mod._norms(Yp, fm))


def _shifted(row, fm):
    """a' = fl(fl(||p||^2) - t0/2), squares summed in coordinate order."""
    s = 0.0
    for v in row:
        s += float(v) * float(v)
    return Fraction(s - fm.shift)


def _exact_abs_sums(inst, fm):
    """A_i per row in exact rationals from |q_k|, |x'_i|, |y'_n| and the
    rows' |a'_i| and |c'_n|."""
    Xp, Yp = _centered(inst)
    xs = [[abs(Fraction(float(v))) for v in row] for row in Xp]
    ys = [[abs(Fraction(float(v))) for v in row] for row in Yp]
    a_abs = [abs(_shifted(row, fm)) for row in Xp]
    c_abs = [abs(_shifted(row, fm)) for row in Yp]
    q_abs = [abs(c) for c in fm.shifted]

    def Q_abs(t):
        acc = Fraction(0)
        for c in reversed(q_abs):
            acc = acc * t + c
        return acc
    return [sum(abs(Fraction(float(wn))) * Q_abs(
        a + 2 * sum(p * q for p, q in zip(x, y)) + c)
        for y, c, wn in zip(ys, c_abs, inst.w)) for x, a in zip(xs, a_abs)]


def test_abs_sum_identity_matches_feature_map():
    # sum_r |Xmat_r(x)| |Ymat_r(y)| over |c_ijk| is
    # P_abs(||x||^2 + 2<|x|,|y|> + ||y||^2), exactly: with p's magnitudes
    # as the polynomial, flipping y's sign turns each (-2)^j into 2^j
    spec = problem(Target.EXP_NEG, 4, "1e-3")
    fm = expand_kernel_poly(export_polynomial(spec, find_degree(spec)), 3)
    x = [Fraction(-3, 8), Fraction(5, 4), Fraction(1, 16)]
    y = [Fraction(7, 8), Fraction(-1, 2), Fraction(-9, 4)]
    ax, ay = [abs(v) for v in x], [abs(v) for v in y]
    p_abs = [abs(c) for c in fm.poly.monomial_form]
    fm_exact = expand_kernel_poly(_synthetic_poly(p_abs), 3)
    t = (sum(v * v for v in ax) + 2 * sum(p * q for p, q in zip(ax, ay))
         + sum(q * q for q in ay))
    assert oracles.reconstruct_feature_value(fm_exact, ax, [-v for v in ay]) \
        == sum(c * t ** k for k, c in enumerate(p_abs))


# eight dyadic coordinates whose float sum of squares rounds below the
# exact one, by 2.3 units in the last place
_ROUNDS_DOWN = np.array([[564775602, 740408105, 731587927, 918716543,
                          812281940, 775146950, 750651847, 915669005]]
                        ) / 2.0 ** 30


@functools.lru_cache(maxsize=None)
def _bound_cases():
    rng = np.random.default_rng(77)
    spec = problem(Target.EXP_NEG, 9, "1e-6")
    poly = export_polynomial(spec, find_degree(spec))
    power = _synthetic_poly([0] * 8 + [1])     # p(t) = t^8
    # far from the origin: centering moves these dyadic points exactly;
    # B = 32 covers their squared distances, at most 2 * 4^2
    far = (1000 + rng.integers(-16, 17, (7, 2)) / 8,
           1000 + rng.integers(-16, 17, (7, 2)) / 8,
           rng.integers(-8, 9, 7) / 8, 32)
    # heavy cancellation in the weights
    cancel = (rng.integers(-8, 9, (6, 2)) / 16,
              rng.integers(-8, 9, (6, 2)) / 16,
              np.array([1.0, -1.0, 1.0 + 2.0 ** -40, -1.0 + 2.0 ** -52,
                        2.0 ** -30, -1.0]), 9)
    # n = 1 with y = -x: |x'| = |y'|, so the folded argument is tight and
    # the box bound has no slack but its rounding; B = 18 covers
    # ||2x||^2 = 17.03
    single = (_ROUNDS_DOWN, -_ROUNDS_DOWN, np.array([-0.75]), 18)
    # criterion 08's shape, m = 8, at a small n
    wide = (rng.integers(-8, 9, (5, 8)) / 16,
            rng.integers(-8, 9, (5, 8)) / 16,
            rng.integers(-8, 9, 5) / 8, 9)
    return tuple((make_instance(X, Y, w, "1e-3", B=B),
                  expand_kernel_poly(p, X.shape[1]))
                 for X, Y, w, B in (far, cancel, single, wide)
                 for p in (poly, power))


def test_shift_slack_covers_the_rounded_norms():
    # the rows evaluate q at a' - 2b + c' + t0 with a', c' rounded, so each
    # pair's argument moves off ||x' - y'||^2 by the rounding of a' plus
    # that of c'; shift_slack beyond the centering term covers the largest
    rng = np.random.default_rng(23)
    X, Y = _box_points(rng, 40, 3, 9)
    inst = make_instance(X, Y, rng.normal(size=40), "1e-6", B=9)
    _, fm = kernel_map(3, 9, "1e-6")
    Xp, Yp = _centered(inst)
    _, shift_slack, _ = kde_mod._budget(*_sides(inst, fm))

    def rounding(P):
        h = Fraction(fm.shift)
        return max(abs(_shifted(row, fm)
                       - (sum(Fraction(float(v)) ** 2 for v in row) - h))
                   for row in P)
    moved = rounding(Xp) + rounding(Yp)
    assert moved > 0
    u = Fraction(_EPS)
    w1 = sum(abs(Fraction(float(v))) for v in inst.w)
    centering = 8 * inst.m * inst.B * u * (1 + 4 * u)
    assert Fraction(shift_slack) >= (centering + moved) * w1
    # a row whose float sum of squares rounds below the exact one: e_a
    # rests on the upward rounding of the largest squared norm
    assert _shifted(_ROUNDS_DOWN[0], fm) + Fraction(fm.shift) \
        < sum(Fraction(float(v)) ** 2 for v in _ROUNDS_DOWN[0])
    _, e_a = kde_mod._norms(_ROUNDS_DOWN, fm)
    assert e_a >= rounding(_ROUNDS_DOWN) > 0


def _lowdim_instance(n=4096, seed=1):
    # the kde-lowdim shape: m = 2, uniform box of side sqrt(2), delta 1e-3
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, math.sqrt(2), (n, 2))
    Y = rng.uniform(0.0, math.sqrt(2), (n, 2))
    return make_instance(X, Y, rng.standard_normal(n), "1e-3")


def _escalate_instance(n=1024, seed=1, delta="1e-12"):
    # the kde-escalate shape: m = 1, side 4 (B ~ 16), delta 1e-12, where
    # the box bound certifies plain doubles; at delta = 2e-13 it misses
    # plain doubles and certifies the compensated rung
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 4.0, (n, 1))
    Y = rng.uniform(0.0, 4.0, (n, 1))
    return make_instance(X, Y, rng.standard_normal(n), delta)


def _ends_instance(n=1024, seed=1):
    # sources near both ends of [-2, 2], queries near its midpoint, and B
    # a bound on the true squared diameter: |a'| reaches about 3B/4 > t0,
    # so at delta = 2e-13 the row level misses plain doubles, while the
    # one-leaf box bound admits the compensated rung
    rng = np.random.default_rng(seed)
    X = (rng.choice([-1.0, 1.0], n) * rng.uniform(1.9, 2.0, n))[:, None]
    Y = rng.uniform(-0.05, 0.05, (n, 1))
    return make_instance(X, Y, rng.standard_normal(n), "2e-13", B="4.25")


def _straddle_instance():
    # eight points per side of one squared norm, 25/64, and two of 9/4; the
    # pooled midrange is 0, so centering moves nothing, and with a few
    # bins the equal norms straddle the bins' edges
    ring = [(0.625, 0.0), (0.0, 0.625), (-0.625, 0.0), (0.0, -0.625),
            (0.375, 0.5), (-0.375, 0.5), (0.5, -0.375), (-0.5, -0.375)]
    X = np.array(ring + [(1.5, 0.0), (-1.5, 0.0)])
    Y = np.array(ring[::-1] + [(0.0, 1.5), (0.0, -1.5)])
    w = np.array([0.5, -1.0, 0.25, 0.75, -0.5, 1.0, -0.25, 0.125, 1.0,
                  -0.75])
    # B = 5 covers the squared distances, at most 2.125^2 = 4.52
    return make_instance(X, Y, w, "1e-3", B=5)


def _triangle_case():
    # an equilateral triangle of side 3 with B = 9 its squared diameter,
    # below the estimate 15.75: the pooled midrange sits off the centroid,
    # so rows near the base corners have ||p'||^2 > t0/2, a positive a'
    rng = np.random.default_rng(41)
    corners = np.array([[0.0, 0.0], [3.0, 0.0], [1.5, 1.5 * math.sqrt(3)]])
    X, Y = (rng.dirichlet(np.ones(3), 20) @ corners for _ in range(2))
    return (make_instance(X, Y, rng.normal(size=20), "1e-3", B=9),
            kernel_map(2, 9, "1e-3")[1])


def _binned_cases():
    # far from the origin, cancelling weights, n = 1 with the folded
    # argument tight, and m = 8 (_bound_cases); the kde-escalate and _ends
    # shapes at small n; an m = 3 box; equal norms across leaf edges; the
    # triangle, whose positive a' the folded argument must cover; a
    # constant kernel; an argument that rounds up, one that rounds down,
    # and one whose rounding only the raised head covers
    yield from _bound_cases()
    for inst in (_escalate_instance(n=24), _ends_instance(n=24)):
        yield inst, kernel_map(inst.m, inst.B, inst.delta)[1]
    rng = np.random.default_rng(31)
    X, Y = _box_points(rng, 24, 3, 9)
    yield (make_instance(X, Y, rng.normal(size=24), "1e-6", B=9),
           kernel_map(3, 9, "1e-6")[1])
    yield _straddle_instance(), kernel_map(2, 5, "1e-3")[1]
    yield _triangle_case()
    # p = 1, so no slack in the arguments moves either bound, and weights
    # whose float sum rounds below max_i A_i = 1 + 2^-54 (the gamma
    # divisors of A_box and of the row level must cover it) or above
    # 1 + 2^-53 + 2^-60
    for w in (2.0 ** -54, 2.0 ** -53 + 2.0 ** -60):
        yield (make_instance([[0.0], [0.5]], [[0.25], [0.0]], [1.0, w],
                             "1e-3", B=1),
               expand_kernel_poly(_synthetic_poly([1]), 1))
    # n = 1 and q(s) = s^16, with ||x||^2 just above t0/2 = 1/4 (the
    # synthetic p's B = 1 sets t0, and B = 2 covers ||2x||^2 = 1.0007):
    # the float sum of squares rounds up by 2.3 u relative, which q
    # amplifies 16-fold; y = -x keeps the centering exact
    x = [float.fromhex(h) for h in ("0x1.068cd738c0d2fp-2",
                                    "0x1.022ef48410d41p-2",
                                    "0x1.1c80936d140e6p-3",
                                    "0x1.ed81fb6f25ee1p-3",
                                    "0x1.ab337e45603ffp-3")]
    yield (make_instance([x], [[-v for v in x]], [1.0], "1e-3", B=2),
           expand_kernel_poly(_synthetic_poly(
               [math.comb(16, k) * Fraction(-1, 2) ** (16 - k)
                for k in range(17)]), 5))
    # the other way: n = 1, q(s) = s^10 and a float sum of squares 2.7 u
    # below the exact one, which q amplifies tenfold
    x = [float.fromhex(h) for h in ("0x1.e4c9c16462136p-3",
                                    "0x1.9da45ad34a55ep-3",
                                    "0x1.abe4e28874868p-3",
                                    "0x1.67c75bdacabf8p-3",
                                    "0x1.897e2225a3834p-5",
                                    "0x1.c348e8a879124p-3",
                                    "0x1.55737cb041dd8p-3")]
    yield (make_instance([x], [[-v for v in x]], [1.0], "1e-3", B=2),
           expand_kernel_poly(_synthetic_poly(
               [math.comb(10, k) * Fraction(-1, 2) ** (10 - k)
                for k in range(11)]), 7))
    # n = 2, q(s) = s^16 and the second weight 0, so that the second pair
    # only moves the centre: the rounded sums of the folded argument fall
    # below the exact one by more than e_a + e_c covers, and q amplifies
    # that past the divisors unless the head is raised (at the nearest
    # double instead, every bound here misses by 1.7 to 2.7 u)
    X, Y = ([[float.fromhex(h)] for h in pair] for pair in (
        ("-0x1.5b8ba43c7a7ecp-1", "0x1.b4e56ed5dd0efp-1"),
        ("-0x1.6716cdad46a48p-4", "0x1.6358461a61519p-3")))
    yield (make_instance(X, Y, [1.0, 0.0], "1e-3", B=1),
           expand_kernel_poly(_synthetic_poly(
               [math.comb(16, k) * Fraction(-1, 2) ** (16 - k)
                for k in range(17)]), 1))


def test_binned_bound_encloses_exact_abs_sum():
    # every case has n <= 24 below _BINS, so each point is its own leaf;
    # 5 and 2 leaves put several points, and equal norms, in one leaf, and
    # one leaf holds every point
    for inst, fm in _binned_cases():
        exact = max(_exact_abs_sums(inst, fm))
        centered, xs, ys = _sides(inst, fm)
        for leaves in (kde_mod._BINS, 5, 2, 1):
            A_box, _ = _binned_abs_bound(centered.X, centered.Y, xs, ys,
                                         centered.w, fm, leaves)
            assert exact <= A_box
    inst, fm = _triangle_case()
    assert (_sides(inst, fm)[1][0] > fm.shift).any()


def test_row_level_encloses_exact_abs_sum():
    # at the limit 0 every leaf is flagged and the first row, largest box
    # sum first, gets the one-point bound against every row of Y; at the
    # exact maximum only the leaves and rows above it are refined, and at
    # A_box none
    for inst, fm in _binned_cases():
        exact = max(_exact_abs_sums(inst, fm))
        centered, xs, ys = _sides(inst, fm)
        for leaves in (kde_mod._BINS, 5, 2, 1):
            A_box, rows = _binned_abs_bound(centered.X, centered.Y, xs, ys,
                                            centered.w, fm, leaves)
            for limit in (Fraction(0), exact, A_box):
                assert exact <= rows(limit)[0]


def _spy_rows(monkeypatch):
    # the name of each row builder called
    calls = []
    for name in ("_x_rows", "_y_rows", "build_feature_matrices"):
        real = getattr(kde_mod, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(kde_mod, name, spy)
    return calls


def _spy_box(monkeypatch):
    # the leaf count of each box bound computed
    leaves = []
    real = kde_mod._binned_abs_bound
    monkeypatch.setattr(kde_mod, "_binned_abs_bound",
                        lambda *args: leaves.append(args[-1]) or real(*args))
    return leaves


def _spy_pair_sums(monkeypatch):
    # the x boxes and y boxes that each call of _pair_sums pairs
    calls = []
    real = kde_mod._pair_sums

    def spy(lo_x, hi_x, a_pos, y_boxes, fm):
        calls.append((len(lo_x), len(y_boxes[3])))
        return real(lo_x, hi_x, a_pos, y_boxes, fm)
    monkeypatch.setattr(kde_mod, "_pair_sums", spy)
    return calls


def _undecided_at_one_leaf(monkeypatch):
    # the one-leaf level certifies no rung, so each goes on to the row
    # level
    real = kde_mod._binned_abs_bound
    monkeypatch.setattr(
        kde_mod, "_binned_abs_bound",
        lambda *args: (Fraction(10 ** 400), None)
        if args[-1] == 1 else real(*args))


def _overflowing(real):
    # the box bound with leaf sums that overflow at every leaf count: the
    # one-leaf level certifies nothing and the row level flags every leaf,
    # whose rows it then bounds with the real sums
    def box(*args):
        with mock.patch.object(kde_mod, "_pair_sums",
                               lambda lo_x, *_: np.full(len(lo_x), np.inf)):
            return real(*args)
    return box


def test_lowdim_shape_certifies_at_one_leaf(monkeypatch):
    # the one-leaf box bound decides the kde-lowdim shape: no row is
    # sorted and the binned bound is never computed
    calls, boxes = _spy_rows(monkeypatch), _spy_box(monkeypatch)
    sorts = []
    argsort = np.argsort
    monkeypatch.setattr(
        np, "argsort", lambda *a, **k: sorts.append(1) or argsort(*a, **k))
    res = solve(_lowdim_instance())
    assert not res.used_high_precision
    assert res.float_bound_source == "a-priori"
    assert calls
    assert boxes == [1] and not sorts


def test_escalate_shape_certifies_from_the_binned_bound(monkeypatch):
    # the one-leaf bound certifies plain doubles on the kde-escalate
    # shape; with that level undecided the binned bound does, and v is
    # bitwise the row level's
    one_leaf = solve(_escalate_instance())
    assert one_leaf.float_bound_source == "a-priori"
    calls = _spy_rows(monkeypatch)
    _undecided_at_one_leaf(monkeypatch)
    res = solve(_escalate_instance())
    assert res.float_bound_source == "binned"
    assert not res.used_high_precision
    assert res.float_error_bound <= 1e-12 / 2
    assert calls
    assert one_leaf.v.tobytes() == res.v.tobytes()
    monkeypatch.setattr(kde_mod, "_binned_abs_bound",
                        _overflowing(kde_mod._binned_abs_bound))
    rows = solve(_escalate_instance())
    assert rows.float_bound_source == "rows"
    assert not rows.used_high_precision
    assert rows.v.tobytes() == res.v.tobytes()
    assert rows.float_error_bound <= res.float_error_bound


def test_escalate_shape_builds_no_plain_rows(monkeypatch):
    # both rungs build the same double rows: when the bounds alone choose
    # the compensated rung, its one pass builds each chunk once and no
    # plain row is built.  On _ends_instance and on the kde-escalate shape
    # at delta = 2e-13 the row level rules plain doubles out, and the
    # one-leaf bound then certifies the compensated rung.  The row level
    # gives plain doubles up within its first two chunks: after the call
    # that pairs the leaves, each call boxes at most 2 rows
    for inst, leaves in ((_ends_instance(), [1, kde_mod._BINS]),
                         (_escalate_instance(delta="2e-13"),
                          [1, kde_mod._BINS])):
        _, fm = kernel_map(inst.m, inst.B, inst.delta)
        calls, boxes = _spy_rows(monkeypatch), _spy_box(monkeypatch)
        pairs = _spy_pair_sums(monkeypatch)
        res = kde_matvec(inst, fm)
        assert res.used_high_precision
        assert res.float_bound_source == "a-priori"
        assert boxes == leaves
        binned = [x for x, y in pairs if y == kde_mod._BINS]
        assert binned[0] == kde_mod._BINS and len(binned) > 1
        assert max(binned[1:]) <= 2
        chunks = kde_mod._chunks(inst.n, fm.rank, kde_mod._DD_CHUNK_BYTES)
        assert calls.count("build_feature_matrices") == 2 * len(chunks)
        assert res.elapsed_build == 0
        assert res.float_error_bound <= 2e-13 / 2


def test_a_priori_paths_match_the_row_level(monkeypatch):
    # with box bounds that overflow at both resolutions, the row level
    # picks the precision; v and the precision must not depend on which
    # bound did
    cases = [(_lowdim_instance(), False), (_ends_instance(), True)]
    fms = [kernel_map(inst.m, inst.B, inst.delta)[1] for inst, _ in cases]
    fast = [kde_matvec(inst, fm) for (inst, _), fm in zip(cases, fms)]
    monkeypatch.setattr(kde_mod, "_binned_abs_bound",
                        _overflowing(kde_mod._binned_abs_bound))
    for (inst, high), fm, a in zip(cases, fms, fast):
        b = kde_matvec(inst, fm)
        assert a.float_bound_source == "a-priori"
        assert b.float_bound_source == "rows"
        assert a.used_high_precision is b.used_high_precision is high
        assert a.v.tobytes() == b.v.tobytes()
        assert b.float_error_bound <= a.float_error_bound


def test_a_priori_paths_match_the_box_path(monkeypatch):
    # with a one-leaf level that decides nothing, the binned bound picks
    # the precision; v and the precision must not depend on which bound
    # did
    cases = [(_lowdim_instance(), False), (_ends_instance(), True)]
    fms = [kernel_map(inst.m, inst.B, inst.delta)[1] for inst, _ in cases]
    fast = [kde_matvec(inst, fm) for (inst, _), fm in zip(cases, fms)]
    _undecided_at_one_leaf(monkeypatch)
    for (inst, high), fm, a in zip(cases, fms, fast):
        b = kde_matvec(inst, fm)
        assert a.float_bound_source == "a-priori"
        assert b.float_bound_source == "binned"
        assert a.used_high_precision is b.used_high_precision is high
        assert a.v.tobytes() == b.v.tobytes()
        assert b.float_error_bound <= a.float_error_bound


def test_row_level_bound_is_rounded_up(monkeypatch):
    # on the row level the reported bound is at least the exact
    # g max_i A_i + shift_slack over w_lo, with g the rung's coefficient
    # and max_i A_i from the exact oracle
    monkeypatch.setattr(kde_mod, "_binned_abs_bound",
                        _overflowing(kde_mod._binned_abs_bound))
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 40)), int(rng.integers(1, 3))
        inst = make_instance(rng.uniform(0, 1.2, (n, m)),
                             rng.uniform(0, 1.2, (n, m)),
                             rng.standard_normal(n), "1e-3")
        _, fm = kernel_map(inst.m, inst.B, inst.delta)
        centered, xs, ys = _sides(inst, fm)
        abs_max = max(_exact_abs_sums(inst, fm))
        _, shift_slack, w_lo = kde_mod._budget(centered, xs, ys)
        N = gamma_ops(inst.n, fm)
        sums = inst.n + fm.rank
        u = Fraction(_EPS)
        # plain: gamma_N at u; compensated: gamma_{2d+9} at u for the rows
        # and the final rounding, gamma_{2(n+R)} at 2^-104 for the sums
        for force, g in (("plain", _gamma(N, u)),
                         ("high", _gamma(2 * fm.d + 9, u) + _gamma(
                             2 * sums, Fraction(kde_mod._EPS_DD)))):
            res = kde_matvec(inst, fm, force=force)
            assert res.float_bound_source == "rows"
            exact = g * abs_max + Fraction(shift_slack)
            assert Fraction(res.float_error_bound) >= exact / w_lo


def test_box_bound_is_rounded_up(monkeypatch):
    # on the box path the reported bound is at least the exact
    # (g A_box + shift_slack) / w_lo, with g the rung's coefficient
    real = kde_mod._binned_abs_bound
    _undecided_at_one_leaf(monkeypatch)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 40)), int(rng.integers(1, 3))
        inst = make_instance(rng.uniform(0, 1.2, (n, m)),
                             rng.uniform(0, 1.2, (n, m)),
                             rng.standard_normal(n), "1e-3")
        _, fm = kernel_map(inst.m, inst.B, inst.delta)
        centered, xs, ys = _sides(inst, fm)
        A_box, _ = real(centered.X, centered.Y, xs, ys, centered.w, fm,
                        kde_mod._BINS)
        _, shift_slack, w_lo = kde_mod._budget(centered, xs, ys)
        N = gamma_ops(inst.n, fm)
        sums = inst.n + fm.rank
        u = Fraction(_EPS)
        # plain: gamma_N at u; compensated: gamma_{2d+9} at u for the rows
        # and the final rounding, gamma_{2(n+R)} at 2^-104 for the sums
        for force, g in (("plain", _gamma(N, u)),
                         ("high", _gamma(2 * fm.d + 9, u) + _gamma(
                             2 * sums, Fraction(kde_mod._EPS_DD)))):
            res = kde_matvec(inst, fm, force=force)
            assert res.float_bound_source == "binned"
            exact = g * A_box + Fraction(shift_slack)
            assert Fraction(res.float_error_bound) >= exact / w_lo


def _wide_instance(n, seed, diameter_sq=249):
    # m = 2, delta = 1e-3 in a box of the given squared diameter; at 249
    # the norm-binned bound missed both rungs
    rng = np.random.default_rng(seed)
    side = math.sqrt(diameter_sq / 2)
    X = rng.uniform(0.0, side, (n, 2))
    Y = rng.uniform(0.0, side, (n, 2))
    return make_instance(X, Y, rng.standard_normal(n), "1e-3")


def _assert_wide_solve(inst, source):
    res = solve(inst)
    assert res.float_bound_source == source
    assert res.used_high_precision
    assert res.float_error_bound <= 1e-3 / 2
    gap = float(np.abs(res.v - kde_bruteforce(inst)).max())
    assert gap <= 1e-3 * float(np.abs(inst.w).sum())


def test_wide_box_certifies_the_compensated_rung():
    # at n = 76 each row is its own leaf; at n = 256 each leaf holds two
    for n, seed in ((76, 3), (256, 1)):
        _assert_wide_solve(_wide_instance(n, seed), "binned")


def test_row_level_certifies_past_the_box_bound():
    # at squared diameter 255 (B estimated 253.2) the box bound misses the
    # compensated budget; the row level certifies it, at 0.93 of the
    # budget
    _assert_wide_solve(_wide_instance(196, 1, diameter_sq=255), "rows")


def test_concentric_shells_certify_through_the_row_level():
    # X on the sphere of radius 2 and Y on radius 0.6 at m = 3, B the true
    # squared diameter: the folded argument ignores the radial gap, so
    # both box levels miss the compensated rung, and the row level
    # certifies it
    rng = np.random.default_rng(1)
    g = rng.standard_normal((2, 1024, 3))
    X = 2.0 * g[0] / np.linalg.norm(g[0], axis=1, keepdims=True)
    Y = 0.6 * g[1] / np.linalg.norm(g[1], axis=1, keepdims=True)
    inst = make_instance(X, Y, rng.standard_normal(1024), "2e-13", B="6.76")
    res = solve(inst)
    assert res.used_high_precision
    assert res.float_bound_source == "rows"
    assert res.float_error_bound <= 2e-13 / 2
    gap = float(np.abs(res.v - kde_bruteforce(inst)).max())
    assert gap <= 2e-13 * float(np.abs(inst.w).sum())


def test_make_instance_refuses_B_below_the_cross_range():
    # in one dimension the bound is the exact squared x-y diameter
    with pytest.raises(DomainError):
        make_instance([[3.0]], [[-3.0]], [1.0], "1e-3", B=1)
    with pytest.raises(DomainError):
        make_instance([[3.0]], [[-3.0]], [1.0], "1e-3",
                      B=Fraction(36) - Fraction(1, 10 ** 30))
    assert make_instance([[3.0]], [[-3.0]], [1.0], "1e-3", B=36).B == 36
    # in two, the largest coordinate's range gives 9 and the far pair the
    # true 18
    X, Y = [[0.0, 0.0]], [[3.0, 3.0]]
    for B in ("8.999", 9, 10, "17.999"):
        with pytest.raises(DomainError):
            make_instance(X, Y, [1.0], "1e-3", B=B)
    assert make_instance(X, Y, [1.0], "1e-3", B=18).B == 18
    # the check follows the clamp to 1: here the bound is 1
    assert make_instance([[0.0]], [[1.0]], [1.0], "1e-3", B="0.5").B == 1


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
    # the problem kernel_map certifies: exp(-z) at delta/2
    spec = problem(Target.EXP_NEG, repr(0.3 * math.log(n)),
                   Fraction(repr(n ** -1.0)) / 2)
    assert cm.degree == find_degree(spec).D_upper == 15


def test_cost_model_validation():
    with pytest.raises(DomainError):
        cost_model(2 ** 20, 1.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        cost_model(2 ** 20, 1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        cost_model(2 ** 20, -1.0, 1.0, 1e-3)
    with pytest.raises(DomainError):
        cost_model(2, 1.0, 1.0, 1e-3)


# ---------------------------------------------------------------------------
# the float budget, the enclosure on both precisions, the double-double sum


def test_float_budget_stays_below_exact_half_delta():
    # fl(sum |w|) rounds above the exact 1 + 2^-53 + 2^-105 and
    # float(1/1000) > 1/1000, so float(delta) / 2 * fl(sum |w|) would
    # overshoot delta/2 ||w||_1
    w = np.array([1.0, 2.0 ** -53 * (1 + 2.0 ** -52)])
    delta = Fraction(1, 1000)
    inst = make_instance([[0.0], [0.5]], [[0.25], [0.0]], w, delta, B=1)
    w1 = sum(Fraction(float(x)) for x in w)
    exact = delta / 2 * w1
    assert Fraction(float(delta) / 2 * float(w.sum())) > exact
    _, fm = kernel_map(inst.m, inst.B, delta)
    budget, shift_slack, w_lo = kde_mod._budget(*_sides(inst, fm))
    assert Fraction(budget) <= exact
    assert w_lo <= w1
    u = Fraction(_EPS)
    assert Fraction(shift_slack) >= 8 * inst.m * inst.B * u * (1 + 4 * u) * w1
    assert not kde_matvec(inst, fm).used_high_precision


def test_weights_at_the_edge_of_the_double_range():
    # a float ||w||_1 past the double range is refused, as squared norms
    # past it are
    for n, weight in ((64, 1e307), (4096, 1e305)):
        inst = make_instance(np.zeros((n, 1)), np.zeros((n, 1)),
                             np.full(n, weight), "1e-3")
        with pytest.raises(DomainError):
            solve(inst)
    # ||w||_1 = 1.7e308 still certifies plain doubles at one leaf
    rng = np.random.default_rng(1)
    X, Y = rng.uniform(0.0, 1.0, (2, 256, 1))
    w = rng.choice([-1.0, 1.0], 256) * (1.7e308 / 256)
    inst = make_instance(X, Y, w, "1e-3")
    res = solve(inst)
    assert res.float_bound_source == "a-priori"
    assert not res.used_high_precision
    assert res.float_error_bound <= 1e-3 / 2
    gap = float(np.abs(res.v - kde_bruteforce(inst)).max())
    assert gap <= 1e-3 * 1.7e308


@functools.lru_cache(maxsize=None)
def _property_map(m):
    spec = problem(Target.EXP_NEG, 9, "1e-6")
    return expand_kernel_poly(export_polynomial(spec, find_degree(spec)), m)


@st.composite
def _dyadic_instances(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    coords = st.lists(st.integers(-48, 48), min_size=n * m, max_size=n * m)
    # far from the origin the centering still moves these points exactly
    offset = draw(st.sampled_from([0.0, 1024.0, 2.0 ** 20 + 0.5]))
    X = offset + np.array(draw(coords), dtype=float).reshape(n, m) / 64
    Y = offset + np.array(draw(coords), dtype=float).reshape(n, m) / 64
    w = np.array(draw(st.lists(st.integers(-32, 32), min_size=n,
                               max_size=n)), dtype=float) / 32
    if n > 1 and draw(st.booleans()):
        w[-1] = -w[:-1].sum()    # weights that cancel exactly
    return X, Y, w


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(_dyadic_instances())
def test_float_bound_encloses_exact_sum_on_both_precisions(case):
    X, Y, w = case
    m = X.shape[1]
    fm = _property_map(m)
    inst = make_instance(X, Y, w, "1e-6", B=9)
    xs = [[Fraction(v) for v in row] for row in X]
    ys = [[Fraction(v) for v in row] for row in Y]
    exact = [sum(Fraction(wj) * oracles.kernel_poly_value(
        fm.poly.monomial_form, x, y) for y, wj in zip(ys, w)) for x in xs]
    w1 = sum(abs(Fraction(wj)) for wj in w)
    undecided = (Fraction(10 ** 400), None)
    real = kde_mod._binned_abs_bound
    results = [kde_matvec(inst, fm), kde_matvec(inst, fm, force="high")]
    with mock.patch.object(kde_mod, "_binned_abs_bound",
                           lambda *args: undecided if args[-1] == 1
                           else real(*args)):
        results += [kde_matvec(inst, fm), kde_matvec(inst, fm, force="high")]
        with mock.patch.object(kde_mod, "_binned_abs_bound",
                               _overflowing(real)):
            results += [kde_matvec(inst, fm),
                        kde_matvec(inst, fm, force="high")]
    assert {r.float_bound_source for r in results[2:4]} == {"binned"}
    assert {r.float_bound_source for r in results[4:]} == {"rows"}
    for res in results:
        gap = max(abs(Fraction(float(v)) - e) for v, e in zip(res.v, exact))
        assert gap <= Fraction(res.float_error_bound) * w1


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(_dyadic_instances())
def test_each_rung_meets_its_rounding_count_per_row(case):
    # the module docstring's count for one term's path: n + R + 2d + 6
    # roundings on the plain rung; 2d + 6 at u and 2 (n + R) + 1 units of
    # 2^-104 on the compensated one.  Each row's gap to the exact sum is
    # within that coefficient times its own A_i, plus shift_slack
    X, Y, w = case
    fm = _property_map(X.shape[1])
    inst = make_instance(X, Y, w, "1e-6", B=9)
    xs = [[Fraction(v) for v in row] for row in X]
    ys = [[Fraction(v) for v in row] for row in Y]
    exact = [sum(Fraction(wj) * oracles.kernel_poly_value(
        fm.poly.monomial_form, x, y) for y, wj in zip(ys, w)) for x in xs]
    A = _exact_abs_sums(inst, fm)
    centered, xn, yn = _sides(inst, fm)
    slack = Fraction(kde_mod._budget(centered, xn, yn)[1])
    u, sums = Fraction(_EPS), inst.n + fm.rank
    for v, g in ((kde_mod._matvec_plain(centered, fm)[0],
                  _gamma(sums + 2 * fm.d + 6, u)),
                 (kde_mod._matvec_dd(centered, fm),
                  _gamma(2 * fm.d + 6, u)
                  + _gamma(2 * sums + 1, Fraction(kde_mod._EPS_DD)))):
        for vi, e, a in zip(v.tolist(), exact, A):
            assert abs(Fraction(vi) - e) <= g * a + slack


@pytest.mark.parametrize("rows", [1, 2, 3, 7, 8, 9])
def test_dd_sum_tree_matches_exact_sum(rows):
    # positive double-double rows over sixty binades; an odd count carries
    # its middle row up a level
    rng = np.random.default_rng(rows)
    hi = rng.uniform(0.5, 1.0, (rows, 3)) * 2.0 ** rng.integers(-30, 30,
                                                                (rows, 3))
    lo = hi * rng.uniform(-1.0, 1.0, (rows, 3)) * 2.0 ** -54
    want = [sum(Fraction(float(h)) + Fraction(float(l))
                for h, l in zip(hi[:, c], lo[:, c])) for c in range(3)]
    sh, sl = _dd_sum_tree(hi.copy(), lo.copy())
    for c in range(3):
        got = Fraction(float(sh[c])) + Fraction(float(sl[c]))
        assert abs(got - want[c]) <= want[c] / 2 ** 100
