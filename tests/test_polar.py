import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import (conditioned_qmatrix, inner, gaussian_qmatrix,
                     matmul_oracle, record_kernel_inputs, record_svd_inputs,
                     trial_rng)
from qpolar import (BadPerturbation, NotPositive,
                    NotStrictlyPositive, QMatrix, Quaternion,
                    canonical_perturbation, chi, chi_pullback,
                    classify, equivalence_suite, modulus,
                    null_range_bases, null_swap_perturbation, operator_norm,
                    perturb_polar, polar_decompose, quaternionic_rank,
                    sqrt_positive_spectral, sqrt_positive_composite,
                    sqrt_strictly_positive,
                    weight_matrix, z_inverse, z_transform)
from qpolar import ckernel, parse_qmat, random_ops
from qpolar.qlinalg import _svd_bases
from qpolar.quaternion import I, J, K
from qpolar.rng import SplitMix64


def test_sqrt_spectral_examples():
    eye = QMatrix.identity(3)
    assert (sqrt_positive_spectral(eye) - eye).frobenius_norm() < 1e-12
    r = sqrt_positive_spectral(QMatrix.diag([4.0, 9.0]))
    assert (r - QMatrix.diag([2.0, 3.0])).frobenius_norm() < 1e-12


def test_sqrt_spectral_squares_back():
    rr = trial_rng(50)
    for _ in range(10):
        p = random_ops.psd(rr, 4)
        r = sqrt_positive_spectral(p)
        assert (r @ r - p).frobenius_norm() <= 1e-8 * max(1.0, p.frobenius_norm())
        assert classify(r).positive
        assert (r @ p - p @ r).frobenius_norm() \
            <= 1e-9 * max(1.0, p.frobenius_norm())


def test_sqrt_rejects_non_positive():
    with pytest.raises(NotPositive):
        sqrt_positive_spectral(QMatrix.diag([J]))
    with pytest.raises(NotPositive):
        sqrt_positive_composite(QMatrix.diag([-1.0]))
    with pytest.raises(NotStrictlyPositive):
        sqrt_strictly_positive(QMatrix.diag([1.0, 0.0]), 0.5)
    with pytest.raises(ValueError):
        sqrt_strictly_positive(QMatrix.identity(2), 0.0)


def test_sqrt_composite_hand_values():
    eye = QMatrix.identity(2)
    assert (sqrt_positive_composite(eye) - eye).frobenius_norm() < 1e-10
    # scalar 3: s = 3/4, c = 2, sqrt(3/4) * 2 = sqrt(3)
    r = sqrt_positive_composite(QMatrix.diag([3.0]))
    assert abs(r.entry(0, 0).w - math.sqrt(3.0)) < 1e-10


def test_sqrt_strictly_positive_hand_values():
    r = sqrt_strictly_positive(QMatrix.diag([4.0]), 1.0)
    assert abs(r.entry(0, 0).w - 2.0) < 1e-10
    eye = QMatrix.identity(2)
    assert (sqrt_strictly_positive(eye, 0.5) - eye).frobenius_norm() < 1e-10


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [-600, -200, 200, 600])
def test_sqrt_strictly_positive_any_scale(k):
    # the Gauss-Jordan inverses and the pullback's block residual are
    # scale-invariant, so a well-conditioned 2**k P keeps its root
    p = random_ops.psd(SplitMix64(3), 4) + QMatrix.identity(4)
    want = sqrt_positive_spectral(p)
    got = sqrt_strictly_positive(p * 2.0 ** k, 2.0 ** (k - 1))
    assert ((got * 2.0 ** (-k // 2) - want).frobenius_norm()
            < 1e-12 * want.frobenius_norm())


def test_sqrt_routes_agree():
    rr = trial_rng(51)
    for _ in range(10):
        p = random_ops.psd(rr, 5)
        spectral = sqrt_positive_spectral(p)
        composite = sqrt_positive_composite(p)
        assert (composite - spectral).frobenius_norm() < 1e-7
        pd = p + QMatrix.identity(5)
        spectral_pd = sqrt_positive_spectral(pd)
        strict = sqrt_strictly_positive(pd, 1.0)
        composite_pd = sqrt_positive_composite(pd)
        assert (strict - spectral_pd).frobenius_norm() < 1e-7
        assert (composite_pd - spectral_pd).frobenius_norm() < 1e-7


@pytest.mark.parametrize("k", [-20, -40])
def test_sqrt_composite_roots_small_singular_input(k):
    # S is singular with N(S) = N(P), and its norm is about ||P||: the
    # clamp admits the rounding of its null part at any small scale
    g = random_ops.rank_deficient(SplitMix64(1), 5, 3)
    p = (g.adjoint() @ g) * 2.0 ** k
    spectral = sqrt_positive_spectral(p)
    composite = sqrt_positive_composite(p)
    assert (composite - spectral).frobenius_norm() < 1e-7


@pytest.mark.parametrize("k", [0, -20, -40])
def test_sqrt_composite_relative_accuracy_on_small_input(k):
    # S = (I+P)^-1 P is a product, so it keeps the relative accuracy of P;
    # I - (I+P)^-1 rounded it to about n eps absolutely, and the composite
    # root lost half its digits at 2**-40 (9.5e-9 on a root of 4.3e-6)
    g = random_ops.rank_deficient(SplitMix64(1), 5, 3)
    p = (g.adjoint() @ g) * 2.0 ** k
    spectral = sqrt_positive_spectral(p)
    composite = sqrt_positive_composite(p)
    assert ((composite - spectral).frobenius_norm()
            <= 1e-12 * spectral.frobenius_norm())


def test_sqrt_spectral_roots_the_positive_part():
    # a negative part admitted within SQRT_TOL is left out of the root,
    # which roots H+, not |H|: r^2 misses p by the negative part, where a
    # root of |H| would miss it by twice that, 1e-8, at the report's gate
    p = QMatrix.diag([1.0, -5e-9])
    r = sqrt_positive_spectral(p)
    assert not r.p[:, 1, 1].any() and r.a1[0, 0] == 1.0
    assert (r @ r - p).frobenius_norm() == pytest.approx(5e-9, rel=1e-12)
    # the same in a quaternion eigenbasis: r squares to H+
    u = random_ops.unitary(SplitMix64(7), 3)
    h = u @ QMatrix.diag([2.0, 1.0, -4e-9]) @ u.adjoint()
    h = 0.5 * (h + h.adjoint())
    r = sqrt_positive_spectral(h)
    assert abs((r @ r - h).frobenius_norm() - 4e-9) <= 1e-13


@pytest.mark.parametrize("seed", range(5))
def test_sqrt_spectral_roots_the_positive_part_on_a_tied_cluster(seed):
    # eigenvalues +-1e-10 tie in the singular values, and the SVD may
    # return any basis of the cluster: a sign read per singular vector
    # roots neither H+ nor |H| there (r^2 missed H+ by 5e-11 to 6e-11),
    # the projector (I + V* U) / 2, which the root applies as
    # V (I + V* U) / 2 = (U + V) / 2, roots H+
    w = random_ops.unitary(SplitMix64(seed), 3)
    h = w @ QMatrix.diag([1.0, 1e-10, -1e-10]) @ w.adjoint()
    h_plus = w @ QMatrix.diag([1.0, 1e-10, 0.0]) @ w.adjoint()
    r = sqrt_positive_spectral(h)
    assert (r @ r - h_plus).frobenius_norm() <= 1e-13


def test_sqrt_routes_agree_on_nearly_hermitian_input(monkeypatch):
    # a self-adjoint residual of 1e-10 passes the 1e-8 positivity test, far
    # above what psd_sqrt accepts as Hermitian: the spectral root is the
    # root of p's Hermitian part, from the one SVD of positivity
    w = random_ops.anti_self_adjoint(SplitMix64(6), 4)
    p = random_ops.psd(SplitMix64(5), 4) + w * (1e-10 / w.frobenius_norm())
    # classify a copy: p itself has not been factored yet, so the spectral
    # route takes exactly one SVD
    assert classify(p.copy(), 1e-8).positive
    inputs = record_svd_inputs(monkeypatch)
    spectral = sqrt_positive_spectral(p)
    assert len(inputs) == 1
    assert np.array_equal(inputs[0], 0.5 * (p.p + ckernel._qadj(p.p)))
    composite = sqrt_positive_composite(p)
    assert (composite - spectral).frobenius_norm() < 1e-7
    assert (spectral @ spectral - 0.5 * (p + p.adjoint())).frobenius_norm() \
        <= 1e-12 * p.frobenius_norm()


def test_sqrt_routes_take_no_svd_on_psd_input(monkeypatch):
    # positivity of a PSD input reads one SVD, of its Hermitian part, and
    # no route takes a second one of it, nor any eigensolve
    p = random_ops.psd(trial_rng(53), 5)
    pd = p + QMatrix.identity(5)
    inputs = record_svd_inputs(monkeypatch)
    eig_inputs = record_kernel_inputs(monkeypatch, "hermitian_eig")
    sqrt_positive_spectral(p)
    assert len(inputs) == 1
    sqrt_positive_composite(p)
    sqrt_strictly_positive(pd, 1.0)
    for x in (p.p, pd.p):
        hermitian_part = 0.5 * (x + ckernel._qadj(x))
        assert sum(np.array_equal(y, hermitian_part) for y in inputs) == 1
    assert eig_inputs == []


def test_sqrt_strictly_positive_one_eigensolve_of_hermitian_part(monkeypatch):
    # the lower bound s[-1] - ||H - |H|||_F is read from the one SVD of
    # the Hermitian part, pd itself, and is certified: it admits a bound
    # just below the lowest eigenvalue numpy finds, and refuses one above
    pd = random_ops.psd(trial_rng(54), 5) + QMatrix.identity(5)
    x = np.stack([pd.a1, pd.a2])
    hermitian_part = 0.5 * (x + ckernel._qadj(x))
    inputs = record_svd_inputs(monkeypatch)
    sqrt_strictly_positive(pd, 1.0)
    assert sum(np.array_equal(x, hermitian_part) for x in inputs) == 1
    lam_min = np.linalg.eigvalsh(chi(pd))[0]
    sqrt_strictly_positive(pd, lam_min * (1.0 - 1e-12))
    for bound in (lam_min * (1.0 + 1e-9), 1e3):
        with pytest.raises(NotStrictlyPositive):
            sqrt_strictly_positive(pd, bound)


def test_sqrt_commutant_property():
    rr = trial_rng(52)
    for _ in range(10):
        p = random_ops.psd(rr, 4)
        c0, c1, c2 = (rr.uniform(-1, 1) for _ in range(3))
        b = (QMatrix.identity(4) * c0 + p * c1 + (p @ p) * c2)
        assert (b @ p - p @ b).frobenius_norm() < 1e-11 * max(1.0, p.frobenius_norm()) ** 2
        r = sqrt_positive_spectral(p)
        assert (b @ r - r @ b).frobenius_norm() \
            <= 1e-8 * max(1.0, b.frobenius_norm() * r.frobenius_norm())


def test_modulus_examples():
    assert (modulus(QMatrix.diag([J]))
            - QMatrix.identity(1)).frobenius_norm() < 1e-12
    rr = trial_rng(53)
    w = random_ops.unitary(rr, 4)
    assert (modulus(w) - QMatrix.identity(4)).frobenius_norm() < 1e-10
    t = random_ops.rand_qmatrix(rr, 4)
    m = modulus(t)
    for _ in range(20):
        x = random_ops.rand_qvector(rr, 4)
        tx = (t @ x).frobenius_norm()
        assert abs((m @ x).frobenius_norm() - tx) <= 1e-9 * max(1.0, tx)


def test_modulus_weight_matrix_against_diagonal_oracle():
    # A* A is diagonal here, so the modulus is the entrywise square root:
    # brute-force oracle via Hamilton-entrywise multiplication
    a = weight_matrix(10)
    gram = matmul_oracle(a.adjoint(), a)
    expected = QMatrix.diag([math.sqrt(gram.entry(k, k).w) for k in range(10)])
    assert (modulus(a) - expected).frobenius_norm() < 1e-10


def _certificate_cases():
    g = np.random.default_rng(57)
    for n in range(1, 33):
        yield f"gaussian n={n}", gaussian_qmatrix(g, n)
    for n in (16, 32, 48):
        for cond in (1e4, 1e8, 1e12):
            yield f"cond {cond:.0e} n={n}", conditioned_qmatrix(0, n, cond)
    t = random_ops.rank_deficient(SplitMix64(1), 8, 4)
    for e in (-996, -664, -565, -332, 0, 332, 531, 996):
        yield f"rank 4 of 8 times 2**{e}", t * 2.0 ** e
    for path in sorted((Path(__file__).parent / "data").glob("*.qmat")):
        yield path.name, parse_qmat(path.read_text(encoding="utf-8"))
    yield "zero n=5", QMatrix.zeros(5)


def test_abs_positivity_certificate_matches_eigensolve(monkeypatch):
    # at every rank the certificate delta, read from the SVD of T, bounds
    # the lowest eigenvalue of |T| that numpy's eigensolve finds, and stays
    # within 1e-12 of ||T||
    eig_inputs = record_kernel_inputs(monkeypatch, "hermitian_eig")
    for name, t in _certificate_cases():
        f = polar_decompose(t)
        delta, positive = f.abs_positivity()
        assert eig_inputs == [], name
        assert positive and delta <= 1e-12 * f.fac.sigma_max, name
        assert delta >= -np.linalg.eigvalsh(chi(f.abs_t))[0], name


def test_abs_positivity_rank_deficient_takes_the_eigensolve(monkeypatch):
    # below full rank the certificate takes no factorization; the SVD of
    # classify(abs_t), taken here to check it, gives the same verdict
    # and a residual no larger than the certificate's, and both bound the
    # negative part numpy's eigensolve finds, to its rounding
    rr = trial_rng(58)
    for n, rank in ((4, 2), (8, 4), (8, 7)):
        f = polar_decompose(random_ops.rank_deficient(rr, n, rank))
        inputs = record_svd_inputs(monkeypatch)
        certified = f.abs_positivity()
        assert inputs == []
        oc = classify(f.abs_t)
        solved = oc.residuals["positive"], oc.positive
        assert len(inputs) == 1 and np.array_equal(inputs[0], f.abs_t.p)
        monkeypatch.undo()
        assert certified[1] and solved[1]
        assert solved[0] <= certified[0]
        lam = np.linalg.eigvalsh(chi(f.abs_t))
        assert -lam[0] <= certified[0]
        negative_part = np.linalg.norm(np.minimum(lam, 0.0)) / np.sqrt(2.0)
        assert negative_part <= solved[0] + 1e-15 * f.fac.sigma_max


def test_abs_positivity_needs_v_near_unitary():
    # delta is bounded only for eta = ||I - V* V|| < 1; from eta = 1/2 on
    # the certificate reports no bound, and a finite delta far above the
    # rounding of the SVD reports not positive
    f = polar_decompose(gaussian_qmatrix(np.random.default_rng(59), 4))
    u, s, v = f.fac.u, f.fac.s, f.fac.v
    for scale, bounded in ((1.01, True), (1.2, False)):
        fac = ckernel.Factorization(f.fac.p)
        fac._svd = (u, s, scale * v)
        residual, positive = dataclasses.replace(f, fac=fac).abs_positivity()
        assert not positive
        assert math.isfinite(residual) == bounded


def test_polar_decompose_invertible():
    rr = trial_rng(54)
    t = random_ops.rand_qmatrix(rr, 4) + QMatrix.identity(4) * 3.0
    f = polar_decompose(t)
    assert f.unique and f.null_rank == 0 and f.corange_rank == 0
    assert classify(f.u0).unitary
    assert (f.u0 @ f.abs_t - t).frobenius_norm() \
        <= 1e-9 * max(1.0, t.frobenius_norm())


def test_polar_decompose_diag_example():
    t = QMatrix.diag([J, Quaternion(0)])
    f = polar_decompose(t)
    assert (f.u0 - t).frobenius_norm() < 1e-12
    assert (f.abs_t - QMatrix.diag([1.0, 0.0])).frobenius_norm() < 1e-12
    assert not f.unique and f.null_rank == 1 and f.corange_rank == 1


def test_polar_decompose_weight_matrix():
    a = weight_matrix(10)
    f = polar_decompose(a)
    u0 = f.u0

    def e(k):
        return QMatrix.identity(10).column(k - 1)

    assert (u0 @ e(1) - e(2)).frobenius_norm() < 1e-10
    assert (u0 @ e(2) - e(4)).frobenius_norm() < 1e-10
    for k in (3, 4, 5):
        assert (u0 @ e(k)).frobenius_norm() < 1e-10
    for k in range(6, 11):
        assert (u0 @ e(k) - e(k)).frobenius_norm() < 1e-10
    assert f.null_rank == 3 and f.corange_rank == 3 and not f.unique


def test_polar_native_formula_crosscheck():
    # u0 equals T pinv(|T|) with the pseudoinverse taken by an
    # independent solver on the block image
    rr = trial_rng(55)
    for _ in range(10):
        n = 2 + rr.randint(5)
        rank = 1 + rr.randint(n)
        t = (random_ops.rand_qmatrix(rr, n) if rank == n
             else random_ops.rank_deficient(rr, n, rank))
        f = polar_decompose(t)
        pinv_abs = chi_pullback(np.linalg.pinv(chi(f.abs_t)), 1e-6)
        native = t @ pinv_abs
        assert (native - f.u0).frobenius_norm() < 1e-8


def test_polar_invariants_random():
    rr = trial_rng(56)
    for _ in range(60):
        n = 1 + rr.randint(8)
        rank = rr.randint(n + 1)
        t = (random_ops.rand_qmatrix(rr, n) if rank == n
             else random_ops.rank_deficient(rr, n, rank))
        f = polar_decompose(t)
        scale = max(1.0, t.frobenius_norm())
        u0, p = f.u0, f.abs_t
        u0s = u0.adjoint()
        assert (u0 @ p - t).frobenius_norm() <= 1e-9 * scale
        assert (u0s @ u0 @ p - p).frobenius_norm() <= 1e-9 * scale
        assert (u0s @ t - p).frobenius_norm() <= 1e-9 * scale
        assert (u0 @ u0s @ t - t).frobenius_norm() <= 1e-9 * scale
        assert classify(p).positive
        assert classify(u0).partial_isometry
        assert quaternionic_rank(u0) == quaternionic_rank(t)
        null_t, _ = null_range_bases(t)
        assert null_t.shape == (n, f.null_rank) and f.null_rank == n - rank
        for k in range(f.null_rank):
            assert (u0 @ null_t.column(k)).frobenius_norm() <= 1e-9 * scale
        # mutual annihilation the other way round
        null_u, _ = null_range_bases(u0)
        for k in range(null_u.shape[1]):
            assert (t @ null_u.column(k)).frobenius_norm() <= 1e-8 * scale


def _structure_residuals(t: QMatrix) -> dict:
    """Residuals of the structure U0 inherits from T, for each class T has.

    Self-adjoint or anti-self-adjoint T: so is U0. Normal T: U0 is normal,
    commutes with |T|, and maps R(T) isometrically into R(T).
    """
    f = polar_decompose(t)
    oc, u0 = classify(t), f.u0
    u0s = u0.adjoint()
    out = {}
    if oc.self_adjoint:
        out["self_adjoint"] = (u0 - u0s).frobenius_norm()
    if oc.anti_self_adjoint:
        out["anti_self_adjoint"] = (u0 + u0s).frobenius_norm()
    if oc.normal:
        out["normal"] = (u0 @ u0s - u0s @ u0).frobenius_norm()
        out["commutes_abs_t"] = (u0 @ f.abs_t - f.abs_t @ u0).frobenius_norm()
        r = null_range_bases(t)[1]
        images = u0 @ r
        gram = images.adjoint() @ images - QMatrix.identity(r.shape[1])
        leak = images - r @ (r.adjoint() @ images)
        out["unitary_on_range"] = max(gram.frobenius_norm(),
                                      leak.frobenius_norm())
    return out


def test_structure_transfer_anti_diag():
    t = QMatrix.diag([I, K])
    res = _structure_residuals(t)
    assert set(res) == {"anti_self_adjoint", "normal", "commutes_abs_t",
                        "unitary_on_range"}
    assert max(res.values()) <= 1e-8
    assert classify(polar_decompose(t).u0).anti_self_adjoint


def test_structure_transfer_random_classes():
    rr = trial_rng(57)
    for _ in range(5):
        h = random_ops.hermitian(rr, 4)
        res = _structure_residuals(h)
        assert {"self_adjoint", "normal", "unitary_on_range"} <= set(res)
        assert max(res.values()) <= 1e-8 * max(1.0, h.frobenius_norm())
        assert res["self_adjoint"] < 1e-9 * max(1.0, h.frobenius_norm())

        nm = random_ops.normal(rr, 4)
        res = _structure_residuals(nm)
        assert {"normal", "commutes_abs_t", "unitary_on_range"} <= set(res)
        assert max(res.values()) <= 1e-8 * max(1.0, nm.frobenius_norm())
        assert res["commutes_abs_t"] < 1e-9 * max(1.0, nm.frobenius_norm())


def test_perturb_polar_zero_and_weight_example():
    a = weight_matrix(10)
    f = polar_decompose(a)
    assert (perturb_polar(f, QMatrix.zeros(10)) - f.u0).frobenius_norm() == 0.0
    v = null_swap_perturbation(10)
    u = perturb_polar(f, v)
    e3 = QMatrix.identity(10).column(2)
    e4 = QMatrix.identity(10).column(3)
    assert (u @ f.abs_t - a).frobenius_norm() < 1e-10
    assert (u @ e4 - e3).frobenius_norm() < 1e-12
    assert (f.u0 @ e4).frobenius_norm() < 1e-12
    assert (u - f.u0).frobenius_norm() > 0.5


def test_perturb_polar_rejections():
    rr = trial_rng(59)
    t = random_ops.rand_qmatrix(rr, 3) + QMatrix.identity(3) * 3.0
    f = polar_decompose(t)
    v = random_ops.partial_isometry(rr, 3, rank=1)
    with pytest.raises(BadPerturbation):
        perturb_polar(f, v)  # invertible T admits only V = 0

    a = weight_matrix(7)
    fa = polar_decompose(a)
    with pytest.raises(BadPerturbation):
        perturb_polar(fa, random_ops.rand_qmatrix(rr, 7))  # not an isometry
    # partial isometry with the wrong initial space
    wrong = np.zeros((7, 7), dtype=complex)
    wrong[0, 0] = 1.0  # e1 -> e1, but e1 is not in N(A)
    with pytest.raises(BadPerturbation):
        perturb_polar(fa, QMatrix(wrong))


def test_perturb_polar_trivial_null_space_rejected_first(monkeypatch):
    # a nonzero V on an invertible T is refused before V is classified,
    # and N(T) comes from the factorization f already carries
    rr = trial_rng(62)
    t = random_ops.rand_qmatrix(rr, 3) + QMatrix.identity(3) * 3.0
    f = polar_decompose(t)
    inputs = record_svd_inputs(monkeypatch)
    with pytest.raises(BadPerturbation, match="trivial"):
        perturb_polar(f, random_ops.rand_qmatrix(rr, 3))
    assert inputs == []


def test_perturb_polar_factors_no_partial_isometry(monkeypatch):
    # V is checked from V* V, an orthogonal projection, and f.fac: the
    # second factorization takes no SVD, and its bytes are pinned
    import hashlib
    from qpolar import emit_qmat
    t = random_ops.rank_deficient(SplitMix64(19), 6, 3)
    f = polar_decompose(t)
    inputs = record_svd_inputs(monkeypatch)
    u = perturb_polar(f, canonical_perturbation(f))
    assert inputs == []
    assert hashlib.sha256(emit_qmat(u).encode()).hexdigest() == (
        "ac4861304230015f6837a2b3adbdd614c6f7e62df19c9ddc222aef9e4caecece")


def test_perturb_polar_rejects_what_is_not_a_partial_isometry():
    # each V below keeps N(T) and R(T)-perp nearly or exactly, so it is
    # the V V* V = V gate that refuses it: singular values near 1, at 1/2
    # and at 1e-5, which a test of V* V alone passes as |s^2 - s^4| is
    # 1e-10; a NaN entry makes the residual NaN, which fails the gate
    t = random_ops.rank_deficient(SplitMix64(19), 6, 3)
    f = polar_decompose(t)
    v = canonical_perturbation(f)
    null_basis, _, corange_basis = _svd_bases(f.fac)
    col = int(np.argmax([np.linalg.norm(v.p[:, :, k])
                         for k in range(v.shape[1])]))
    stretched = v.p.copy()
    stretched[:, :, col] *= 1.0 + 1e-6
    nan = v.p.copy()
    nan[0, 0, col] = np.nan
    mixed = (corange_basis.column(0) @ null_basis.column(0).adjoint()
             + 1e-5 * (corange_basis.column(1)
                       @ null_basis.column(1).adjoint()))
    for bad in (QMatrix(*stretched), 0.5 * v, QMatrix(*nan), 1e-5 * v,
                mixed):
        with pytest.raises(BadPerturbation, match="not a partial isometry"):
            perturb_polar(f, bad)


def test_perturbation_gate_agrees_with_classify():
    # V = u_1 v_1* + s u_2 v_2* from N(T) into R(T)-perp: perturb_polar
    # takes V exactly when classify(v) finds a partial isometry, for s
    # from 0 through values near 1 to 2; the gate lets through only an s
    # between classify's rank cut and about DEFAULT_CLASS_TOL
    t = random_ops.rank_deficient(SplitMix64(19), 6, 3)
    f = polar_decompose(t)
    null_basis, _, corange_basis = _svd_bases(f.fac)
    legs = [corange_basis.column(k) @ null_basis.column(k).adjoint()
            for k in range(2)]
    for s in (0.0, 1e-5, 1e-3, 0.5, 1 - 1e-6, 1 - 1e-8, 1.0, 1 + 1e-8,
              1 + 1e-6, 2.0):
        v = legs[0] + s * legs[1]
        try:
            perturb_polar(f, v)
            accepted = True
        except BadPerturbation:
            accepted = False
        assert accepted == classify(v).partial_isometry, s
    rr = trial_rng(73)
    for _ in range(10):
        v = random_ops.partial_isometry(rr, 1 + rr.randint(6))
        assert classify(v).partial_isometry
        assert (v - v @ (v.adjoint() @ v)).frobenius_norm() <= 1e-13


def test_uniqueness_verdict_and_dichotomy():
    rr = trial_rng(60)
    t = random_ops.rand_qmatrix(rr, 4) + QMatrix.identity(4) * 3.0
    assert polar_decompose(t).unique
    assert not polar_decompose(weight_matrix(10)).unique

    # false verdict: the canonical perturbation gives a distinct valid U
    for _ in range(10):
        n = 2 + rr.randint(5)
        rank = rr.randint(n)  # strictly below n
        t = random_ops.rank_deficient(rr, n, rank)
        f = polar_decompose(t)
        assert not f.unique
        u = perturb_polar(f, canonical_perturbation(f))
        assert (u @ f.abs_t - t).frobenius_norm() \
            <= 1e-9 * max(1.0, t.frobenius_norm())
        assert (u - f.u0).frobenius_norm() > 0.5

    # true verdict: random perturbation attempts all fail preconditions
    t = random_ops.rand_qmatrix(rr, 3) + QMatrix.identity(3) * 3.0
    f = polar_decompose(t)
    for _ in range(50):
        src = random_ops.rand_qmatrix(rr, 3, 1)
        dst = random_ops.rand_qmatrix(rr, 3, 1)
        v = ((dst * (1.0 / dst.frobenius_norm()))
             @ (src * (1.0 / src.frobenius_norm())).adjoint())
        with pytest.raises(BadPerturbation):
            perturb_polar(f, v)


def test_canonical_perturbation_zero_when_unique():
    # N(T) and R(T)-perp are blocks of no columns, whose product is the
    # zero matrix
    rr = trial_rng(61)
    for n in (3, 1, 6):
        t = random_ops.rand_qmatrix(rr, n) + QMatrix.identity(n) * 3.0
        f = polar_decompose(t)
        null_basis, _, corange_basis = _svd_bases(f.fac)
        assert null_basis.shape == corange_basis.shape == (n, 0)
        v = canonical_perturbation(f)
        assert v.p.tobytes() == QMatrix.zeros(n).p.tobytes()


def test_perturb_polar_accepts_a_valid_v_when_t_is_zero():
    # T = 0: N(T) is everything and R(T) = {0}, whose basis has no columns,
    # so any unitary V is admissible and U = V
    rr = trial_rng(67)
    for n in (1, 4):
        t = QMatrix.zeros(n)
        f = polar_decompose(t)
        assert f.null_rank == n and null_range_bases(t)[1].shape == (n, 0)
        v = random_ops.unitary(rr, n)
        u = perturb_polar(f, v)
        assert (u - v).frobenius_norm() < 1e-12
        assert (u @ f.abs_t - t).frobenius_norm() == 0.0


def test_canonical_perturbation_reads_the_factorization(monkeypatch):
    # N(T) and R(T)-perp both come from the SVD of chi(T) that f carries
    rr = trial_rng(63)
    t = random_ops.rank_deficient(rr, 5, 2)
    f = polar_decompose(t)
    inputs = record_svd_inputs(monkeypatch)
    assert canonical_perturbation(f).frobenius_norm() > 0.5
    assert inputs == []


def test_corange_basis_on_rank_deficient_draws():
    rr = trial_rng(64)
    for _ in range(20):
        n = 2 + rr.randint(7)
        t = random_ops.rank_deficient(rr, n, rr.randint(n))
        f = polar_decompose(t)
        corange = _svd_bases(f.fac)[2]
        assert corange.shape == (n, f.null_rank)
        for j in range(f.null_rank):
            for k in range(f.null_rank):
                want = Quaternion(1.0 if j == k else 0.0)
                assert (inner(corange.column(j), corange.column(k))
                        - want).norm() < 1e-12
        scale = max(1.0, t.frobenius_norm())
        for _ in range(5):
            y = t @ random_ops.rand_qvector(rr, n)
            for k in range(f.null_rank):
                assert inner(corange.column(k), y).norm() <= 1e-12 * scale
        u = perturb_polar(f, canonical_perturbation(f))
        assert (u @ f.abs_t - t).frobenius_norm() <= 1e-9 * scale
        assert (u - f.u0).frobenius_norm() > 0.5


def test_modulus_is_the_abs_t_of_polar_decompose():
    rr = trial_rng(65)
    draws = [random_ops.bounded_norm(rr, 1 + rr.randint(8), 10.0)
             for _ in range(10)]
    draws += [random_ops.rank_deficient(rr, 6, 3), weight_matrix(9)]
    for t in draws:
        m, p = modulus(t), polar_decompose(t).abs_t
        assert np.array_equal(m.a1, p.a1) and np.array_equal(m.a2, p.a2)


def test_polar_decompose_rejects_nan():
    from qpolar.ckernel import NonFiniteInput
    t = random_ops.rand_qmatrix(trial_rng(70), 3).p.copy()
    t[0, 1, 1] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteInput):
        polar_decompose(QMatrix(*t))


def test_one_factorization_per_operator(monkeypatch):
    # every quantity derived from a reads a.fac: one SVD in all
    a = random_ops.rank_deficient(trial_rng(71), 5, 3)
    inputs = record_svd_inputs(monkeypatch)
    operator_norm(a)
    quaternionic_rank(a)
    classify(a)
    null_range_bases(a)
    polar_decompose(a)
    equivalence_suite(a)
    assert len(inputs) == 1


def test_z_inverse_and_polar_share_one_factorization(monkeypatch):
    # z is factored once: its norm check, its damping factor
    # (I - Z* Z)^(-1/2) and its polar factors all read z.fac
    z = z_transform(random_ops.bounded_norm(trial_rng(72), 4, 10.0))
    inputs = record_svd_inputs(monkeypatch)
    z_inverse(z)
    polar_decompose(z)
    assert len(inputs) == 1
    assert np.array_equal(inputs[0], z.p)


def test_constructive_roots_pass_the_one_root_gate(monkeypatch):
    # the composite and strictly positive routes take each of their roots
    # through sqrt_positive_spectral, never through ckernel.psd_sqrt
    roots = record_kernel_inputs(monkeypatch, "psd_sqrt")
    p = random_ops.psd(trial_rng(77), 4)
    sqrt_positive_composite(p)
    sqrt_strictly_positive(p + QMatrix.identity(4), 0.5)
    assert roots == []


def test_sqrt_routes_solve_the_hermitian_part_once(monkeypatch):
    p = random_ops.psd(trial_rng(73), 5)
    hermitian_part = 0.5 * (p.p + ckernel._qadj(p.p))
    inputs = record_svd_inputs(monkeypatch)
    sqrt_positive_spectral(p)
    sqrt_positive_composite(p)
    assert sum(np.array_equal(x, hermitian_part) for x in inputs) == 1


def test_rank_deficient_polar_solves_r_columns(monkeypatch):
    # below full rank the SVDs of T and of U0 each run _jacobi on the r
    # kept rows of a pivoted QR, not on all n columns
    t = random_ops.rank_deficient(SplitMix64(32), 32, 8)
    shapes = []
    real = ckernel._jacobi
    monkeypatch.setattr(ckernel, "_jacobi",
                        lambda a: shapes.append(a.shape[1:]) or real(a))
    f = polar_decompose(t)
    classify(f.u0)
    assert f.null_rank == 24
    assert shapes == [(32, 8), (32, 8)]
