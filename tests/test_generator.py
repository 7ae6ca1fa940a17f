import numpy as np
import pytest

from qscocycle import (
    BlockGenerator,
    chi,
    classify,
    component,
    contractivity_defect,
    form_defect,
    from_hlc,
    op_norm,
    random_contractive,
    yosida_approx,
)

from oracles import (
    assert_bitwise,
    compress_map,
    delta_projector,
    hat_vector,
    kron_component,
    lift_map,
    random_complex,
    scalar_hp,
    zero_generator,
)


def test_assemble_zero_generator():
    F = zero_generator(2, 1)
    assert np.array_equal(F.full_matrix(), np.zeros((4, 4)))


def test_assemble_scalar_blocks():
    F = BlockGenerator(dim_h=1, dim_k=1, K=[[-0.5]], L=[[1.0]], M=[[-1.0]], C=[[1.0]])
    assert np.array_equal(F.full_matrix(), [[-0.5, -1.0], [1.0, 0.0]])


def test_assemble_names_offending_block():
    with pytest.raises(ValueError, match="block L"):
        zero_generator(2, 1, L=np.zeros((3, 2)))


@pytest.mark.parametrize("dim_h, dim_k, message", [
    (0, 1, "dim_h must be >= 1"),
    (1, -1, "dim_k must be >= 0"),
])
def test_assemble_range_check(dim_h, dim_k, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        BlockGenerator(dim_h=dim_h, dim_k=dim_k, K=np.zeros((1, 1)), L=np.zeros((0, 1)),
                       M=np.zeros((1, 0)), C=np.zeros((0, 0)))


def test_from_hlc_zero():
    F = from_hlc(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
    assert op_norm(F.full_matrix()) == 0.0


def test_from_hlc_scalar():
    F = scalar_hp()
    assert F.K[0, 0] == -0.5
    assert F.M[0, 0] == -1.0


def test_from_hlc_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        from_hlc([[1j]], np.ones((1, 1)), np.ones((1, 1)))


def test_from_hlc_checks_the_shape_of_c():
    # Checked before L*C, whose matmul error would name no field.
    with pytest.raises(ValueError, match=r"^C shape \(1, 1\) incompatible with dim_h=2, dim_k=1; expected \(2, 2\)$"):
        from_hlc(np.zeros((2, 2)), np.eye(2), np.eye(1))


def test_chi_values():
    rng = np.random.default_rng(0)
    c = random_complex(rng, 3)
    assert chi(c, c) == 0.0
    assert abs(chi(c, np.zeros(3)) - 0.5 * np.vdot(c, c).real) < 1e-15
    assert chi([1.0], [1j]) == 1.0 - 1.0j
    with pytest.raises(ValueError, match="dimensions"):
        chi([1.0], [1.0, 2.0])


def test_hat_vector():
    d = hat_vector([2.0, 3.0j])
    assert d[0] == 1.0
    assert np.array_equal(d[1:], [2.0, 3.0j])


def test_delta_projector():
    delta = delta_projector(2, 2)
    assert np.array_equal(delta @ delta, delta)
    assert np.array_equal(delta, np.conj(delta.T))
    assert np.trace(delta).real == 4.0


def test_component_zero_vectors_gives_drift():
    F = random_contractive(3, 2, seed=1)
    z = np.zeros(2)
    assert np.allclose(component(F, z, z), F.K, atol=1e-15)


def test_component_dimension_check():
    F = random_contractive(2, 2, seed=1)
    with pytest.raises(ValueError, match=r"^slice vectors have dimensions 3, 2; expected 2$"):
        component(F, np.zeros(3), np.zeros(2))


def test_component_of_zero_generator():
    F = zero_generator(2, 2)
    rng = np.random.default_rng(1)
    c, d = random_complex(rng, 2), random_complex(rng, 2)
    # E^c C E_d = <c,d> exactly cancels the -<c,d> term.
    assert np.allclose(component(F, c, d), np.zeros((2, 2)), atol=1e-14)


def test_component_scalar_model():
    F = scalar_hp()
    # (1, conj(1)) . F . (1, 1)^T with F = [[-0.5, -1], [1, 0]] gives -0.5.
    assert abs(component(F, [1.0], [1.0])[0, 0] + 0.5) < 1e-15
    full = F.full_matrix()
    hat = hat_vector([1.0])
    direct = np.conj(hat) @ full @ hat
    assert abs(direct + 0.5) < 1e-15


def test_component_matches_full_matrix_sandwich():
    F = random_contractive(2, 2, seed=3)
    rng = np.random.default_rng(5)
    c, d = random_complex(rng, 2), random_complex(rng, 2)
    assert np.allclose(component(F, c, d), kron_component(F, c, d), atol=1e-13)


@pytest.mark.parametrize("dh,dk", [(1, 0), (2, 1), (3, 2), (2, 3)])
def test_component_matches_kron_form(dh, dk):
    rng = np.random.default_rng(10 * dh + dk)
    F = BlockGenerator(
        dim_h=dh, dim_k=dk,
        K=random_complex(rng, (dh, dh)), L=random_complex(rng, (dh * dk, dh)),
        M=random_complex(rng, (dh, dh * dk)), C=random_complex(rng, (dh * dk, dh * dk)),
    )
    for _ in range(5):
        c, d = random_complex(rng, dk), random_complex(rng, dk)
        assert op_norm(component(F, c, d) - kron_component(F, c, d)) <= 1e-13


@pytest.mark.parametrize("dh,dk", [(1, 0), (2, 1), (3, 2), (2, 3)])
def test_stacked_component_and_chi_equal_per_slice_bitwise(dh, dk):
    # A (4, 1) stack of c against a (1, 3) stack of d broadcasts to 4 x 3 slices.
    rng = np.random.default_rng(20 + 10 * dh + dk)
    F = BlockGenerator(
        dim_h=dh, dim_k=dk,
        K=random_complex(rng, (dh, dh)), L=random_complex(rng, (dh * dk, dh)),
        M=random_complex(rng, (dh, dh * dk)), C=random_complex(rng, (dh * dk, dh * dk)),
    )
    cs, ds = random_complex(rng, (4, 1, dk)), random_complex(rng, (1, 3, dk))
    slices, chis = component(F, cs, ds), chi(cs, ds)
    assert slices.shape == (4, 3, dh, dh) and chis.shape == (4, 3)
    for i in range(4):
        for j in range(3):
            assert_bitwise(slices[i, j], component(F, cs[i, 0], ds[0, j]))
            assert chis[i, j] == chi(cs[i, 0], ds[0, j])


def test_contractivity_defect_examples():
    zero = zero_generator(1, 1)
    assert abs(contractivity_defect(zero) - 0.0) < 1e-14
    assert abs(contractivity_defect(scalar_hp())) < 1e-14
    inflated = zero_generator(2, 1, C=2.0 * np.eye(2))
    assert contractivity_defect(inflated) > 1.0


def test_form_defect_examples():
    F = scalar_hp()
    assert form_defect(F, np.zeros(2)) == 0.0
    zero = from_hlc(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
    rng = np.random.default_rng(2)
    assert abs(form_defect(zero, random_complex(rng, 4))) < 1e-14
    assert abs(form_defect(F, [1.0, 0.0])) < 1e-15


def test_form_defect_dimension_check():
    with pytest.raises(ValueError, match="dimension"):
        form_defect(scalar_hp(), np.zeros(3))


def test_yosida_drift_free_is_identity():
    F = zero_generator(2, 1, L=random_complex(np.random.default_rng(0), (2, 2)))
    for n in (1, 5):
        Fn = yosida_approx(F, n)
        assert np.array_equal(Fn.K, F.K)
        assert np.array_equal(Fn.L, F.L)
        assert np.array_equal(Fn.M, F.M)


def test_yosida_scalar_value():
    Fn = yosida_approx(scalar_hp(), 1)
    assert abs(Fn.K[0, 0] - (-2.0 / 9.0)) < 1e-15


def test_yosida_preserves_contractivity():
    F = random_contractive(3, 2, seed=8)
    for n in (1, 10, 100):
        assert contractivity_defect(yosida_approx(F, n)) <= 1e-10


def test_yosida_convergence_rate():
    F = random_contractive(3, 1, seed=12)
    errs = []
    for n in (16, 32, 64, 128):
        Fn = yosida_approx(F, n)
        errs.append(op_norm(Fn.full_matrix() - F.full_matrix()))
    for small, big in zip(errs[1:], errs[:-1]):
        assert 0.4 <= small / big <= 0.6


def test_yosida_singular_resolvent():
    bad = zero_generator(1, 1, K=3.0 * np.eye(1))
    with pytest.raises(ValueError, match="dissipative"):
        yosida_approx(bad, 3)
    with pytest.raises(ValueError, match="positive"):
        yosida_approx(bad, 0)


def test_yosida_rejects_non_dissipative_drift():
    # I - K/n is invertible for every n != 2, so only the dissipativity check
    # can catch K = 2I.
    bad = zero_generator(2, 1, K=2.0 * np.eye(2))
    for n in (1, 3, 10):
        with pytest.raises(ValueError, match="not dissipative"):
            yosida_approx(bad, n)


def test_classify_equality_case():
    report = classify(random_contractive(3, 2, seed=4, mode="unitary_C"))
    assert report.is_contractive
    assert report.c_isometric
    assert report.equality_case
    assert report.gauge_equality_defect <= 1e-12


def test_classify_zero_generator():
    F = from_hlc(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
    report = classify(F)
    assert report.is_contractive
    assert report.c_isometric
    assert abs(report.contractivity_defect) < 1e-14


def test_classify_strict_contraction():
    F = from_hlc(np.zeros((2, 2)), random_complex(np.random.default_rng(1), (2, 2), 0.4),
                 0.5 * np.eye(2))
    report = classify(F)
    assert report.c_contractive
    assert not report.c_isometric
    assert not report.equality_case
    assert abs(report.c_norm - 0.5) < 1e-12


def test_slice_affinity_in_d():
    # H_{c,(1-z)b+zd} = (1-z) H_{c,b} + z H_{c,d} exactly.
    F = random_contractive(3, 2, seed=21)
    rng = np.random.default_rng(22)
    c, b, d = (random_complex(rng, 2) for _ in range(3))
    z = complex(0.3, -1.2)
    eye = np.eye(3)

    def h(cc, dd):
        return component(F, cc, dd) + np.vdot(cc, dd) * eye

    lhs = h(c, (1 - z) * b + z * d)
    rhs = (1 - z) * h(c, b) + z * h(c, d)
    assert op_norm(lhs - rhs) <= 1e-12


def test_slice_conjugate_affinity_in_c():
    F = random_contractive(2, 2, seed=23)
    rng = np.random.default_rng(24)
    a, c, d = (random_complex(rng, 2) for _ in range(3))
    z = complex(-0.7, 0.4)
    eye = np.eye(2)

    def h(cc, dd):
        return component(F, cc, dd) + np.vdot(cc, dd) * eye

    lhs = h((1 - z) * a + z * c, d)
    rhs = (1 - np.conj(z)) * h(a, d) + np.conj(z) * h(c, d)
    assert op_norm(lhs - rhs) <= 1e-12


def test_slice_increment_recovers_l_and_c():
    # H_{c+e,d} - H_{c,d} = E^e (L + C E_d) exactly.
    F = random_contractive(3, 2, seed=25)
    rng = np.random.default_rng(26)
    c, d, e = (random_complex(rng, 2) for _ in range(3))
    eye = np.eye(3)

    def h(cc, dd):
        return component(F, cc, dd) + np.vdot(cc, dd) * eye

    lhs = h(c + e, d) - h(c, d)
    rhs = compress_map(e, 3) @ (F.L + F.C @ lift_map(d, 3))
    assert op_norm(lhs - rhs) <= 1e-12


def test_contractivity_implies_form_inequality():
    F = random_contractive(4, 2, seed=31)
    assert contractivity_defect(F) <= 1e-12
    rng = np.random.default_rng(32)
    for _ in range(100):
        xi = random_complex(rng, F.total_dim)
        assert form_defect(F, xi) <= 1e-10 * np.vdot(xi, xi).real


def test_drift_only_generator():
    # dim_k = 0 degrades to the drift alone.
    F = zero_generator(1, 0, K=np.array([[-1.0 + 0.5j]]))
    assert F.full_matrix().shape == (1, 1)
    assert np.allclose(component(F, [], []), F.K)
    assert contractivity_defect(F) <= 1e-14
    assert abs(form_defect(F, [1.0]) + 2.0) < 1e-14
