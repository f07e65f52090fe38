"""Block-encoding algebra: composition rules, spectral functions, dilation.

The program encodes real diagonals only; the dense operands of the
dilation and density-matrix tests are reference.DenseEncoding oracles.
"""

import math

import numpy as np
import pytest

from helpers import full_route_overlap
from orcurv.blockenc import (
    BlockEncoding,
    StateVector,
    be_invert,
    be_power,
    be_product,
    default_power_degree,
    dilated_apply,
    dilated_overlap,
)
from orcurv.errors import (
    DimMismatch,
    SpectrumOutOfRange,
    SubnormTooSmall,
    TooLarge,
)
from orcurv.qpipeline import DistanceEncoding
from reference import (
    ApproxEncoding,
    BadFactorization,
    DenseEncoding,
    InexactEncoding,
    basis,
    be_density,
    be_dilate,
    be_identity,
    be_lcu,
    be_tensor,
    chebyshev_invert,
    chebyshev_power,
    dense,
    normalized,
    overlap,
    uniform,
)


def random_diagonal(rng, dim):
    v = rng.standard_normal(dim)
    return BlockEncoding(v, float(np.max(np.abs(v))) * 1.5)


# --- construction --------------------------------------------------------------

def test_wrap_identity():
    be = BlockEncoding(np.ones(4), 1.0)
    assert np.allclose(dense(be), np.eye(4))
    assert (be.subnorm, be.ancilla_dim) == (1.0, 2)


def test_exact_encodings_carry_no_error_field():
    # every stage the program runs is exact; the error bookkeeping of the
    # Chebyshev stages lives on reference.ApproxEncoding
    assert BlockEncoding._fields == ("op", "subnorm", "ancilla_dim")
    assert vars(BlockEncoding(np.ones(2), 1.0)).keys() == {"op", "subnorm", "ancilla_dim"}
    # the distance encoding keeps its two scalars, and no rows
    assert DistanceEncoding._fields == ("subnorm", "ancilla_dim")
    assert vars(DistanceEncoding(2.0, 2)).keys() == {"subnorm", "ancilla_dim"}


def test_wrap_diagonal():
    be = BlockEncoding([1.0, 2.0, 4.0], 4.0)
    assert be.op.dtype == np.float64 and be.op.ndim == 1
    assert np.allclose(be.encoded, [0.25, 0.5, 1.0])


def test_encoding_is_a_real_diagonal():
    with pytest.raises(DimMismatch):
        BlockEncoding(op=np.eye(2), subnorm=1.0)
    with pytest.raises(SpectrumOutOfRange):
        BlockEncoding(op=np.array([0.1, 0.5j]), subnorm=1.0)
    # complex storage is refused even when every imaginary part is zero
    with pytest.raises(SpectrumOutOfRange):
        BlockEncoding(op=np.array([0.5, 0.25]) + 0j, subnorm=1.0)


def test_wrap_subnorm_too_small():
    with pytest.raises(SubnormTooSmall):
        BlockEncoding([1.0, 2.0, 4.0], 2.0)


# --- product -------------------------------------------------------------------

def test_product_identity_quarters():
    a = BlockEncoding(np.ones(3), 2.0)
    b = BlockEncoding(np.ones(3), 2.0)
    prod = be_product(a, b)
    assert prod.subnorm == 4.0
    assert np.allclose(dense(prod), np.eye(3) / 4)


def test_product_matches_matmul_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        b1 = random_diagonal(rng, 8)
        b2 = random_diagonal(rng, 8)
        prod = be_product(b1, b2)
        assert np.allclose(np.diag(prod.op), np.diag(b1.op) @ np.diag(b2.op), atol=1e-12)
        assert prod.subnorm == b1.subnorm * b2.subnorm
        assert prod.ancilla_dim == b1.ancilla_dim * b2.ancilla_dim


def test_product_dim_mismatch():
    with pytest.raises(DimMismatch):
        be_product(be_identity(2), be_identity(3))


# --- tensor --------------------------------------------------------------------

def test_tensor_diag_with_identity():
    d = BlockEncoding([2.0, 3.0], 3.0)
    t = be_tensor(d, be_identity(2))
    assert np.allclose(t.op, [2, 2, 3, 3])


def test_tensor_identities():
    t = be_tensor(be_identity(2), be_identity(3))
    assert np.allclose(t.op, np.ones(6))


def test_tensor_matches_kron_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        b1 = random_diagonal(rng, 4)
        b2 = random_diagonal(rng, 2)
        t = be_tensor(b1, b2)
        assert np.allclose(np.diag(t.op), np.kron(np.diag(b1.op), np.diag(b2.op)), atol=1e-12)
        assert t.subnorm == b1.subnorm * b2.subnorm


# --- LCU ------------------------------------------------------------------------

def test_lcu_single_is_identity_up_to_bookkeeping():
    b = BlockEncoding([0.5, 0.25], 1.0)
    out = be_lcu([b], [1])
    assert out.subnorm == 1.0
    assert np.allclose(out.encoded, b.encoded)


def test_lcu_cancellation():
    b = BlockEncoding([0.5, -0.25, 1.0], 1.0)
    out = be_lcu([b, b], [1, -1])
    assert out.subnorm == 2.0
    assert np.allclose(out.op, 0.0)


def test_lcu_matches_direct_sum_oracle():
    rng = np.random.default_rng(3)
    bs = [BlockEncoding(rng.uniform(-1, 1, 6), rng.uniform(1.0, 3.0) + 1.0) for _ in range(3)]
    out = be_lcu(bs, [1, 1, 1])
    direct = sum(b.encoded for b in bs) / 3
    assert np.allclose(out.encoded, direct, atol=1e-12)


def test_lcu_err_rule():
    b1 = ApproxEncoding(op=np.ones(2) * 0.5, subnorm=2.0, err=1e-3)
    b2 = ApproxEncoding(op=np.ones(2) * 0.5, subnorm=4.0, err=1e-2)
    out = be_lcu([b1, b2], [1, 1])
    assert out.err == pytest.approx(1e-3 / 2.0 + 1e-2 / 4.0, rel=0, abs=0)


# --- fractional power ------------------------------------------------------------

def test_power_quarter_known_values():
    b = BlockEncoding([1.0 / 16.0, 1.0], 1.0)
    out = be_power(b, 0.25, kappa_m=16.0)
    assert np.allclose(out.encoded, [0.25, 0.5])
    assert out.subnorm == 2.0


def test_power_identity_halves():
    b = BlockEncoding([1.0], 1.0)
    for c in (0.25, 0.5, 0.9):
        assert np.allclose(be_power(b, c, 1.0).encoded, [0.5])


def test_power_requires_diagonal_and_window():
    with pytest.raises(DimMismatch):
        be_power(BlockEncoding(np.eye(2), 1.0), 0.25, 2.0)
    with pytest.raises(SpectrumOutOfRange):
        be_power(BlockEncoding([0.5, 1.0], 1.0), 0.25, kappa_m=1.5)


def test_power_preserves_exact_zeros():
    b = BlockEncoding([0.0, 0.25, 1.0], 1.0)
    out = be_power(b, 0.25, kappa_m=4.0)
    assert out.op[0] == 0.0
    assert np.allclose(out.encoded, [0.0, math.sqrt(math.sqrt(0.25)) / 2, 0.5])


def test_power_chebyshev_err_bounds_and_monotonicity():
    rng = np.random.default_rng(4)
    vals = rng.uniform(0.1, 1.0, 16)
    b = BlockEncoding(vals, 1.0)
    exact = be_power(b, 0.25, kappa_m=10.0)
    errs = []
    for degree in (8, 16, 32):
        approx = chebyshev_power(b, 0.25, kappa_m=10.0, degree=degree)
        deviation = float(np.max(np.abs(approx.encoded - exact.encoded)))
        assert deviation <= approx.err
        errs.append(approx.err)
    assert errs[0] > errs[1] > errs[2]


def test_power_chebyshev_reported_err_bounds_dense_sampling():
    for kappa in (4.0, 16.0):
        degree = default_power_degree(kappa, 1e-6)
        b = BlockEncoding(np.linspace(1.0 / kappa, 1.0, 1000), 1.0)
        approx = chebyshev_power(b, 0.25, kappa_m=kappa, degree=degree)
        exact = be_power(b, 0.25, kappa_m=kappa)
        assert float(np.max(np.abs(approx.encoded - exact.encoded))) <= approx.err
        assert approx.err <= 1e-6


def test_power_chebyshev_degree_cap():
    # the default degree at kappa 1e8 is 138 156, past the interpolant's
    # cap; the exact power runs at any kappa
    b = BlockEncoding(np.linspace(1e-8, 1.0, 50), 1.0)
    assert default_power_degree(1e8, 1e-6) == 138_156
    with pytest.raises(TooLarge):
        chebyshev_power(b, 0.25, kappa_m=1e8)
    assert np.allclose(be_power(b, 0.25, kappa_m=1e8).encoded, b.op ** 0.25 / 2)


# --- inversion -------------------------------------------------------------------

def test_invert_known_values():
    b = BlockEncoding([0.5, 1.0], 1.0)
    out = be_invert(b, kappa_a=2.0)
    assert np.allclose(out.encoded, [1.0, 0.5])


def test_invert_pseudoinverse_keeps_kernel():
    b = BlockEncoding([0.0, 0.5], 1.0)
    out = be_invert(b, kappa_a=2.0)
    assert out.op[0] == 0.0
    assert np.allclose(out.encoded, [0.0, 1.0])


def test_invert_multiply_back():
    rng = np.random.default_rng(5)
    for _ in range(10):
        vals = rng.uniform(0.2, 1.0, 8)
        b = BlockEncoding(vals, 1.0)
        kappa = 1.0 / float(np.min(vals)) * (1 + 1e-9)
        inv = be_invert(b, kappa)
        back = be_product(b, inv)
        assert np.allclose(back.encoded, 1.0 / kappa, atol=1e-10)


def test_invert_spectrum_window():
    with pytest.raises(SpectrumOutOfRange):
        be_invert(BlockEncoding([0.1, 1.0], 1.0), kappa_a=2.0)


def test_invert_chebyshev_err_bound():
    vals = np.linspace(0.25, 1.0, 50)
    b = BlockEncoding(vals, 1.0)
    exact = be_invert(b, kappa_a=4.0)
    approx = chebyshev_invert(b, kappa_a=4.0, degree=40)
    assert float(np.max(np.abs(approx.encoded - exact.encoded))) <= approx.err


@pytest.mark.parametrize("kappa", [4.0, 16.0, 256.0])
def test_invert_chebyshev_default_degree_err_bounds_dense_sampling(kappa):
    # degree None takes default_inverse_degree(kappa, 1e-6)
    b = BlockEncoding(np.linspace(1.0 / kappa, 1.0, 1000), 1.0)
    approx = chebyshev_invert(b, kappa_a=kappa)
    exact = be_invert(b, kappa_a=kappa)
    assert float(np.max(np.abs(approx.encoded - exact.encoded))) <= approx.err
    assert approx.err <= 1e-6


# --- density-matrix encoding -------------------------------------------------------

def test_density_bell_state():
    phi = StateVector(np.array([1, 0, 0, 1]) / math.sqrt(2))
    rho = be_density(phi, 2, 2)
    assert np.allclose(dense(rho), np.eye(2) / 2)
    assert rho.subnorm == 1.0 and rho.err == 0.0


def test_density_product_state():
    psi = np.array([0.6, 0.8j])
    phi = StateVector(np.kron([1, 0], psi))
    rho = be_density(phi, 2, 2)
    assert isinstance(rho, DenseEncoding)
    assert np.allclose(dense(rho), np.outer(psi, psi.conj()), atol=1e-15)


def test_density_copy_state_yields_projector():
    support = [1, 3, 4]
    dim = 6
    amps = np.zeros(dim * dim)
    for k in support:
        amps[k * dim + k] = 1 / math.sqrt(len(support))
    rho = be_density(StateVector(amps), dim, dim)
    assert isinstance(rho, BlockEncoding)
    expected = np.zeros(dim)
    expected[support] = 1 / len(support)
    assert np.allclose(rho.op, expected)


def test_density_bad_factorization():
    with pytest.raises(BadFactorization):
        be_density(StateVector(np.array([1.0, 0, 0])), 2, 2)


# --- dilation ---------------------------------------------------------------------

def test_dilate_zero_operator():
    u = be_dilate(BlockEncoding(np.zeros(2), 1.0))
    assert np.allclose(u, np.block([[np.zeros((2, 2)), np.eye(2)],
                                    [np.eye(2), np.zeros((2, 2))]]))


def test_dilate_half_rotation():
    u = be_dilate(BlockEncoding([0.5], 1.0))
    expected = np.array([[0.5, math.sqrt(3) / 2], [math.sqrt(3) / 2, -0.5]])
    assert np.allclose(np.abs(u), np.abs(expected), atol=1e-12)
    assert u[0, 0] == pytest.approx(0.5)


def test_dilate_random_contractions():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = rng.standard_normal((4, 4))
        b = DenseEncoding(m, float(np.linalg.norm(m, 2)) * (1 + rng.uniform(0, 1)))
        u = be_dilate(b)
        assert np.max(np.abs(u @ u.conj().T - np.eye(8))) <= 1e-12
        assert np.allclose(u[:4, :4], dense(b), atol=1e-12)


def test_dilate_requires_exact_and_small():
    dirty = ApproxEncoding(op=np.ones(2), subnorm=2.0, err=1e-3)
    with pytest.raises(InexactEncoding):
        be_dilate(dirty)
    big = be_identity(128)
    with pytest.raises(TooLarge):
        be_dilate(big)


def test_dilated_apply_matches_dense_dilation():
    rng = np.random.default_rng(8)
    vals = rng.uniform(0.0, 1.0, 8)
    b = BlockEncoding(vals, 1.0)
    phi = normalized(rng.standard_normal(8))
    via_diag = dilated_apply(b, phi)
    u = be_dilate(b)
    direct = u @ np.concatenate([phi.amps, np.zeros(8)])
    assert np.allclose(via_diag.amps, direct, atol=1e-12)


def test_garbage_orthogonality():
    rng = np.random.default_rng(9)
    for _ in range(5):
        vals = rng.uniform(0.0, 1.0, 6)
        b = BlockEncoding(vals, 1.2)
        phi = normalized(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        out = dilated_apply(b, phi)
        main = np.concatenate([out.amps[:6], np.zeros(6)])
        garbage = np.concatenate([np.zeros(6), out.amps[6:]])
        assert abs(np.vdot(main, garbage)) <= 1e-12


# --- overlaps of the entries a state touches ------------------------------------

def test_dilated_overlap_matches_full_route():
    # the entries at `support` of a random encoding, encoded on their own as
    # a stage encodes them, against the whole encoding dilated
    rng = np.random.default_rng(11)
    for _ in range(40):
        dim = int(rng.integers(1, 40))
        vals = rng.uniform(-1.0, 1.0, dim)
        b = BlockEncoding(vals, float(rng.uniform(1.0, 2.0)))
        k = int(rng.integers(1, dim + 1))
        support = rng.permutation(dim)[:k]
        amps = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        amps /= np.linalg.norm(amps)
        touched = BlockEncoding(b.op[support], b.subnorm)
        assert abs(dilated_overlap(touched, amps)
                   - full_route_overlap(b, support, amps)) <= 1e-15


def test_dilated_overlap_draws_the_full_route_shots():
    # dyadic entries and amplitudes: both routes compute the same value
    # exactly, so a shared seed must give the same Bernoulli count
    b = BlockEncoding(np.array([0.25, -0.5, 0.75, 0.125, 0.0, 0.5]), 1.0)
    cases = [([3], [1.0]), ([0, 2, 3, 5], [0.5, -0.5, 0.5j, 0.5]), ([4, 1], [0.6, 0.8])]
    for support, amps in cases:
        touched = BlockEncoding(b.op[support], b.subnorm)
        exact = full_route_overlap(b, support, amps)
        assert dilated_overlap(touched, amps) == exact
        for seed in (0, 1, 42):
            for shots in (1, 37, 10 ** 5):
                assert dilated_overlap(touched, amps, shots=shots, seed=seed) == \
                    full_route_overlap(b, support, amps, shots=shots, seed=seed)


def test_dilated_overlap_refuses_what_the_full_route_refuses():
    b = BlockEncoding(np.array([0.1, 0.2, 0.3, 0.4]), 1.0)
    with pytest.raises(DimMismatch):
        dilated_overlap(BlockEncoding(np.eye(4) * 0.5, 1.0), [1.0])
    # one amplitude per entry of b
    for amps in ([1.0], [0.6, 0.8], [], np.full(5, 1 / math.sqrt(5))):
        with pytest.raises(DimMismatch):
            dilated_overlap(b, amps)
    with pytest.raises(ValueError, match="unit norm"):
        dilated_overlap(b, [1.0, 1.0, 0.0, 0.0])
    with pytest.raises(SpectrumOutOfRange):
        dilated_overlap(BlockEncoding(op=np.array([0.1, 0.5j]), subnorm=1.0), [0.0, 1.0])
    with pytest.raises(ValueError, match="shots"):
        dilated_overlap(b, [0.5, 0.5, 0.5, 0.5], shots=0)


def test_dilated_overlap_clips_an_entry_within_the_norm_slack():
    # BlockEncoding admits |entry| up to 1 + 1e-9; the dilation clips it
    # to 1, so a unit state is not refused for the encoding's slack
    for entry in (1.0 + 5e-10, -1.0 - 5e-10):
        b = BlockEncoding(op=[entry], subnorm=1.0)
        assert dilated_overlap(b, [1.0]) == math.copysign(1.0, entry)
    b = BlockEncoding(op=[1.0 + 5e-10, 0.5], subnorm=1.0)
    assert dilated_overlap(b, [0.6, 0.8]) == pytest.approx(0.36 + 0.64 * 0.5, abs=1e-15)
    with pytest.raises(ValueError, match="state vector is not unit norm"):
        dilated_overlap(b, [1.0, 1.0])


# --- overlaps ----------------------------------------------------------------------

def test_overlap_exact_cases():
    a = basis(4, 0)
    b = basis(4, 1)
    assert overlap(a, a) == pytest.approx(1.0)
    assert overlap(a, b) == 0.0


def test_overlap_dim_mismatch():
    with pytest.raises(DimMismatch):
        overlap(basis(2, 0), basis(3, 0))


def test_overlap_shot_noise_within_binomial_bound():
    # fixed pair with Re<a|b> = 0.6
    a = StateVector(np.array([1.0, 0.0]))
    b = StateVector(np.array([0.6, 0.8]))
    shots = 10 ** 5
    est = overlap(a, b, shots=shots, seed=1234)
    assert abs(est - 0.6) <= 3 * math.sqrt(0.25 / shots) * 2


def test_overlap_deterministic_under_seed():
    a = StateVector(np.array([1.0, 0.0]))
    b = StateVector(np.array([0.6, 0.8]))
    e1 = overlap(a, b, shots=1000, seed=42)
    e2 = overlap(a, b, shots=1000, seed=42)
    assert e1 == e2


# --- bookkeeping invariants ----------------------------------------------------------

def test_err_monotone_under_composition():
    rng = np.random.default_rng(10)
    b1 = ApproxEncoding(op=rng.uniform(-1, 1, 4), subnorm=2.0, err=1e-4)
    b2 = ApproxEncoding(op=rng.uniform(-1, 1, 4), subnorm=3.0, err=1e-5)
    out = be_tensor(b1, b2)
    assert out.err == b1.subnorm * b2.err + b2.subnorm * b1.err
    assert out.err >= max(b1.subnorm * b2.err, b2.subnorm * b1.err)


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]))
    sv = uniform(4, [0, 2])
    assert np.allclose(sv.amps[[0, 2]], 1 / math.sqrt(2))
