"""Concrete generators: truncated inverse oscillator, birth-death process,
and seeded random contractive instances for the property suites.

Truncation policy is a hard cutoff with the interior reported honestly: the
oscillator identities hold exactly on levels 0..dim-2 and may fail on the top
level, where the cut coupling lam(dim) leaves a strictly negative (hence
still contractive) residue in the operator inequality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generator import BlockGenerator, from_hlc
from .opcore import check_count, op_norm


@dataclass(frozen=True)
class OscillatorSpec:
    """Truncation of the inverse-oscillator model on l^2(Z+).

    ``lam`` has dim+1 entries lam(0..dim) (lam(0) is never used; lam(dim) is
    the coupling cut by the truncation), ``mu`` has dim entries.
    """

    dim: int
    lam: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", check_count(self.dim, "dim", 2))
        lam = np.asarray(self.lam, dtype=np.complex128).reshape(-1)
        mu = np.asarray(self.mu, dtype=np.float64).reshape(-1)
        if lam.size != self.dim + 1:
            raise ValueError(f"lam needs {self.dim + 1} entries, got {lam.size}")
        if mu.size != self.dim:
            raise ValueError(f"mu needs {self.dim} entries, got {mu.size}")
        if not (np.all(np.isfinite(lam.view(np.float64))) and np.all(np.isfinite(mu))):
            raise ValueError("oscillator sequences must be finite")
        lam.flags.writeable = False
        mu.flags.writeable = False
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)


@np.errstate(over="ignore", invalid="ignore")
def inverse_oscillator(spec: OscillatorSpec) -> BlockGenerator:
    """Generator [nu(N), W* conj(lam)(N); -lam(N) W, 0] with C = I, dim_k = 1.

    W is the isometric right shift (truncated: top level maps to 0), N the
    number operator, and nu(n) = i mu(n) - |lam(n+1)|^2 / 2.  The drift keeps
    the cut coupling lam(dim) on the top diagonal entry, which is what makes
    the truncation honest: the operator inequality residue there is
    -|lam(dim)|^2 <= 0.
    """
    dim = spec.dim
    lam, mu = spec.lam, spec.mu
    lam_sq = (np.conj(lam) * lam).real
    K = np.diag(1j * mu - 0.5 * lam_sq[1:]).astype(np.complex128)
    L = np.diag(-lam[1:dim], -1)
    M = np.diag(np.conj(lam[1:dim]), 1)
    C = np.eye(dim, dtype=np.complex128)
    return BlockGenerator(dim_h=dim, dim_k=1, K=K, L=L, M=M, C=C)


def birth_death(dim: int, birth_rates, death_rates) -> BlockGenerator:
    """Two-channel noise generator for a truncated birth-death chain.

    L stacks the sqrt(birth)-weighted up-shift and the sqrt(death)-weighted
    down-shift (channel-major), C = I, H = 0, so K = -L*L/2 is the diagonal
    of half total jump rates (with the boundary jumps cut by truncation).
    """
    dim = check_count(dim, "dim", 3)
    birth = np.asarray(birth_rates, dtype=np.float64).reshape(-1)
    death = np.asarray(death_rates, dtype=np.float64).reshape(-1)
    if birth.size != dim or death.size != dim:
        raise ValueError(
            f"rate sequences need {dim} entries, got {birth.size} and {death.size}"
        )
    if not (np.all(birth >= 0) and np.all(death >= 0)):
        raise ValueError("rates must be nonnegative")
    up = np.diag(np.sqrt(birth[:-1]), -1)
    down = np.diag(np.sqrt(death[1:]), 1)
    L = np.vstack([up, down])
    H = np.zeros((dim, dim), dtype=np.complex128)
    C = np.eye(2 * dim, dtype=np.complex128)
    return from_hlc(H, L, C)


RANDOM_MODES = ("unitary_C", "strict_C")


def random_contractive(
    dim_h: int, dim_k: int, seed: int, mode: str = "unitary_C"
) -> BlockGenerator:
    """Seeded random generator built through (H, L, C); always contractive.

    ``unitary_C`` draws a Haar-ish unitary C, so the result sits exactly on
    the equality case.  ``strict_C`` scales C to norm 0.9 and adds a damping
    -I/10 to the drift, making the operator-inequality defect strictly
    negative.
    """
    dim_h, dim_k = check_count(dim_h, "dim_h", 1), check_count(dim_k, "dim_k", 1)
    seed = check_count(seed, "seed")
    if mode not in RANDOM_MODES:
        raise ValueError(f"mode must be {' or '.join(RANDOM_MODES)}, got {mode!r}")
    rng = np.random.default_rng(seed)

    def cplx(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    raw = cplx((dim_h, dim_h))
    H = 0.5 * (raw + np.conj(raw.T))
    L = cplx((dim_h * dim_k, dim_h)) / np.sqrt(2.0 * dim_k)
    craw = cplx((dim_h * dim_k, dim_h * dim_k))
    if mode == "unitary_C":
        C, _ = np.linalg.qr(craw)
        F = from_hlc(H, L, C)
    else:
        C = 0.9 * craw / op_norm(craw)
        F = from_hlc(H, L, C)
        damped_K = F.K - 0.1 * np.eye(dim_h, dtype=np.complex128)
        F = BlockGenerator(dim_h=dim_h, dim_k=dim_k, K=damped_K, L=F.L, M=F.M, C=F.C)
    return F
