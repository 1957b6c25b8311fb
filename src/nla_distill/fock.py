"""Exact linear algebra of multimode bosonic states in a truncated Fock basis.

States are plain complex numpy tensors with one axis per mode (row-major over
the mode list order).  All operations are pure functions: they never mutate
their inputs and identical inputs give bit-identical outputs.  Subnormalized
states are allowed (they arise from heralding); the squared norm of a
projected branch is the probability of the outcome.

Every constructor and unitary reports truncation losses through the
``tail_mass`` field of the returned state, so downstream consumers can count
the leaked population against their budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "PureState",
    "vacuum",
    "fock_state",
    "epr_state",
    "squeezed_vacuum",
    "tensor",
    "rename_modes",
    "reorder_modes",
    "apply_beamsplitter",
    "herald_beamsplitter",
    "project_fock",
    "partial_trace",
    "quadrature_moment",
    "norm_sq",
    "purity",
    "fidelity",
    "debug_serialize",
]

# Numerical slack on the "norm <= 1" invariant; heralded branches may sit
# exactly at the boundary up to roundoff.
_NORM_SLACK = 1e-12
_SERIALIZE_FLOOR = 1e-14  # debug_serialize's cut on |amplitude|

ModeLabel = str


@dataclass(frozen=True)
class PureState:
    """Pure (possibly subnormalized) state over an ordered set of modes.

    ``amps`` has one axis per mode; entry ``amps[n1, ..., nk]`` is the
    amplitude of ``|n1, ..., nk>``, so each mode's cutoff is its axis length
    minus one.  ``tail_mass`` accumulates the population lost to truncation
    by the operations that produced this state.  The squared norm that
    validation computes is kept for ``norm_sq``.
    """

    modes: tuple[ModeLabel, ...]
    amps: np.ndarray
    tail_mass: float = 0.0
    _norm_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.modes) == 0:
            raise ValueError("a state needs at least one mode")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError(f"duplicate mode labels in {self.modes}")
        amps = np.ascontiguousarray(self.amps, dtype=np.complex128)
        if amps is not self.amps:
            object.__setattr__(self, "amps", amps)
        if amps.ndim != len(self.modes):
            raise ValueError(f"{amps.ndim} amplitude axes for {len(self.modes)} modes")
        if min(amps.shape) < 2:
            raise ValueError("cutoffs must be >= 1")
        n2 = float(np.vdot(self.amps, self.amps).real)
        if not math.isfinite(n2):  # a NaN or inf amplitude makes it so
            raise ValueError("non-finite amplitude")
        if n2 > 1.0 + _NORM_SLACK:
            raise ValueError(f"squared norm {n2} exceeds 1")
        self.amps.flags.writeable = False
        object.__setattr__(self, "_norm_sq", n2)

    def axis(self, mode: ModeLabel) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise ValueError(f"mode {mode!r} not in {self.modes}") from None

    @property
    def cutoffs(self) -> tuple[int, ...]:
        return tuple(d - 1 for d in self.amps.shape)

    def cutoff_of(self, mode: ModeLabel) -> int:
        return self.amps.shape[self.axis(mode)] - 1


# ---------------------------------------------------------------------------
# constructors


def _as_cutoffs(cutoff, n: int) -> tuple[int, ...]:
    if isinstance(cutoff, (int, np.integer)):
        return (int(cutoff),) * n
    cut = tuple(int(c) for c in cutoff)
    if len(cut) != n:
        raise ValueError("need one cutoff per mode")
    return cut


def vacuum(modes: Sequence[ModeLabel], cutoff) -> PureState:
    """All modes in |0>."""
    modes = tuple(modes)
    return fock_state(modes, cutoff, (0,) * len(modes))


def fock_state(modes: Sequence[ModeLabel], cutoff, occupation: Sequence[int]) -> PureState:
    """Product Fock state |n1, ..., nk>."""
    modes = tuple(modes)
    cutoffs = _as_cutoffs(cutoff, len(modes))
    occ = tuple(int(n) for n in occupation)
    if len(occ) != len(modes):
        raise ValueError("one occupation number per mode required")
    if any(n < 0 or n > c for n, c in zip(occ, cutoffs)):
        raise ValueError(f"occupation {occ} outside cutoffs {cutoffs}")
    amps = np.zeros([c + 1 for c in cutoffs], dtype=np.complex128)
    amps[occ] = 1.0
    return PureState(modes, amps)


def epr_state(chi: float, modes: Sequence[ModeLabel], cutoff: int) -> PureState:
    """Two-mode squeezed vacuum sum_n sqrt(1-chi^2) chi^n |n, n>, both modes
    cut off at ``cutoff``.

    The truncated tail mass chi^(2 (cutoff + 1)) is recorded on the returned
    state.
    """
    if not 0.0 <= chi < 1.0:
        raise ValueError(f"chi must be in [0, 1), got {chi}")
    modes = tuple(modes)
    if len(modes) != 2:
        raise ValueError("epr_state takes exactly two modes")
    n = np.arange(cutoff + 1)
    diag = math.sqrt(1.0 - chi * chi) * chi**n if chi > 0 else np.where(n == 0, 1.0, 0.0)
    amps = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    amps[n, n] = diag
    tail = chi ** (2 * (cutoff + 1))
    return PureState(modes, amps, tail_mass=float(tail))


def squeezed_vacuum(r: float, mode: ModeLabel, cutoff: int) -> PureState:
    """Single-mode squeezed vacuum S(r)|0>, S(r) = exp[r (m^2 - m'^2)/2].

    Built from its number-basis series: amplitude a_n on |2n> with
    a_0 = cosh(r)^-1/2 and a_n = a_(n-1) (-tanh r) sqrt((2n-1)/(2n)).  The
    population past the cutoff, 1 - sum_n |a_n|^2, is recorded on the
    returned state.
    """
    if not math.isfinite(r):
        raise ValueError(f"squeezing r must be finite, got {r}")
    n = np.arange(1, cutoff // 2 + 1)
    steps = -math.tanh(r) * np.sqrt((2 * n - 1) / (2 * n))
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    amps[::2] = np.cumprod(np.concatenate(([1.0 / math.sqrt(math.cosh(r))], steps)))
    tail = max(1.0 - float(np.vdot(amps, amps).real), 0.0)
    return PureState((mode,), amps, tail_mass=tail)


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product; mode order is a's modes followed by b's.  Each slice
    of its elementwise product equals the product of the factors' slices."""
    if set(a.modes) & set(b.modes):
        raise ValueError("tensor factors share mode labels")
    amps = np.multiply.outer(a.amps, b.amps)
    return PureState(a.modes + b.modes, amps, tail_mass=a.tail_mass + b.tail_mass)


def rename_modes(state: PureState, mapping: dict) -> PureState:
    new = tuple(mapping.get(m, m) for m in state.modes)
    return PureState(new, state.amps, tail_mass=state.tail_mass)


def reorder_modes(state: PureState, order: Sequence[ModeLabel]) -> PureState:
    order = tuple(order)
    if set(order) != set(state.modes) or len(order) != len(state.modes):
        raise ValueError("order must be a permutation of the state's modes")
    perm = [state.axis(m) for m in order]
    return PureState(order, np.transpose(state.amps, perm),
                     tail_mass=state.tail_mass)


# ---------------------------------------------------------------------------
# single-mode operators


def _annihilation(dim: int) -> np.ndarray:
    m = np.zeros((dim, dim))
    n = np.arange(1, dim)
    m[n - 1, n] = np.sqrt(n)
    return m


def _quadrature(dim: int, sign: str) -> np.ndarray:
    m = _annihilation(dim)
    if sign == "+":
        x = (m + m.T).astype(np.complex128)
    elif sign == "-":
        x = (-1j) * (m - m.T)
    else:
        raise ValueError(f"quadrature sign must be '+' or '-', got {sign!r}")
    return x


def _apply_single_mode(amps: np.ndarray, op: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(op, amps, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


# ---------------------------------------------------------------------------
# beamsplitters

# Convention (Heisenberg picture, modes (M, N), transmissivity t):
#   m -> sqrt(t) m + sqrt(1-t) n,   n -> sqrt(t) n - sqrt(1-t) m
# so on states |1,0> -> sqrt(t)|1,0> - sqrt(1-t)|0,1>.


@lru_cache(maxsize=128)
def _bs_sectors(s_max: int, theta: float) -> tuple[np.ndarray, ...]:
    """Fock matrices of exp[theta (m'n - mn')] per total-photon sector.

    Sector s holds basis |j, s-j> for j = 0..s.  Column j adds a rotated m'
    to column j-1 of sector s-1 (weight sqrt(j)) plus a rotated n' to its
    column j (weight sqrt(s-j)), over s: two exact routes whose sum keeps
    rounding from growing geometrically (orthogonal to ~1e-14 at s = 256)."""
    c, s_ = math.cos(theta), math.sin(theta)
    sq = np.sqrt(np.arange(s_max + 1))
    c_sq, s_sq = c * sq[:, None], s_ * sq[:, None]
    mats = [np.ones((1, 1))]
    for s in range(1, s_max + 1):
        padded = np.zeros((s + 2, s))
        padded[1:-1] = mats[-1]
        # column v as v[i] (n' reads it) and as v[i-1] (m' reads it)
        below, above = padded[1:], padded[:-1]
        c_j, s_j, w = c_sq[:s + 1], s_sq[:s + 1], sq[1:s + 1]
        cur = np.zeros((s + 1, s + 1))
        cur[:, 1:] = (c_j * above - s_j[::-1] * below) * w
        cur[:, :-1] += (c_j[::-1] * below + s_j * above) * w[::-1]
        cur /= s
        cur.flags.writeable = False
        mats.append(cur)
    mats[0].flags.writeable = False
    return tuple(mats)


def _bs_theta(transmissivity: float) -> float:
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity {transmissivity} outside [0, 1]")
    return math.acos(min(1.0, math.sqrt(transmissivity)))


def _pair_axes(labels: tuple[ModeLabel, ...], modes) -> tuple[int, int]:
    m1, m2 = modes
    if m1 == m2:
        raise ValueError("beamsplitter needs two distinct modes")
    for m in modes:
        if m not in labels:
            raise ValueError(f"mode {m!r} not in {labels}")
    return labels.index(m1), labels.index(m2)


@lru_cache(maxsize=64)
def _bs_plan(d1: int, d2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Padded (sector, slot) gather plan for a d1 x d2 mode pair: slot i of
    sector s holds pair (lo_s + i, s - lo_s - i) while it fits, else (0, 0),
    which the zero-padded blocks ignore; ``back`` maps pair j * d2 + k to its
    flattened (sector, slot) position."""
    s = np.arange(d1 + d2 - 1)
    lo = np.maximum(0, s - (d2 - 1))
    j = lo[:, None] + np.arange(min(d1, d2))
    pad = j > np.minimum(s, d1 - 1)[:, None]
    jj, kk = np.divmod(np.arange(d1 * d2), d2)
    plan = (np.where(pad, 0, j), np.where(pad, 0, s[:, None] - j),
            (jj + kk) * min(d1, d2) + jj - lo[jj + kk])
    for arr in plan:
        arr.flags.writeable = False
    return plan


@lru_cache(maxsize=64)
def _bs_blocks(d1: int, d2: int, theta: float) -> np.ndarray:
    """Each sector's kept _bs_sectors block, zero-padded to the plan's width."""
    width = min(d1, d2)
    blocks = np.zeros((d1 + d2 - 1, width, width))
    for s, mat in enumerate(_bs_sectors(d1 + d2 - 2, theta)):
        lo, hi = max(0, s - (d2 - 1)), min(s, d1 - 1) + 1
        blocks[s, :hi - lo, :hi - lo] = mat[lo:hi, lo:hi]
    blocks.flags.writeable = False
    return blocks


def apply_beamsplitter(state: PureState, modes, transmissivity: float) -> PureState:
    """Two-mode beamsplitter in the convention above.

    Exact per total-photon-number sector; population driven past a mode's
    cutoff is clipped and the lost mass added to ``tail_mass``.  All sectors
    are rotated by one batched matmul over the padded (sector, slot) plan.
    """
    theta = _bs_theta(transmissivity)
    ax1, ax2 = _pair_axes(state.modes, modes)
    d1, d2 = state.amps.shape[ax1], state.amps.shape[ax2]
    j_src, k_src, back = _bs_plan(d1, d2)
    perm = (ax1, ax2) + tuple(i for i in range(state.amps.ndim)
                              if i not in (ax1, ax2))
    pair = state.amps.transpose(perm)  # the pair's axes first
    gathered = np.ascontiguousarray(pair[j_src, k_src]).reshape(j_src.shape + (-1,))
    # real blocks times the interleaved (re, im) columns: a real matmul
    rotated = np.matmul(_bs_blocks(d1, d2, theta), gathered.view(np.float64))
    flat = rotated.view(np.complex128).reshape(-1, gathered.shape[2])[back]
    clipped = max(norm_sq(state) - float(np.vdot(flat, flat).real), 0.0)
    undo = [perm.index(i) for i in range(len(perm))]
    amps = flat.reshape(pair.shape).transpose(undo)
    return PureState(state.modes, amps, tail_mass=state.tail_mass + clipped)


def herald_beamsplitter(state: PureState, modes, transmissivity: float,
                        outcome: tuple[int, int],
                        ancilla: PureState | None = None) -> PureState:
    """Beamsplit two modes and project both outputs onto Fock outcomes.

    Equivalent to ``apply_beamsplitter`` followed by ``project_fock`` on each
    output port, but computed from the single total-photon sector the outcome
    lives in: it reads only that sector's slices of the input, in place.
    With ``ancilla`` the input is ``tensor(state, ancilla)``, never formed:
    each slice is the outer product of the two factors' slices.
    """
    theta = _bs_theta(transmissivity)
    n1, n2 = outcome
    labels, shape = state.modes, state.amps.shape
    if ancilla is not None:
        if set(labels) & set(ancilla.modes):
            raise ValueError("tensor factors share mode labels")
        labels, shape = labels + ancilla.modes, shape + ancilla.amps.shape
    ax1, ax2 = _pair_axes(labels, modes)
    d1, d2 = shape[ax1], shape[ax2]
    if not (0 <= n1 <= d1 - 1 and 0 <= n2 <= d2 - 1):
        raise ValueError(f"outcome {outcome} outside cutoffs")
    if len(labels) == 2:
        raise ValueError("heralding away every mode is not supported")
    s = n1 + n2
    row = _bs_sectors(s, theta)[s][n1]
    split = state.amps.ndim
    index = [slice(None)] * len(labels)
    branch = 0.0
    for j in range(max(0, s - (d2 - 1)), min(s, d1 - 1) + 1):
        index[ax1], index[ax2] = j, s - j
        piece = state.amps[tuple(index[:split])]
        if ancilla is not None:
            piece = np.multiply.outer(piece, ancilla.amps[tuple(index[split:])])
        branch = branch + row[j] * piece
    kept = tuple(m for m in labels if m not in modes)
    tail = state.tail_mass + (0.0 if ancilla is None else ancilla.tail_mass)
    return PureState(kept, branch, tail_mass=tail)


# ---------------------------------------------------------------------------
# projection, tracing, moments


def project_fock(state: PureState, mode: ModeLabel, n: int) -> PureState:
    """Project one mode onto |n> and drop it; the branch stays unnormalized."""
    ax = state.axis(mode)
    if not 0 <= n < state.amps.shape[ax]:
        raise ValueError(f"outcome {n} exceeds cutoff {state.amps.shape[ax] - 1}")
    if len(state.modes) == 1:
        raise ValueError("projecting away the last mode is not supported")
    amps = np.take(state.amps, n, axis=ax)
    modes = state.modes[:ax] + state.modes[ax + 1:]
    return PureState(modes, amps, tail_mass=state.tail_mass)


def _kept_by_traced(state: PureState, keep: Sequence[ModeLabel]) -> np.ndarray:
    """Amplitudes as a (kept x traced) matrix, kept modes in the state's order."""
    keep = list(keep)
    if not keep:
        raise ValueError("keep must be nonempty")
    missing = [m for m in keep if m not in state.modes]
    if missing:
        raise ValueError(f"keep contains unknown modes {missing}")
    kept = [i for i, m in enumerate(state.modes) if m in keep]
    traced = [i for i, m in enumerate(state.modes) if m not in keep]
    dim_keep = math.prod(state.amps.shape[i] for i in kept)
    return np.transpose(state.amps, kept + traced).reshape(dim_keep, -1)


def partial_trace(state: PureState, keep: Sequence[ModeLabel]) -> np.ndarray:
    """Reduced matrix of the modes in ``keep`` (in the state's own mode order),
    Hermitian, indexed by the row-major flattening of their multi-index; its
    trace is the state's squared norm."""
    mat = _kept_by_traced(state, keep)
    rho = mat @ mat.conj().T
    return 0.5 * (rho + rho.conj().T)  # scrub roundoff asymmetry


def _validate_factors(state: PureState, factors) -> list[tuple[int, str, int]]:
    factors = list(factors)
    if not 1 <= len(factors) <= 2:
        raise ValueError("spec must contain one or two quadrature factors")
    out = []
    for item in factors:
        try:
            mode, sign = item
        except Exception:
            raise ValueError(f"malformed quadrature factor {item!r}") from None
        ax = state.axis(mode)
        if sign not in ("+", "-"):
            raise ValueError(f"quadrature sign must be '+' or '-', got {sign!r}")
        out.append((ax, sign, state.amps.shape[ax]))
    return out


def _padded(arr: np.ndarray, pad: dict) -> np.ndarray:
    width = [(0, pad.get(ax, 0)) for ax in range(arr.ndim)]
    return np.pad(arr, width) if any(p for _, p in width) else arr


def quadrature_moment(state: PureState, factors) -> float:
    """Expectation of a product of quadratures X^+/X^- on named modes.

    ``factors`` is a sequence of (mode, sign) pairs, at most two, e.g.
    ``[("A", "+"), ("B", "+")]`` for <X+_A X+_B>.  Ladder matrix elements are
    exact: each involved mode is temporarily given one slot of headroom per
    factor, so moments are correct even when population touches the cutoff.
    The value is *not* normalized: for a subnormalized branch it returns
    <psi|O|psi>; divide by the squared norm as needed.
    """
    parsed = _validate_factors(state, factors)
    pad = {}
    for ax, _, _ in parsed:
        pad[ax] = pad.get(ax, 0) + 1
    psi = _padded(state.amps, pad)
    phi = psi
    for ax, sign, dim in reversed(parsed):
        phi = _apply_single_mode(phi, _quadrature(dim + pad[ax], sign), ax)
    return float(np.vdot(psi, phi).real)


def norm_sq(state: PureState) -> float:
    return state._norm_sq


def purity(state: PureState, keep: Sequence[ModeLabel]) -> float:
    """Tr(rho^2) of the trace-normalized reduced state of the modes in ``keep``.

    With M the (kept x traced) amplitude matrix, rho = M M' shares its nonzero
    spectrum with M' M, so the smaller of the two Gram matrices G gives
    Tr(rho^2) / Tr(rho)^2 = |G|_F^2 / Tr(G)^2 without forming rho itself.
    """
    mat = _kept_by_traced(state, keep)
    if mat.shape[0] <= mat.shape[1]:
        gram = mat @ mat.conj().T
    else:
        gram = mat.conj().T @ mat
    tr = float(np.trace(gram).real)
    return float(np.vdot(gram, gram).real) / (tr * tr)


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2 between normalized versions of two pure states."""
    if a.modes != b.modes or a.amps.shape != b.amps.shape:
        raise ValueError("states live on different mode layouts")
    ov = np.vdot(a.amps, b.amps)
    return float(abs(ov) ** 2 / (norm_sq(a) * norm_sq(b)))


def debug_serialize(state: PureState) -> str:
    """Text dump 'n1,...,nk: re,im' per basis state, sorted multi-index order.

    Amplitudes below ``_SERIALIZE_FLOOR`` in magnitude are omitted.  This is
    the golden-test serialization; the format is stable.
    """
    lines = []
    for idx in np.ndindex(*state.amps.shape):
        amp = state.amps[idx]
        if abs(amp) < _SERIALIZE_FLOOR:
            continue
        key = ",".join(str(i) for i in idx)
        lines.append(f"{key}: {amp.real:.17g},{amp.imag:.17g}")
    return "\n".join(lines)
