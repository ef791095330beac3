"""Shared numerical primitives.

Standard-normal distribution functions, splittable deterministic
random-number streams, and the integer and real checks shared by the config
classes.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "std_normal_cdf",
    "std_normal_quantile",
    "RngStream",
    "PRNG_NAME",
]

# Generator recorded in all output metadata; see RngStream.
PRNG_NAME = "numpy PCG64 seeded via SeedSequence(master_seed, spawn_key=path)"

_SQRT2 = np.sqrt(2.0)

# Uniform draws live on the grid k/2^53 in [0, 1); an exact zero (probability
# 2^-53) is nudged up so the inverse-CDF transform stays finite.
_MIN_UNIFORM = 2.0 ** -55


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return arr


def std_normal_cdf(z):
    """Standard normal CDF, accurate to well below 1e-12 absolute error.

    Accepts a scalar or array; non-finite input raises ValueError. scipy.special
    is imported here, so a study, which never calls this, does not load it.
    """
    from scipy.special import erfc

    arr = _as_float_array(z, "z")
    out = 0.5 * erfc(-arr / _SQRT2)
    return float(out) if np.isscalar(z) or arr.ndim == 0 else out


# Coefficients of the AS 241 (PPND16) rational approximations to the
# standard normal quantile function; max absolute error below 1e-15.
_P_CENTRAL = (
    3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
    1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
)
_Q_CENTRAL = (
    1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
    5.3941960214247511077e3, 2.1213794301586595867e4, 3.9307895800092710610e4,
    2.8729085735721942674e4, 5.2264952788528545610e3,
)
_P_MIDTAIL = (
    1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
    3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
)
_Q_MIDTAIL = (
    1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
    6.89767334985100004550e-1, 1.48103976427480074590e-1, 1.51986665636164571966e-2,
    5.47593808499534494600e-4, 1.05075007164441684324e-9,
)
_P_FARTAIL = (
    6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
    2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
)
_Q_FARTAIL = (
    1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
    1.48753612908506148525e-2, 7.86869131145613259100e-4, 1.84631831751005468180e-5,
    1.42151175831644588870e-7, 2.04426310338993978564e-15,
)


def _ratpoly(p_coefs, q_coefs, r: np.ndarray) -> np.ndarray:
    num = np.full_like(r, p_coefs[-1])
    for c in p_coefs[-2::-1]:
        num = num * r + c
    den = np.full_like(r, q_coefs[-1])
    for c in q_coefs[-2::-1]:
        den = den * r + c
    return num / den


def std_normal_quantile(p):
    """Standard normal quantile function (inverse CDF).

    Uses the AS 241 rational approximations (Wichura's PPND16), whose stated
    maximum error is far below the 1e-9 contract. Accepts a scalar or array;
    every element must lie strictly inside (0, 1).
    """
    arr = np.asarray(p, dtype=float)
    with np.errstate(invalid="ignore"):
        bad = ~((arr > 0.0) & (arr < 1.0))
    if np.any(bad):
        raise ValueError(f"probability must lie strictly in (0, 1), got {p!r}")
    scalar = np.isscalar(p) or arr.ndim == 0
    arr = np.atleast_1d(arr)

    q = arr - 0.5
    out = np.empty_like(arr)

    central = np.abs(q) <= 0.425
    if np.any(central):
        r = 0.180625 - q[central] * q[central]
        out[central] = q[central] * _ratpoly(_P_CENTRAL, _Q_CENTRAL, r)

    tail = ~central
    if np.any(tail):
        p_tail = np.where(q[tail] < 0.0, arr[tail], 1.0 - arr[tail])
        r = np.sqrt(-np.log(p_tail))
        val = np.empty_like(r)
        mid = r <= 5.0
        val[mid] = _ratpoly(_P_MIDTAIL, _Q_MIDTAIL, r[mid] - 1.6)
        val[~mid] = _ratpoly(_P_FARTAIL, _Q_FARTAIL, r[~mid] - 5.0)
        out[tail] = np.where(q[tail] < 0.0, -val, val)

    return float(out[0]) if scalar else out


def _checked_index(value, name: str) -> int:
    """``value`` as an int; a bool, a float (integral or not) or a string
    raises a ValueError that names it."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def _checked_real(value, name: str) -> float:
    """``value`` as a float; a bool, a string, None or any other non-number
    raises a ValueError that names it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


# numpy's SeedSequence hash (O'Neill's seed_seq_fe): a pool of four uint32
# words, mixed with these constants. NEP 19 keeps them stable.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
# PCG64's 128-bit LCG multiplier (O'Neill 2014) as 64-bit words.
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_U64 = np.uint64


def _u32_words(value: int) -> list[int]:
    """SeedSequence's split of a nonnegative int into uint32 words, low first."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value, const: int, mult: int):
    """One SeedSequence hash step on a Python int or a uint32 array.

    Returns the hashed value and the next hash constant.
    """
    const_next = (const * mult) & _MASK32
    value = ((value ^ const) * const_next) & _MASK32
    return value ^ (value >> _XSHIFT), const_next


def _mix(x, y):
    """SeedSequence's mix of a pool word x with a hashed word y (ints or arrays)."""
    result = ((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)
    result = result & _MASK32
    return result ^ (result >> _XSHIFT)


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, by 32-bit limbs."""
    a_lo, a_hi = a & _U64(_MASK32), a >> _U64(32)
    b_lo, b_hi = _U64(b & _MASK32), _U64(b >> 32)
    t = a_lo * b_lo
    u = a_hi * b_lo + (t >> _U64(32))
    v = a_lo * b_hi + (u & _U64(_MASK32))
    return a_hi * b_hi + (u >> _U64(32)) + (v >> _U64(32))


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One 128-bit LCG step, state * multiplier + inc mod 2^128, on (hi, lo) words."""
    new_hi = _mulhi64(lo, _PCG_MULT_LO) + lo * _U64(_PCG_MULT_HI) + hi * _U64(_PCG_MULT_LO)
    new_lo = lo * _U64(_PCG_MULT_LO) + inc_lo
    return new_hi + inc_hi + (new_lo < inc_lo), new_lo


@dataclass(frozen=True)
class RngStream:
    """Immutable descriptor of a deterministic random-number stream.

    The same (master_seed, path) always materializes the same sample
    sequence; distinct paths give statistically independent streams. Path
    mixing is delegated to numpy's SeedSequence hash, and draws come from
    PCG64, so behaviour is reproducible across platforms and parallelism.
    ``generator`` materializes one stream; ``child_uniforms`` expands many
    sibling streams at once, bit-identical to their generators.
    """

    master_seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        # Integers only: int() would truncate a fractional seed or index.
        try:
            seed = operator.index(self.master_seed)
            path = tuple(operator.index(k) for k in self.path)
        except TypeError:
            raise ValueError(
                f"master_seed and path entries must be integers, got "
                f"{self.master_seed!r} and {self.path!r}"
            ) from None
        if not 0 <= seed < 2 ** 64:
            raise ValueError("master_seed must be an unsigned 64-bit integer")
        if any(k < 0 for k in path):
            # SeedSequence's own message, raised where the descriptor is built.
            raise ValueError("expected non-negative integer")
        object.__setattr__(self, "master_seed", seed)
        object.__setattr__(self, "path", path)

    def child(self, *indices: int) -> "RngStream":
        """Sub-stream descriptor with the given indices appended to the path."""
        return RngStream(self.master_seed, self.path + tuple(indices))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream's sequence."""
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))

    def child_uniforms(self, n: int, size: int) -> np.ndarray:
        """The first ``size`` uniforms of each of the children 0 .. n-1.

        Row i equals ``self.child(i).generator().random(size)`` bit for bit.
        The streams are expanded in one vectorised pass: the SeedSequence
        hash of the master seed and the path runs once on Python ints, and
        the hash of the child index, ``generate_state(4, uint64)``, PCG64
        seeding, its XSL-RR output and the doubles ``(x >> 11) * 2^-53`` run
        on arrays over the children. Child indices must fit one uint32 word,
        so n may not exceed 2^32; a negative path entry raises the
        ValueError SeedSequence raises.
        """
        n, size = int(n), int(size)
        if not 0 <= n <= 2 ** 32:
            raise ValueError(f"n must lie in [0, 2**32], got {n}")
        if size < 0:
            raise ValueError(f"size must be nonnegative, got {size}")
        seed_words = _u32_words(self.master_seed)
        path_words = [w for k in self.path for w in _u32_words(k)]

        # SeedSequence.mix_entropy on the entropy words. A spawn key is
        # present, so the seed's words are zero-padded to the pool size.
        entropy = seed_words + [0] * (_POOL_SIZE - len(seed_words)) + path_words
        pool, const = [], _INIT_A
        for word in entropy[:_POOL_SIZE]:
            word, const = _hashmix(word, const, _MULT_A)
            pool.append(word)
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    word, const = _hashmix(pool[src], const, _MULT_A)
                    pool[dst] = _mix(pool[dst], word)
        # The child index is the last entropy word, so only its round runs on
        # arrays; it leaves every pool word an array over the children.
        for word in entropy[_POOL_SIZE:] + [np.arange(n, dtype=np.uint32)]:
            for dst in range(_POOL_SIZE):
                hashed, const = _hashmix(word, const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)

        # generate_state(4, uint64): eight uint32 words, paired low first.
        state32, const = [], _INIT_B
        for k in range(2 * _POOL_SIZE):
            word, const = _hashmix(pool[k % _POOL_SIZE], const, _MULT_B)
            state32.append(word.astype(np.uint64))
        seed_hi, seed_lo, seq_hi, seq_lo = (
            state32[2 * k] | (state32[2 * k + 1] << _U64(32)) for k in range(4)
        )

        # pcg_setseq_128_srandom_r: inc = 2 * initseq + 1; the state starts at
        # inc (one step from zero), adds initstate and steps again.
        inc_hi = (seq_hi << _U64(1)) | (seq_lo >> _U64(63))
        inc_lo = (seq_lo << _U64(1)) | _U64(1)
        lo = inc_lo + seed_lo
        hi = inc_hi + seed_hi + (lo < seed_lo)
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)

        out = np.empty((n, size))
        for j in range(size):
            hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
            # XSL-RR 128/64: xor the halves, rotate right by the top six bits.
            x, rot = hi ^ lo, hi >> _U64(58)
            x = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
            out[:, j] = (x >> _U64(11)) * 2.0 ** -53
        return out
