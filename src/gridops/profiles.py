"""Profile synthesis and manipulation for loads and renewable resources.

A profile is a 1-minute MW series.  Renewable shapes are stored normalized
to unit mean so that scaling by capacity factor, penetration and peak load
produces the target fleet; variability is adjusted by resampling the shape
in time.
"""

from __future__ import annotations

import functools
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np


# Fields (the index counts as one) formatted per write_rows chunk: large
# enough that the per-chunk cost vanishes, small enough that a chunk's
# byte buffer, about fields x field width bytes, stays a few hundred KB.
FIELD_CHUNK = 20_000

# y = |x| * 1e6 is off the exact product by at most half its ulp, under
# 1.12e-16 * y, so rint(y) rounds as the exact product does unless y lies
# within 2.3e-16 * y of a half.  From 0.5 / 2.3e-16 (about 2.2e15) up,
# where the float spacing reaches 0.5, every y fails that test, so rint
# only sees values whose fraction is exact and whose integer part fits
# uint32; write_rows prints the others with ``%``.
_HALF_GUARD = 2.3e-16


class ProfileError(ValueError):
    pass


@dataclass
class Profile:
    values: np.ndarray
    start: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or len(self.values) < 1:
            raise ProfileError("profile needs at least one sample")
        if not np.all(np.isfinite(self.values)):
            raise ProfileError("profile contains non-finite values")

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class RampStats:
    resolution: str                    # 1min | 10min | 1h | 4h
    max_up: float                      # MW/min
    max_down: float                    # MW/min, magnitude
    series: np.ndarray = field(default_factory=lambda: np.zeros(0))


_BLOCK_MINUTES = {"1min": 1, "10min": 10, "1h": 60}


def variability(p: Profile) -> float:
    """RMS of the forward-difference rate over RMS of the values, 1/min."""
    v = p.values
    if len(v) < 2:
        raise ProfileError("variability needs at least two samples")
    denom = float(np.sqrt(np.mean(v * v)))
    if denom == 0.0:
        raise ProfileError("variability undefined for an all-zero profile")
    rate = np.diff(v)
    return float(np.sqrt(np.mean(rate * rate))) / denom


def resample(values: np.ndarray, alpha: float) -> np.ndarray:
    """Sample values(alpha*t) with linear interpolation and periodic wrap,
    as many samples as ``values`` holds."""
    n = len(values)
    t = (alpha * np.arange(n)) % n
    ext = np.concatenate([values, values[:1]])
    return np.interp(t, np.arange(n + 1), ext)


def scale_ver(base: Profile, spec, peak_load: float) -> Profile:
    """Scale a unit-mean shape to a fleet with the requested penetration,
    capacity factor and variability.

    ``spec`` provides pi, gamma_cf, A (target variability, 1/h; 0 keeps the
    base timing).
    """
    v = base.values
    if len(v) == 0:
        raise ProfileError("empty base shape")
    mean = float(v.mean())
    if abs(mean - 1.0) > 1e-6:
        raise ProfileError(f"base shape mean {mean:.6f} is not 1")
    target_a = float(getattr(spec, "A", 0.0) or 0.0) / 60.0  # 1/h -> 1/min
    if target_a > 0.0:
        a0 = variability(base)
        if a0 == 0.0:
            raise ProfileError("cannot scale the variability of a constant shape")
        alpha = target_a / a0
    else:
        alpha = 1.0
    out = resample(v, alpha)
    scale = spec.gamma_cf * spec.pi * peak_load
    return Profile(out * scale, start=base.start)


def forecast(p: Profile, m0, block_minutes: int, n_blocks: int,
             errors=0.0, capacity: float = np.inf) -> np.ndarray:
    """Block means of the samples over [m0, m0 + n_blocks*block_minutes)
    minus ``errors``, clamped to [0, capacity].

    ``m0`` indexes the samples; the last sample is held past the end of the
    profile.  ``m0`` may be an array of window starts: the result then has
    one row of ``n_blocks`` per window, and ``errors`` one row per window
    too.
    """
    if block_minutes <= 0:
        raise ProfileError("block duration must be positive")
    idx = np.clip(np.add.outer(m0, np.arange(n_blocks * block_minutes)),
                  0, len(p) - 1)
    best = p.values[idx].reshape(np.shape(m0) + (n_blocks, block_minutes)) \
        .mean(axis=-1)
    return np.clip(best - np.asarray(errors, dtype=float), 0.0, capacity)


_PHI = {"day-ahead": 0.6, "short-term": 0.3, "real-time": 0.2}

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) over 32-bit
# words: a pool of four words mixed from the entropy, then read out as
# the state.  Its multipliers step in a fixed sequence, so each hashmix
# call's (xor, multiplier) pair is known in advance: four to fill the
# pool, twelve to mix it, and eight to read out four uint64 words.
_MASK32 = 0xFFFFFFFF
_MIX_L, _MIX_R = np.uint32(0xca01f9dd), np.uint32(0x4973f715)
_SHIFT = np.uint32(16)
_POOL = 4


def _hash_steps(init: int, mult: int, count: int) -> list[tuple]:
    """The (xor, multiplier) pairs of ``count`` hashmix calls: the hash
    constant before and after each multiplication by ``mult``."""
    steps, h = [], init
    for _ in range(count):
        nxt = (h * mult) & _MASK32
        steps.append((np.uint32(h), np.uint32(nxt)))
        h = nxt
    return steps


_MIX_STEPS = _hash_steps(0x43b0d7e5, 0x931e8875, _POOL * _POOL)
_STATE_STEPS = _hash_steps(0x8b51f9dd, 0x58f38ded, 2 * _POOL)


def _seed_words(seeds: list[int]) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` for every
    seed ``s`` in [0, 2**128), one row each, hashed as arrays.

    A seed below 2**128 is at most four entropy words, and a missing word
    hashes as a zero one, so every seed fills the pool the same way.
    """
    try:
        entropy = np.frombuffer(b"".join(
            operator.index(s).to_bytes(4 * _POOL, "little") for s in seeds),
            dtype="<u4").reshape(-1, _POOL).astype(np.uint32)
    except OverflowError:
        raise ProfileError("error seeds must lie in [0, 2**128)") from None
    steps = iter(_MIX_STEPS)

    def hashmix(value):
        xor, mult = next(steps)
        value = (value ^ xor) * mult
        return value ^ (value >> _SHIFT)

    pool = [hashmix(entropy[:, i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> _SHIFT)
    state = np.empty((len(entropy), 2 * _POOL), dtype="<u4")
    for i, (xor, mult) in enumerate(_STATE_STEPS):
        value = (pool[i % _POOL] ^ xor) * mult
        state[:, i] = value ^ (value >> _SHIFT)
    return state.view("<u8").astype(np.uint64)


@functools.cache
def _generator_of_words():
    """A function making ``Generator(PCG64(SeedSequence(s)))`` from the
    state words :func:`_seed_words` hashed for ``s``.  numpy.random is
    imported here, on the first draw, so importing gridops does not pay
    for it."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Hashed(ISeedSequence):
        """A seed sequence whose state words are already hashed."""
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return lambda words: Generator(PCG64(Hashed(words)))


def _normals(seeds: list[int], count: int) -> np.ndarray:
    """``np.random.default_rng(s).standard_normal(count)`` for every seed
    ``s`` in [0, 2**128), one row each: numpy's own PCG64 seeded with the
    state words :func:`_seed_words` hashed for all the seeds at once.  The
    first seed's words are checked against ``np.random.SeedSequence``, so
    a numpy whose hash differs raises instead of drawing other normals."""
    words = _seed_words(seeds)
    if seeds and not np.array_equal(
            words[0], np.random.SeedSequence(seeds[0]).generate_state(
                _POOL, np.uint64)):
        raise RuntimeError("numpy's SeedSequence no longer hashes as "
                           "profiles._seed_words does")
    generator = _generator_of_words()
    return np.array([generator(w).standard_normal(count)
                     for w in words]).reshape(len(seeds), count)


def synthesize_error(seed, eps: float, pi: float, peak_load: float,
                     n_blocks: int, kind: str = "day-ahead") -> np.ndarray:
    """Zero-mean error blocks with std eps*pi*peak_load, from an AR(1)
    unit-variance driver.

    ``seed`` is one seed, giving ``n_blocks`` errors, or a sequence of
    seeds, giving one row per seed; one seed is a batch of one.  Seeds lie
    in [0, 2**128).  Each row's ``n_blocks + 1`` normals are what one
    ``np.random.default_rng(s).standard_normal`` call draws
    (:func:`_normals`), and the recurrence runs across the rows one step
    at a time, each element through the floating-point operations of a
    one-seed loop.
    """
    if eps < 0:
        raise ProfileError("negative error std")
    phi = _PHI[kind]
    z = _normals([seed] if np.ndim(seed) == 0 else list(seed), n_blocks + 1)
    w = np.sqrt(1.0 - phi * phi)
    e = np.empty((len(z), n_blocks))
    x = z[:, 0]
    for j in range(n_blocks):
        x = phi * x + w * z[:, j + 1]
        e[:, j] = x
    e *= eps * pi * peak_load
    return e[0] if np.ndim(seed) == 0 else e


def ramp_stats(p: Profile, resolution: str) -> RampStats:
    """Ramp-rate distribution at a given resolution, MW/min."""
    if resolution in _BLOCK_MINUTES:
        bm = _BLOCK_MINUTES[resolution]
        n = (len(p) // bm) * bm
        if n < 2 * bm:
            raise ProfileError(f"profile too short for {resolution} ramps")
        blocks = p.values[:n].reshape(-1, bm).mean(axis=1)
        rates = np.diff(blocks) / bm
    elif resolution == "4h":
        win, stride = 240, 60
        if len(p) < win:
            raise ProfileError("profile too short for a 4-hour window")
        rates = []
        for s in range(0, len(p) - win + 1, stride):
            w = p.values[s:s + win]
            imax = int(np.argmax(w))
            imin = int(np.argmin(w))
            if imax == imin:
                rates.append(0.0)
                continue
            r = (w[imax] - w[imin]) / abs(imax - imin)
            # Up-ramp if the peak comes after the trough.
            rates.append(r if imax > imin else -r)
        rates = np.array(rates)
    else:
        raise ProfileError(f"unknown resolution {resolution!r}")
    up = float(max(rates.max(initial=0.0), 0.0))
    down = float(max((-rates).max(initial=0.0), 0.0))
    return RampStats(resolution, up, down, rates)


# One profile row as np.loadtxt reads it.
_ROW = np.dtype([("minute", np.int64), ("value", np.float64)])


def read_profile(path) -> Profile:
    """Read the `minute,value_mw` CSV format.

    The rows are parsed by one ``np.loadtxt`` call.  It takes a subset of
    the fields ``int`` and ``float`` take, with the same values; a file it
    refuses is parsed again row by row, which names the first bad row.
    Some numpy versions read a minute such as ``1.0`` or ``2.7`` through a
    float with a DeprecationWarning; that warning counts as a refusal.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "minute,value_mw":
            raise ProfileError(f"{path}: bad profile header {header!r}")
        try:
            with warnings.catch_warnings():
                # An empty profile is reported below.
                warnings.simplefilter("ignore", UserWarning)
                warnings.simplefilter("error", DeprecationWarning)
                rows = np.loadtxt(fh, dtype=_ROW, delimiter=",",
                                  comments=None, ndmin=1)
        except (ValueError, DeprecationWarning):
            fh.seek(0)
            fh.readline()
            minutes, vals = _parse_rows(path, fh)
        else:
            minutes, vals = rows["minute"], np.ascontiguousarray(rows["value"])
    if not len(vals):
        raise ProfileError(f"{path}: empty profile")
    gap = np.flatnonzero(minutes != minutes[0] + np.arange(len(minutes)))
    if gap.size:
        raise ProfileError(f"{path}: minute index gap at {minutes[gap[0]]}")
    return Profile(vals, start=int(minutes[0]))


def _parse_rows(path, lines) -> tuple[np.ndarray, np.ndarray]:
    """The minutes and values of the ``lines`` after the header, one row
    at a time; raises ProfileError naming the first row ``int``/``float``
    refuse (blank rows are skipped but counted)."""
    minutes: list[int] = []
    vals: list[float] = []
    for ln, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            m_s, v_s = line.split(",")
            minutes.append(int(m_s))
            vals.append(float(v_s))
        except ValueError as exc:
            raise ProfileError(f"{path}:{ln}: bad row {line!r}") from exc
    return np.array(minutes), np.array(vals)


def chunk_rows(fields: int) -> int:
    """Rows per write_rows chunk for rows of ``fields`` fields, the index
    included."""
    return max(1, FIELD_CHUNK // fields)


def write_rows(path, header: list[str], n: int, columns,
               first: int = 0, unsigned: bool = False) -> None:
    """Write a CSV of ``header`` and then ``n`` rows ``i,v1,...,vk`` for
    ``i`` from ``first``: the bytes of ``%d`` for the index and of
    ``%.6f`` for each value.

    ``columns`` holds arrays of ``n`` rows, each one value (1-D) or a group
    of values (2-D, possibly with no columns) per row, laid out left to
    right.  The rows are formatted ``chunk_rows(k + 1)`` at a time, about
    FIELD_CHUNK fields, into one byte buffer, and each chunk is written at
    once, so no whole-file string is ever built.  With ``unsigned`` a value
    in [-5e-7, 0] is printed as ``0.000000``, so rounding noise cannot
    flip a sign in the output bytes.
    """
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        rows = chunk_rows(1 + sum(np.shape(c)[1] if np.ndim(c) == 2 else 1
                                  for c in columns))
        for s in range(0, n, rows):
            e = min(s + rows, n)
            values = np.column_stack([np.empty((e - s, 0))]
                                     + [c[s:e] for c in columns])
            if unsigned:
                values[(values <= 0.0) & (values >= -5e-7)] = 0.0
            fh.write(_format_rows(np.arange(first + s, first + e), values))


def _format_rows(index: np.ndarray, values: np.ndarray) -> bytes:
    """The bytes of the rows ``index[i],values[i, 0],...`` as ``%d`` and
    ``%.6f`` print them, formatted by array arithmetic.

    Each field gets a fixed width for the chunk: ``,``, a sign byte, the
    integer digits right-aligned, ``.`` and six decimals; its unused bytes
    stay 0 and are dropped at the end.  ``rint(|x| * 1e6)`` is the
    correctly rounded sixth decimal unless ``|x| * 1e6`` lies within twice
    its rounding error of a half (_HALF_GUARD); those values, and the
    non-finite ones, are printed by ``%`` into the same buffer.
    """
    rows = len(index)
    y = np.abs(values)
    with np.errstate(over="ignore", invalid="ignore"):
        y *= 1e6
        # NaN compares false, so NaN and the infinities are slow too.
        slow = ~(np.abs(y - np.floor(y) - 0.5) > _HALF_GUARD * y)
    y[slow] = 0.0
    ip, frac = np.divmod(np.rint(y).astype(np.int64), 10 ** 6)
    texts = ["%.6f" % v for v in values[slow].tolist()]
    fast_digits = len(str(ip.max(initial=0)))
    width = max([fast_digits] + [len(t) - 8 for t in texts])
    index_digits = len(str(np.abs(index[[0, -1]]).max()))

    field = width + 9
    line = np.zeros((rows, index_digits + 2 + values.shape[1] * field),
                    np.uint8)
    line[:, 0] = (index < 0) * np.uint8(ord("-"))
    _put_digits(line[:, 1:index_digits + 1], np.abs(index), 1)
    fields = line[:, index_digits + 1:-1].reshape(rows, values.shape[1],
                                                 field)
    fields[..., 0] = ord(",")
    fields[..., 1] = np.signbit(values) * np.uint8(ord("-"))
    _put_digits(fields[..., width + 2 - fast_digits:width + 2],
                ip.astype(np.uint32), 1)
    fields[..., width + 2] = ord(".")
    _put_digits(fields[..., width + 3:], frac.astype(np.uint32), 6)
    if texts:
        fields[slow, 1:] = np.frombuffer(
            "".join(t.rjust(field - 1, "\0") for t in texts).encode(),
            np.uint8).reshape(len(texts), field - 1)
    line[:, -1] = ord("\n")
    return line.tobytes().translate(None, b"\0")


def _put_digits(out: np.ndarray, q: np.ndarray, keep: int) -> None:
    """Write the decimal digits of the non-negative integers ``q`` right-
    aligned into the last axis of ``out``; left of the ``keep`` rightmost
    positions a digit ``q`` does not have is a 0 byte."""
    width = out.shape[-1]
    for j in range(width):
        q10 = q // 10
        digit = q - 10 * q10
        digit += ord("0")
        if j >= keep:
            digit *= q > 0
        out[..., width - 1 - j] = digit
        q = q10


def write_profile(path, p: Profile) -> None:
    write_rows(path, ["minute", "value_mw"], len(p), [p.values],
               first=p.start)
