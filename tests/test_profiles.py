"""Profile synthesis, forecasting and ramp statistics."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridops import profiles
from gridops.profiles import (Profile, ProfileError, forecast,
                              ramp_stats, read_profile, scale_ver,
                              synthesize_error, variability, write_profile)


@dataclass
class Spec:
    pi: float
    gamma_cf: float
    A: float = 0.0


def test_variability_two_point():
    # rate rms = 10, value rms = 10/sqrt(2).
    assert variability(Profile([0.0, 10.0])) == pytest.approx(np.sqrt(2.0))


def test_variability_constant_zero():
    assert variability(Profile(np.full(100, 7.0))) == 0.0


def test_variability_sinusoid_tracks_frequency():
    w = 0.02
    t = np.arange(20000)
    p = Profile(np.sin(w * t))
    assert variability(p) == pytest.approx(w, rel=0.02)


def test_variability_undefined_for_zero_profile():
    with pytest.raises(ProfileError):
        variability(Profile(np.zeros(10)))


def test_scale_ver_constant_base():
    base = Profile(np.ones(1440))
    out = scale_ver(base, Spec(pi=0.4, gamma_cf=0.3), 10_000.0)
    assert out.values == pytest.approx(np.full(1440, 1200.0))


def test_scale_ver_zero_penetration():
    base = Profile(np.ones(1440))
    out = scale_ver(base, Spec(pi=0.0, gamma_cf=0.5), 10_000.0)
    assert np.all(out.values == 0.0)


def test_scale_ver_rejects_nonunit_mean():
    with pytest.raises(ProfileError):
        scale_ver(Profile(np.full(100, 2.0)), Spec(0.1, 0.3), 1000.0)


def test_scale_ver_variability_doubling():
    t = np.arange(43_200)  # 30 whole daily cycles, so the wrap is seamless
    base_vals = 1.0 + 0.5 * np.sin(2 * np.pi * t / 1440)
    base = Profile(base_vals / base_vals.mean())
    a0 = variability(base)
    spec = Spec(pi=0.4, gamma_cf=0.3, A=2 * a0 * 60.0)  # target in 1/h
    out = scale_ver(base, spec, 10_000.0)
    ref = scale_ver(base, Spec(pi=0.4, gamma_cf=0.3), 10_000.0)
    assert variability(out) == pytest.approx(2 * variability(ref), rel=0.01)


def test_scale_ver_constant_cannot_gain_variability():
    with pytest.raises(ProfileError):
        scale_ver(Profile(np.ones(100)), Spec(0.1, 0.3, A=1.0), 1000.0)


def test_best_forecast_constant():
    f = forecast(Profile(np.full(240, 500.0)), 0, 60, 4)
    assert f == pytest.approx(np.full(4, 500.0))


def test_best_forecast_linear_block_mean():
    # Samples 0..59 average to 29.5.
    f = forecast(Profile(np.arange(60.0)), 0, 60, 1)
    assert f == pytest.approx([29.5])


def test_best_forecast_shape_and_identity():
    p = Profile(np.linspace(5, 17, 120))
    assert len(forecast(p, 0, 60, 2)) == 2
    assert forecast(p, 0, 1, 120) == pytest.approx(p.values)


@pytest.mark.parametrize("m0,block,n,expected", [
    (30, 60, 1, [(30 * 44.5 + 30 * 59.0) / 60]),   # half past the end
    (60, 60, 2, [59.0, 59.0]),                      # wholly past the end
    (58, 1, 4, [58.0, 59.0, 59.0, 59.0]),           # 1-minute blocks
    (45, 15, 2, [52.0, 59.0]),                      # an RTUC-like window
], ids=["partly-past", "wholly-past", "minutes", "steps"])
def test_forecast_holds_last_sample_past_the_end(m0, block, n, expected):
    # Samples 0..59: minutes past 59 read the last sample, 59.
    p = Profile(np.arange(60.0))
    f = forecast(p, m0, block, n)
    assert f == pytest.approx(expected)
    # Same bytes as the block-by-block loop the engine used to run.
    ref = np.array([
        p.values[np.clip(np.arange(m0 + k * block, m0 + (k + 1) * block),
                         0, len(p) - 1)].mean() for k in range(n)])
    assert f.tobytes() == ref.tobytes()


def test_forecast_rejects_empty_block():
    with pytest.raises(ProfileError):
        forecast(Profile(np.arange(60.0)), 0, 0, 1)


def test_synthesize_error_zero_eps():
    assert np.all(synthesize_error(3, 0.0, 0.4, 10_000, 50) == 0.0)


def test_synthesize_error_calibrated_std():
    e = synthesize_error(42, 0.12, 0.4, 10_000.0, 10_000)
    assert e.std() == pytest.approx(480.0, rel=0.05)
    assert abs(e.mean()) < 0.05 * 480.0


def test_synthesize_error_deterministic():
    a = synthesize_error(9, 0.05, 0.3, 8000, 200, "short-term")
    b = synthesize_error(9, 0.05, 0.3, 8000, 200, "short-term")
    assert np.array_equal(a, b)


def test_synthesize_error_kinds_differ():
    a = synthesize_error(9, 0.05, 0.3, 8000, 200, "day-ahead")
    b = synthesize_error(9, 0.05, 0.3, 8000, 200, "short-term")
    assert not np.array_equal(a, b)


def _error_drawn_one_at_a_time(seed, eps, pi, peak_load, n_blocks, kind):
    """The AR(1) errors with each normal drawn by its own call."""
    phi = {"day-ahead": 0.6, "short-term": 0.3, "real-time": 0.2}[kind]
    rng = np.random.default_rng(seed)
    e = np.empty(n_blocks)
    prev = rng.standard_normal()
    w = np.sqrt(1.0 - phi * phi)
    for k in range(n_blocks):
        prev = phi * prev + w * rng.standard_normal()
        e[k] = prev
    return e * (eps * pi * peak_load)


@pytest.mark.parametrize("kind", ["day-ahead", "short-term", "real-time"])
@pytest.mark.parametrize("n_blocks", [0, 1, 24])
def test_synthesize_error_draws_the_stream_of_one_draw_per_block(kind,
                                                                 n_blocks):
    for seed in (0, 7, 12345, 2**40 + 3):
        got = synthesize_error(seed, 0.05, 0.3, 8000.0, n_blocks, kind)
        want = _error_drawn_one_at_a_time(seed, 0.05, 0.3, 8000.0,
                                          n_blocks, kind)
        assert got.tobytes() == want.tobytes()


# Seeds at the ends of one and of two 32-bit entropy words, and the
# largest the pool of four words holds.
EDGE_SEEDS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 - 1]
seed_values = st.one_of(st.sampled_from(EDGE_SEEDS),
                        st.integers(0, 2**32 - 1),
                        st.integers(0, 2**128 - 1))


@settings(max_examples=60)
@given(seeds=st.lists(seed_values, max_size=40),
       n_blocks=st.sampled_from([0, 1, 24]),
       kind=st.sampled_from(["day-ahead", "short-term", "real-time"]))
@example(seeds=[], n_blocks=24, kind="day-ahead")
@example(seeds=[7], n_blocks=0, kind="real-time")
@example(seeds=EDGE_SEEDS, n_blocks=1, kind="short-term")
def test_batched_seeding_is_numpys(seeds, n_blocks, kind):
    # The state words hashed for a batch are SeedSequence's, each row's
    # normals are default_rng's, and a batch's errors are, row by row,
    # bitwise those of each seed alone and of one draw per block.
    words = profiles._seed_words(seeds)
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
    normals = profiles._normals(seeds, n_blocks + 1)
    assert normals.shape == (len(seeds), n_blocks + 1)
    batch = synthesize_error(seeds, 0.05, 0.3, 8000.0, n_blocks, kind)
    assert batch.shape == (len(seeds), n_blocks)
    for seed, row, z, err in zip(seeds, words, normals, batch):
        want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert row.tobytes() == want.tobytes()
        assert z.tobytes() == np.random.default_rng(seed).standard_normal(
            n_blocks + 1).tobytes()
        one = synthesize_error(seed, 0.05, 0.3, 8000.0, n_blocks, kind)
        assert one.shape == (n_blocks,)
        assert one.tobytes() == err.tobytes() == _error_drawn_one_at_a_time(
            seed, 0.05, 0.3, 8000.0, n_blocks, kind).tobytes()


@pytest.mark.parametrize("seeds", [-1, 2**128, [3, -1], [2**128, 3]])
def test_seeds_outside_the_pool_raise(seeds):
    with pytest.raises(ProfileError, match=r"\[0, 2\*\*128\)"):
        synthesize_error(seeds, 0.05, 0.3, 8000.0, 4)


def test_a_hash_other_than_numpys_raises(monkeypatch):
    # Were numpy's SeedSequence to hash otherwise, the first seed's check
    # fails instead of drawing other errors.
    steps = list(profiles._STATE_STEPS)
    steps[0] = (steps[0][0], steps[0][1] + np.uint32(1))
    monkeypatch.setattr(profiles, "_STATE_STEPS", steps)
    with pytest.raises(RuntimeError, match="SeedSequence"):
        synthesize_error([5, 6], 0.05, 0.3, 8000.0, 4)
    assert synthesize_error([], 0.05, 0.3, 8000.0, 4).shape == (0, 4)


def test_make_forecast_zero_error():
    p = Profile(np.linspace(10, 70, 120))
    f = forecast(p, 0, 60, 2, np.zeros(2))
    assert f == pytest.approx(forecast(p, 0, 60, 2))
    assert f == pytest.approx([np.mean(p.values[:60]), np.mean(p.values[60:])])


def test_make_forecast_subtracts_and_floors():
    p = Profile(np.full(120, 100.0))
    f = forecast(p, 0, 60, 2, np.array([30.0, 0.0]))
    assert f == pytest.approx([70.0, 100.0])
    low = forecast(Profile(np.full(60, 10.0)), 0, 60, 1, np.array([30.0]))
    assert low == pytest.approx([0.0])


def test_make_forecast_caps_at_capacity():
    p = Profile(np.full(60, 90.0))
    f = forecast(p, 0, 60, 1, np.array([-50.0]), capacity=100.0)
    assert f == pytest.approx([100.0])


def test_ramp_stats_1min():
    rs = ramp_stats(Profile([0.0, 10.0, 20.0]), "1min")
    assert rs.max_up == 10.0
    assert rs.max_down == 0.0


def test_ramp_stats_4h_monotone():
    p = Profile(np.linspace(0.0, 240.0, 241))
    rs = ramp_stats(p, "4h")
    assert rs.max_up == pytest.approx(1.0)
    assert rs.max_down == 0.0


def test_ramp_ordering_coarser_never_exceeds_finer():
    rng = np.random.default_rng(5)
    vals = np.cumsum(rng.normal(scale=3.0, size=2880)) + 500.0
    p = Profile(vals)
    m1 = ramp_stats(p, "1min")
    m10 = ramp_stats(p, "10min")
    h1 = ramp_stats(p, "1h")
    a1 = max(m1.max_up, m1.max_down)
    a10 = max(m10.max_up, m10.max_down)
    a60 = max(h1.max_up, h1.max_down)
    assert a60 <= a10 + 1e-9 <= a1 + 1e-9


def test_profile_csv_roundtrip(tmp_path):
    p = Profile(np.array([1.5, 2.0, 3.25]), start=10)
    path = tmp_path / "p.csv"
    write_profile(path, p)
    q = read_profile(path)
    assert q.start == 10
    assert q.values == pytest.approx(p.values)


def test_profile_csv_rejects_gap(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("minute,value_mw\n0,1.0\n2,2.0\n")
    with pytest.raises(ProfileError):
        read_profile(path)


def _read_profile_by_line(path) -> Profile:
    """The per-line reader read_profile replaced, kept as its reference."""
    minutes: list[int] = []
    vals: list[float] = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "minute,value_mw":
            raise ProfileError(f"{path}: bad profile header {header!r}")
        for ln, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                m_s, v_s = line.split(",")
                minutes.append(int(m_s))
                vals.append(float(v_s))
            except ValueError as exc:
                raise ProfileError(f"{path}:{ln}: bad row {line!r}") from exc
    if not vals:
        raise ProfileError(f"{path}: empty profile")
    start = minutes[0]
    for i, m in enumerate(minutes):
        if m != start + i:
            raise ProfileError(f"{path}: minute index gap at {m}")
    return Profile(np.array(vals), start=start)


EDGE_VALUES = ["1e-7", "-0.000000", "  3.25  ", "\t-2.5", "0.1", ".5", "5.",
               "+.5e+01", "1.7976931348623157e308", "5e-324",
               "123456789.123456789", "-1E-300", "0.000001", "1_000.5"]


@pytest.mark.parametrize("body", [
    "".join(f"{i + 7},{v}\n" for i, v in enumerate(EDGE_VALUES[:-1])),
    "".join(f" {i + 7} , {v}\n" for i, v in enumerate(EDGE_VALUES)),
    "0,1.0",                                 # one row, no newline
    "0,1.0\r\n1,2.0\r\n\r\n   \n2,3.0\n\n",  # CRLF, blank rows
    "0,1.0\r1,2.0\r\r2,x\r",                # CR alone, a bad row
    "+3,1\n0004,2\n5,inf\n",                 # signs, zeros; non-finite
    "1_0,1\n11,2\n",                         # int() takes underscores
    "", "\n  \n",                            # empty
    "0,1\n2,2\n", "5,1\n4,2\n",              # gaps
    "0,1\n\n1,2,3\n", "0,1\n1,2 # c\n", "0,1.0\n1.0,2\n", "0,1\n1,\n",
    "0,1\n1,0x1p3\n", "0,1\n1\n", "0,1\n99999999999999999999,2\n",
], ids=["edge_values", "padded_fields", "one_row", "crlf_blank", "cr_bad_row",
        "signs_nonfinite", "underscores", "empty", "blank_only", "gap",
        "backwards", "three_fields", "comment", "float_minute",
        "missing_value", "hex_value", "one_field", "huge_minute"])
@pytest.mark.parametrize("header", ["minute,value_mw", " minute,value_mw ",
                                    "minute,value"])
def test_read_profile_matches_the_per_line_reader(tmp_path, header, body):
    """From the file and from its bytes, as load_scenario reads it."""
    path = tmp_path / "p.csv"
    path.write_bytes(f"{header}\n{body}".encode())
    for data in (None, path.read_bytes()):
        try:
            want = _read_profile_by_line(path)
        except ProfileError as exc:
            with pytest.raises(ProfileError) as got:
                read_profile(path, data)
            assert str(got.value) == str(exc)
            continue
        got = read_profile(path, data)
        assert got.start == want.start
        assert got.values.dtype == np.float64 and got.values.flags.c_contiguous
        assert got.values.tobytes() == want.values.tobytes()


def test_read_profile_values_are_those_of_float(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("minute,value_mw\n" + "".join(
        f"{i},{v}\n" for i, v in enumerate(EDGE_VALUES)))
    got = read_profile(path).values
    assert got.tobytes() == np.array([float(v) for v in EDGE_VALUES]).tobytes()
    assert np.signbit(got[1])                  # -0.000000 stays -0.0


def test_read_profile_refuses_a_minute_read_through_a_float(tmp_path,
                                                             monkeypatch):
    # numpy 1.23 to 1.26 parse "1.0" in an integer field through a float
    # (truncating "2.7" to 2) with only a DeprecationWarning; such a file
    # is refused and named by its row whatever numpy is installed.
    path = tmp_path / "p.csv"
    path.write_text("minute,value_mw\n0,1.0\n1.0,2\n")

    def old_loadtxt(fh, dtype, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is "
                      "deprecated.", DeprecationWarning, stacklevel=2)
        return np.array([(0, 1.0), (1, 2.0)], dtype=dtype)
    monkeypatch.setattr(np, "loadtxt", old_loadtxt)
    with pytest.raises(ProfileError, match=r"p\.csv:3: bad row '1\.0,2'$"):
        read_profile(path)
