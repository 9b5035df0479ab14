import importlib.resources
import math
import os
import pwd
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import require_kernel
from lftcipher import lorenz
from lftcipher.lorenz import (
    DISTURBANCE_INTERVAL,
    MAX_BURN_IN,
    MAX_KEYSTREAM_LENGTH,
    IntegrationError,
    Keystream,
    LorenzParams,
    derive_keystream,
    integrate,
    keystream,
    lorenz_derivatives,
    rk4_step,
)

STD = dict(a=10.0, b=28.0, c=8 / 3)

# true flow from (1,1,1) over t=0.01, frozen from two independent
# high-precision integrations (8th-order adaptive and RK4 at h=1e-6)
# that agree to 1e-13
TRUE_FLOW_001 = (1.0125657329784097, 1.2599200262523371, 0.9848910449164658)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            LorenzParams(1, 1, 1, step=0.0)
        with pytest.raises(ValueError):
            LorenzParams(1, 1, 1, step=-0.1)
        with pytest.raises(ValueError):
            LorenzParams(1, 1, 1, burn_in=-1)
        with pytest.raises(ValueError):
            LorenzParams(math.inf, 1, 1)

    @pytest.mark.parametrize("burn_in", [1.5, True, "7", None])
    def test_burn_in_must_be_an_integer(self, burn_in):
        with pytest.raises(ValueError, match="integer"):
            LorenzParams(1, 1, 1, burn_in=burn_in)

    @pytest.mark.parametrize("burn_in", [MAX_BURN_IN + 1, 10**12, 2**70])
    def test_burn_in_is_capped(self, burn_in):
        with pytest.raises(ValueError, match="burn_in"):
            LorenzParams(1, 1, 1, burn_in=burn_in)

    def test_burn_in_bounds_accepted(self):
        assert LorenzParams(1, 1, 1, burn_in=MAX_BURN_IN).burn_in == MAX_BURN_IN
        assert LorenzParams(1, 1, 1, burn_in=np.int64(7)).burn_in == 7

    def test_defaults(self):
        p = LorenzParams(0.1, 0.2, 0.3)
        assert (p.a, p.b, p.c) == (10.0, 28.0, 8 / 3)
        assert p.step == 0.01
        assert p.burn_in == 100


class TestRk4Step:
    def test_origin_is_equilibrium(self):
        assert lorenz_derivatives(0.0, 0.0, 0.0, **STD) == (0.0, 0.0, 0.0)
        state = (0.0, 0.0, 0.0)
        for _ in range(50):
            state = rk4_step(*state, **STD, h=0.01)
            assert state == (0.0, 0.0, 0.0)

    def test_single_step_against_high_precision_flow(self):
        got = rk4_step(1.0, 1.0, 1.0, **STD, h=0.01)
        # one classical RK4 step carries ~2e-6 local truncation error here;
        # the frozen reference itself is good to 1e-13
        for g, want in zip(got, TRUE_FLOW_001):
            assert abs(g - want) < 5e-6

    def test_reference_flow_reproducible_at_1e9(self):
        scipy = pytest.importorskip("scipy")
        from scipy.integrate import solve_ivp

        sol = solve_ivp(
            lambda t, s: list(lorenz_derivatives(*s, **STD)),
            (0, 0.01),
            [1.0, 1.0, 1.0],
            method="DOP853",
            rtol=1e-12,
            atol=1e-12,
        )
        for got, want in zip(sol.y[:, -1], TRUE_FLOW_001):
            assert abs(got - want) < 1e-9

    def test_fourth_order_convergence(self):
        # halving h must shrink the one-interval error by about 2^4
        def err(h):
            state = (1.0, 1.0, 1.0)
            for _ in range(round(0.01 / h)):
                state = rk4_step(*state, **STD, h=h)
            return max(abs(g - w) for g, w in zip(state, TRUE_FLOW_001))

        e1, e2 = err(0.01), err(0.005)
        assert 10 < e1 / e2 < 22


class TestIntegrate:
    def test_count_required(self):
        with pytest.raises(ValueError):
            integrate(LorenzParams(1, 1, 1), 0)

    def test_first_sample_is_disturbed_step(self):
        p = LorenzParams(1.0, 1.0, 1.0, burn_in=0)
        traj = integrate(p, 1)
        x, y, z = rk4_step(1.0, 1.0, 1.0, **STD, h=0.01)
        assert z > 0  # so the +0.2 / -0.1 branch applies
        assert traj[0].tolist() == [x + 0.2, y - 0.1, z]

    def test_negative_z_branch(self):
        # c < 0 drives z negative immediately from z0 < 0
        p = LorenzParams(0.0, 0.0, -5.0, a=0.0, b=0.0, c=-1.0, step=0.01, burn_in=0)
        traj = integrate(p, 1)
        assert traj[0, 2] <= 0
        x, y, z = rk4_step(0.0, 0.0, -5.0, 0.0, 0.0, -1.0, 0.01)
        assert traj[0, 0] == x + 0.1
        assert traj[0, 1] == y - 0.2

    def test_disturbance_feeds_forward(self):
        p = LorenzParams(1.0, 1.0, 1.0, burn_in=0)
        traj = integrate(p, 2)
        nxt = rk4_step(*traj[0].tolist(), **STD, h=0.01)
        assert tuple(traj[1].tolist()) == nxt

    def test_trigger_fires_again_at_10001(self):
        p = LorenzParams(1.0, 1.0, 1.0, burn_in=0)
        traj = integrate(p, DISTURBANCE_INTERVAL + 1)
        sx, sy, sz = rk4_step(*traj[-2].tolist(), **STD, h=0.01)
        dx = 0.1 if sz <= 0 else 0.2
        dy = -0.2 if sz <= 0 else -0.1
        assert traj[-1].tolist() == [sx + dx, sy + dy, sz]

    def test_burn_in_equivalence(self):
        p = LorenzParams(1.0, 1.0, 1.0, burn_in=7)
        state = (1.0, 1.0, 1.0)
        for _ in range(7):
            state = rk4_step(*state, **STD, h=0.01)
        p0 = LorenzParams(*state, burn_in=0)
        assert np.array_equal(integrate(p, 20), integrate(p0, 20))

    def test_deterministic(self):
        p = LorenzParams(0.3, -0.4, 10.5)
        assert np.array_equal(integrate(p, 500), integrate(p, 500))

    @pytest.mark.parametrize("count", [1, 2, 10_001])
    def test_one_contiguous_row_per_sample(self, count):
        traj = integrate(LorenzParams(0.3, -0.4, 10.5), count)
        assert traj.shape == (count, 3)
        assert traj.dtype == np.float64
        assert traj.flags.c_contiguous

    def test_overflow_names_step(self):
        p = LorenzParams(1.0, 1.0, 1.0, step=50.0, burn_in=0)
        with pytest.raises(IntegrationError, match="step"):
            integrate(p, 10_000)


class TestIntegrateFallback(TestIntegrate):
    """The same cases on the pure-Python loop."""

    @pytest.fixture(autouse=True)
    def _python_loop(self, monkeypatch):
        monkeypatch.setattr(lorenz, "_load_kernel", lambda: None)


def _both_paths(monkeypatch, fn):
    """fn() on the kernel, then on the Python loop."""
    require_kernel()
    on_kernel = fn()
    with monkeypatch.context() as m:
        m.setattr(lorenz, "_load_kernel", lambda: None)
        return on_kernel, fn()


def _bytes(traj):
    """x, then y, then z samples: the byte order the trajectory pins were taken in."""
    return traj.T.tobytes()


@pytest.fixture
def fresh_loader():
    """An empty loader cache, emptied again afterwards so later tests reload."""
    lorenz._load_kernel.cache_clear()
    yield
    lorenz._load_kernel.cache_clear()


class TestKernelParity:
    @pytest.mark.parametrize("burn_in", [0, 7, 100])
    def test_bytewise_equal(self, burn_in, monkeypatch):
        rng = np.random.default_rng(2024 + burn_in)
        for x0, y0, z0 in rng.uniform(-15, 15, (5, 3)):
            p = LorenzParams(x0, y0, z0 + 20, burn_in=burn_in)
            kernel, python = _both_paths(monkeypatch, lambda: integrate(p, 30003))
            assert _bytes(kernel) == _bytes(python)

    @pytest.mark.parametrize("burn_in, phase", [(100, "burn-in step"), (0, "at step")])
    def test_error_text_identical(self, burn_in, phase, monkeypatch):
        p = LorenzParams(1.0, 1.0, 1.0, step=50.0, burn_in=burn_in)

        def message():
            with pytest.raises(IntegrationError) as err:
                integrate(p, 10_000)
            return str(err.value)

        kernel, python = _both_paths(monkeypatch, message)
        assert kernel == python
        assert phase in kernel

    @pytest.mark.parametrize("burn_in, text", [
        (3, "non-finite state at burn-in step 3"),
        (2, "non-finite state at step 3"),
    ])
    def test_error_text_at_burn_in_edge(self, burn_in, text, monkeypatch):
        # the state first goes non-finite at absolute step 3: the last
        # burn-in step for burn_in=3, the first sample for burn_in=2
        p = LorenzParams(1.0, 1.0, 1.0, step=50.0, burn_in=burn_in)

        def message():
            with pytest.raises(IntegrationError) as err:
                integrate(p, 10)
            return str(err.value)

        assert _both_paths(monkeypatch, message) == (text, text)


class TestKernelLoading:
    def _reference(self, monkeypatch):
        p = LorenzParams(0.3, -0.4, 10.5)
        with monkeypatch.context() as m:
            m.setattr(lorenz, "_load_kernel", lambda: None)
            return p, _bytes(integrate(p, 30003))

    def test_no_compiler_falls_back_silently(self, fresh_loader, monkeypatch, tmp_path, capfd):
        p, want = self._reference(monkeypatch)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))
        assert _bytes(integrate(p, 30003)) == want
        assert lorenz._load_kernel() is None
        assert capfd.readouterr() == ("", "")
        assert not list((tmp_path / "cache" / "lftcipher").iterdir())

    def test_cached_per_user_with_private_dir(self, fresh_loader, monkeypatch, tmp_path, capfd):
        p, want = self._reference(monkeypatch)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        require_kernel()
        assert _bytes(integrate(p, 30003)) == want
        assert capfd.readouterr() == ("", "")
        cache = tmp_path / "lftcipher"
        assert os.stat(cache).st_mode & 0o777 == 0o700
        (so,) = cache.iterdir()
        assert so.name.startswith("rk4-") and so.suffix == ".so"

    @pytest.mark.parametrize("shared", [False, True])
    def test_unusable_cache_builds_in_private_tempdir(
        self, shared, fresh_loader, monkeypatch, tmp_path, capfd
    ):
        p, want = self._reference(monkeypatch)
        if shared:
            # an existing cache dir others can write to is never loaded from
            cache_home = tmp_path / "shared"
            (cache_home / "lftcipher").mkdir(parents=True)
            os.chmod(cache_home / "lftcipher", 0o777)
        else:
            # a regular file where the cache dir should be: mkdir fails even as root
            cache_home = tmp_path / "file"
            cache_home.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
        private_tmp = tmp_path / "tmp"
        private_tmp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(private_tmp))
        require_kernel()
        assert _bytes(integrate(p, 30003)) == want
        assert capfd.readouterr() == ("", "")
        assert not list(private_tmp.iterdir())
        if shared:
            assert not list((cache_home / "lftcipher").iterdir())

    def test_relative_cache_builds_in_private_tempdir(
        self, fresh_loader, monkeypatch, tmp_path, capfd
    ):
        # no HOME and no passwd entry: "~/.cache" stays unexpanded
        p, want = self._reference(monkeypatch)
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("HOME", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)

        def no_entry(uid):
            raise KeyError(uid)

        monkeypatch.setattr(pwd, "getpwuid", no_entry)
        assert not os.path.isabs(os.path.expanduser("~/.cache"))
        require_kernel()
        assert _bytes(integrate(p, 30003)) == want
        assert capfd.readouterr() == ("", "")
        assert not list(tmp_path.iterdir())

    def test_concurrent_first_use(self, tmp_path):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler to build the RK4 kernel")
        code = (
            "import hashlib; from lftcipher import lorenz; "
            "ks = lorenz.keystream(lorenz.LorenzParams(0.3, -0.4, 10.5), 4096); "
            "assert lorenz._load_kernel() is not None; "
            "print(hashlib.sha256(ks.k.tobytes() + ks.perm.tobytes() + ks.mask.tobytes()"
            " + ks.selectors.tobytes()).hexdigest())"
        )
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(lorenz.__file__).parents[1]),
            "XDG_CACHE_HOME": str(tmp_path),
        }
        procs = [
            subprocess.Popen([sys.executable, "-c", code], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for _ in range(4)
        ]
        results = [proc.communicate(timeout=300) for proc in procs]
        assert [proc.returncode for proc in procs] == [0] * 4, results
        digests = {out for out, _ in results}
        assert len(digests) == 1, results
        (so,) = (tmp_path / "lftcipher").iterdir()
        assert so.name.startswith("rk4-") and so.suffix == ".so"

    def test_source_ships_with_package(self):
        assert (importlib.resources.files("lftcipher") / "_rk4.c").is_file()

    def test_source_builds_without_warnings(self, tmp_path):
        require_kernel()
        build = subprocess.run(
            ["cc", *lorenz._KERNEL_FLAGS, "-Wall", "-Wextra", "-Werror",
             "-o", str(tmp_path / "rk4.so"), str(lorenz._KERNEL_SOURCE)],
            capture_output=True, text=True, timeout=120,
        )
        assert build.returncode == 0, build.stderr


class TestFractional:
    """keystream's k is v - floor(v) of the interleaved trajectory."""

    def test_scalar_cases(self, monkeypatch):
        traj = np.array([[3.25, 0.5, -3.0], [-1.75, -0.5, 1.0 - 1e-12], [0.0, 2.0, 100.25]])
        monkeypatch.setattr(lorenz, "integrate", lambda params, count: traj)
        k = keystream(LorenzParams(1.0, 1.0, 1.0), 9).k
        assert k.tolist() == [0.25, 0.5, 0.0, 0.25, 0.5, 1.0 - 1e-12, 0.0, 0.0, 0.25]
        assert not np.signbit(k).any()

    def test_range_invariant(self):
        k = keystream(LorenzParams(1.2, 3.4, 5.6), 6000).k
        assert k.min() >= 0.0
        assert k.max() < 1.0

    def test_fraction_rounding_to_one_is_clamped(self):
        # with b = 0.5 the trajectory decays to the origin through negative x;
        # x - floor(x) first rounds to 1.0 at index 52,081, where x ~ -5.5e-17
        p = LorenzParams(1.1, 2.3, 3.7, b=0.5)
        k = keystream(p, 65536).k
        assert k.max() < 1.0
        assert k[52_081] == np.nextafter(1.0, 0.0)
        assert np.array_equal(k[:52_081], keystream(p, 52_081).k)


class TestSingleBuffer:
    """k is the flat (count, 3) trajectory, cut to length, with no copy."""

    # image-sized, and n = 0, 1, 2 (mod 3)
    @pytest.mark.parametrize("n", [65535, 65536, 65537])
    def test_k_is_fractional_part_of_flat_trajectory(self, n):
        p = LorenzParams(1.1, 2.2, 3.3)
        v = integrate(p, -(-n // 3)).ravel()[:n]
        assert np.array_equal(keystream(p, n).k, v - np.floor(v))

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_k_shares_the_integrated_buffer(self, monkeypatch, n):
        traj = np.random.default_rng(n).uniform(-20, 20, (-(-n // 3), 3))
        monkeypatch.setattr(lorenz, "integrate", lambda params, count: traj)
        ks = keystream(LorenzParams(1.0, 1.0, 1.0), n)
        assert ks.k.size == n
        assert np.shares_memory(ks.k, traj)


# lengths at and around the digest's block edges, and the lengths below
EDGE_LENGTHS = sorted(
    {1, 2, lorenz._BLOCK - 1, lorenz._BLOCK, lorenz._BLOCK + 1, 65_535, 65_536, 65_537, 200_003}
)


def planted_k(n: int, kind: str) -> np.ndarray:
    """Increasing k in [0, 1), so index order is sorted order, with a tie
    planted across every multiple e of the digest's block: the same value at
    e - 1 and e ("equal"), x + 1 ulp then x ("low-bits", which the packed
    sort keys cannot tell apart), or x + 1 ulp, x, x + 1 ulp, x over
    e - 2 .. e + 1 ("run").  x has its low 16 bits clear, so the ulp never
    carries into the bits the keys keep."""
    k = np.sort(np.random.default_rng(n).uniform(0, 1, n))
    for e in range(lorenz._BLOCK, n - 1, lorenz._BLOCK):
        x = (k[e - 2 : e - 1].view(np.uint64) >> 16 << 16).view(np.float64)[0]
        y = np.nextafter(x, 1.0)
        if kind == "equal":
            k[e - 1 : e + 1] = x
        elif kind == "low-bits":
            k[e - 1 : e + 1] = (y, x)
        else:
            k[e - 2 : e + 2] = (y, x, y, x)
    return k


class TestDeriveKeystream:
    @pytest.mark.parametrize("kind", ["equal", "low-bits", "run"])
    @pytest.mark.parametrize("n", EDGE_LENGTHS)
    def test_block_edges(self, n, kind):
        k = planted_k(n, kind)
        ks = derive_keystream(k)
        assert np.array_equal(ks.perm, np.argsort(k, kind="stable"))
        scaled = k * 1e4
        assert np.array_equal(ks.mask, (np.floor(scaled + 0.5).astype(np.int64) % 256))
        assert np.array_equal(ks.selectors, (np.floor(scaled).astype(np.int64) % 16))

    def test_zero_entry(self):
        ks = derive_keystream(np.array([0.0]))
        assert ks.mask[0] == 0
        assert ks.selectors[0] == 0

    def test_sort_permutation(self):
        ks = derive_keystream(np.array([0.5, 0.1, 0.9]))
        assert ks.perm.tolist() == [1, 0, 2]

    def test_ties_broken_by_lower_index(self):
        ks = derive_keystream(np.array([0.5, 0.1, 0.5, 0.1]))
        assert ks.perm.tolist() == [1, 3, 0, 2]

    def test_round_half_away_from_zero(self):
        # 0.02575 * 1e4 = 257.5 exactly in binary64; round half away gives 258
        assert (0.02575 * 1e4) == 257.5
        ks = derive_keystream(np.array([0.02575]))
        assert ks.mask[0] == 2
        assert ks.selectors[0] == 257 % 16

    def test_mask_and_selector_formulas(self):
        rng = np.random.default_rng(9)
        k = rng.uniform(0, 1, 300)
        ks = derive_keystream(k)
        for i, v in enumerate(k):
            assert ks.mask[i] == int(math.floor(v * 1e4 + 0.5)) % 256
            assert ks.selectors[i] == int(math.floor(v * 1e4)) % 16

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            derive_keystream(np.array([1.0]))
        with pytest.raises(ValueError):
            derive_keystream(np.array([-0.1]))
        with pytest.raises(ValueError):
            derive_keystream(np.array([0.5, math.nan]))

    @pytest.mark.parametrize(
        "k",
        [
            np.array([]),
            np.array([0.25]),
            np.full(1000, 0.5),
            np.random.default_rng(12).integers(0, 7, 5000) / 8,
            np.concatenate([np.random.default_rng(13).uniform(0, 1, 4999), [0.0]])[::-1],
            np.array([0.3, -0.0, 0.0, 0.3, -0.0]),
        ],
        ids=["empty", "single", "all-equal", "many-ties", "no-ties", "signed-zeros"],
    )
    def test_perm_is_stable_argsort(self, k):
        assert np.array_equal(derive_keystream(k).perm, np.argsort(k, kind="stable"))

    def test_keeps_float64_k(self):
        k = np.array([0.5, 0.25])
        assert derive_keystream(k).k is k

    def test_perm_is_bijection(self):
        rng = np.random.default_rng(10)
        ks = derive_keystream(rng.uniform(0, 1, 10_000))
        assert np.array_equal(np.sort(ks.perm), np.arange(10_000))

    def test_selector_range_respects_count(self):
        rng = np.random.default_rng(11)
        ks = derive_keystream(rng.uniform(0, 1, 1000))
        assert ks.selectors.max() < 16


class TestKeystream:
    def test_pure_function_of_params(self):
        p = LorenzParams(0.11, 0.22, 0.33)
        k1 = keystream(p, 4096)
        k2 = keystream(p, 4096)
        assert np.array_equal(k1.mask, k2.mask)
        assert np.array_equal(k1.perm, k2.perm)
        assert np.array_equal(k1.selectors, k2.selectors)
        assert np.array_equal(k1.k, k2.k)

    def test_sensitivity_to_tiny_x0_change(self):
        # a 1e-10 perturbation grows at the largest Lyapunov exponent
        # (~0.9 per time unit), so it cannot surface in the mask bytes for
        # the first ~15 time units = ~1500 samples; with burn_in=100 the
        # stream prefix is therefore unavoidably identical and the overall
        # changed fraction tops out near 0.91, not 0.99.  The tail must be
        # fully decorrelated, and ciphertext-level sensitivity (which the
        # rank permutation amplifies globally) is asserted in the cipher
        # tests at > 99%.
        base = LorenzParams(1.1, 2.3, 3.7)
        moved = LorenzParams(1.1 + 1e-10, 2.3, 3.7)
        k1 = keystream(base, 65536)
        k2 = keystream(moved, 65536)
        diff = k1.mask != k2.mask
        assert diff.mean() >= 0.85
        assert diff[32768:].mean() >= 0.99
        assert not np.array_equal(k1.perm, k2.perm)

    def test_mask_histogram_roughly_uniform(self):
        ks = keystream(LorenzParams(1.1, 2.3, 3.7), 65536)
        counts = np.bincount(ks.mask, minlength=256)
        expected = 65536 / 256
        sigma = math.sqrt(65536 * (1 / 256) * (255 / 256))
        assert np.all(np.abs(counts - expected) <= 5 * sigma)

    def test_length_one_required(self):
        with pytest.raises(ValueError):
            keystream(LorenzParams(1, 1, 1), 0)

    @pytest.mark.parametrize("length", [MAX_KEYSTREAM_LENGTH + 1, 2**40])
    def test_length_bounded_before_integration(self, monkeypatch, length):
        def unreachable(*args):
            raise AssertionError("integrate reached")

        monkeypatch.setattr(lorenz, "integrate", unreachable)
        with pytest.raises(ValueError, match="length must be in"):
            keystream(LorenzParams(1, 1, 1), length)

    def test_lengths(self):
        ks = keystream(LorenzParams(1, 1, 1), 100)
        assert len(ks) == 100
        assert isinstance(ks, Keystream)
