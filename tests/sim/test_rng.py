"""Tests for reproducible RNG streams."""

import ast
import hashlib
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.sim import RngRegistry
from repro.sim.rng import RngStream, _sha256
from repro.sim.ziggurat import FE, KE, WE

ROOT = Path(__file__).resolve().parents[2]


def test_same_seed_same_sequence():
    a = RngRegistry(7).stream("flows")
    b = RngRegistry(7).stream("flows")
    assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]


def test_different_names_differ():
    reg = RngRegistry(7)
    a = reg.stream("flows")
    b = reg.stream("faults")
    assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]


def test_different_seeds_differ():
    a = RngRegistry(1).stream("x")
    b = RngRegistry(2).stream("x")
    assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]


def test_stream_is_cached():
    reg = RngRegistry(0)
    assert reg.stream("x") is reg.stream("x")


def test_construction_order_does_not_matter():
    reg1 = RngRegistry(3)
    s1a = reg1.stream("a")
    reg1.stream("b")
    first = [s1a.uniform() for _ in range(3)]

    reg2 = RngRegistry(3)
    reg2.stream("b")
    s2a = reg2.stream("a")
    second = [s2a.uniform() for _ in range(3)]
    assert first == second


def test_randint_bounds():
    s = RngRegistry(0).stream("r")
    values = [s.randint(3, 7) for _ in range(200)]
    assert min(values) >= 3
    assert max(values) <= 6


def test_randint_rejects_an_empty_range_like_numpy():
    s = RngRegistry(0).stream("r")
    for low, high in ((3, 3), (5, 2)):
        with pytest.raises(ValueError):
            s.randint(low, high)
        with pytest.raises(ValueError):
            np.random.default_rng(0).integers(low, high)


def test_pareto_respects_scale():
    s = RngRegistry(0).stream("p")
    values = [s.pareto(1.5, 10.0) for _ in range(200)]
    assert all(v >= 10.0 for v in values)


def test_choice_picks_members():
    s = RngRegistry(0).stream("c")
    options = ["a", "b", "c"]
    assert all(s.choice(options) in options for _ in range(50))


def test_bernoulli_extremes():
    s = RngRegistry(0).stream("b")
    assert not any(s.bernoulli(0.0) for _ in range(20))
    assert all(s.bernoulli(1.0) for _ in range(20))


# ------------------------------------------------------------ stream seeds
#: stream names a run creates: fabric switches, the bench workloads'
#: request sizes, serving tenants, and the name tests use most
STREAM_NAMES = (
    "switch:spine0", "switch:leaf0.0", "switch:leaf0.1", "switch:tor0.0",
    "switch:tor3.12", "bench.request-bytes",
    *(f"bench.bulk-bytes.{src}" for src in range(7)),
    *(f"bench.io-bytes.{host}" for host in range(8, 12)),
    "serving.mix.h0", "serving.mix.h1", "flows",
)


def test_sha256_matches_hashlib_at_every_padding_length():
    # 0-300 bytes covers every padding case: the 55/56 and 119/120 edges
    # where the length field spills into another block, and 63/64 where
    # the message fills one.
    data = bytes(range(256)) * 2
    for length in range(301):
        assert _sha256(data[:length]) == \
            hashlib.sha256(data[:length]).digest(), length


def test_sha256_matches_hashlib_on_random_multiblock_input():
    driver = random.Random(0)
    for _ in range(50):
        data = driver.randbytes(driver.randint(64, 2000))
        assert _sha256(data) == hashlib.sha256(data).digest()


@pytest.mark.parametrize("root_seed", (0, 1, 7, 2**63 + 5))
def test_stream_seeds_match_the_hashlib_formula(root_seed):
    registry = RngRegistry(root_seed)
    for name in STREAM_NAMES:
        digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
        assert registry.stream(name).seed == \
            int.from_bytes(digest[:8], "little"), name


# ------------------------------------------------------ differential oracle
#: spans ``high - low`` that reach every branch of numpy's bounded integers:
#: no draw (1), 32-bit Lemire with rare and with frequent rejection, the
#: raw 32-bit draw (2**32), 64-bit Lemire, the raw 64-bit draw (2**64)
RANDINT_SPANS = (1, 2, 3, 7, 100, 2**16 + 1, 3 * 2**30, 2**32 - 1, 2**32,
                 2**32 + 1, 2**40 + 3, 3 * 2**62, 2**64)
ORACLE_CALLS = 200_000
ORACLE_SEEDS = (0, 1, 2**63 + 5, 2**64 - 1,
                RngRegistry(1).stream("flows").seed)


class PathCountingStream(RngStream):
    """Counts the raw words each call draws, so the oracle can show it
    exercised the rare branches and not just the fast paths."""

    def __init__(self, name, seed):
        super().__init__(name, seed)
        self.words = []                 # u64 words drawn by the current call
        self.draws32 = 0
        self.buffered32 = 0

    def _next64(self):
        word = super()._next64()
        self.words.append(word)
        return word

    def _next32(self):
        self.draws32 += 1
        self.buffered32 += self._half is not None
        return super()._next32()


def _oracle_calls(stream, gen, driver):
    """One random public call on ``stream`` and the same call through the
    wrappers the numpy-backed ``RngStream`` used; yields (ours, numpy's,
    method name)."""
    while True:
        method = driver.choice(("uniform", "uniform_default", "randint",
                                "exponential", "pareto", "choice",
                                "bernoulli"))
        if method == "uniform":
            low = driver.uniform(-1e6, 1e6)
            high = low + driver.choice((0.0, 1.0, driver.uniform(0, 1e9)))
            yield (stream.uniform(low, high),
                   float(gen.uniform(low, high)), method)
        elif method == "uniform_default":
            yield stream.uniform(), float(gen.uniform()), method
        elif method == "randint":
            span = driver.choice(RANDINT_SPANS)
            low = driver.randint(-2**63, 2**63 - span)
            yield (stream.randint(low, low + span),
                   int(gen.integers(low, low + span)), method)
        elif method == "exponential":
            mean = driver.uniform(0.0, 1e6)
            yield (stream.exponential(mean),
                   float(gen.exponential(mean)), method)
        elif method == "pareto":
            shape = driver.uniform(0.5, 5.0)
            scale = driver.uniform(1.0, 1e6)
            yield (stream.pareto(shape, scale),
                   float(scale * (1.0 + gen.pareto(shape))), method)
        elif method == "choice":
            seq = range(driver.randint(1, 40))
            yield (stream.choice(seq),
                   seq[int(gen.integers(0, len(seq)))], method)
        else:
            p = driver.random()
            yield stream.bernoulli(p), bool(gen.uniform() < p), method


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_every_draw_matches_numpy_default_rng(seed):
    stream = PathCountingStream("oracle", seed)
    gen = np.random.default_rng(seed)
    driver = random.Random(seed)
    paths = dict.fromkeys(("ziggurat_tail", "ziggurat_wedge",
                           "lemire_rejection"), 0)
    calls = _oracle_calls(stream, gen, driver)
    for index in range(ORACLE_CALLS):
        stream.words.clear()
        draws32 = stream.draws32
        ours, theirs, method = next(calls)
        assert ours == theirs and type(ours) is type(theirs), \
            (seed, index, method, ours, theirs)
        if method in ("exponential", "pareto"):
            ri = stream.words[0] >> 3
            idx, ri = ri & 0xFF, ri >> 8
            if ri >= KE[idx]:
                paths["ziggurat_tail" if idx == 0 else "ziggurat_wedge"] += 1
        elif method in ("randint", "choice") and (
                stream.draws32 - draws32 > 1 or len(stream.words) > 1):
            paths["lemire_rejection"] += 1
    paths["half_buffer"] = stream.buffered32
    assert all(count > 0 for count in paths.values()), paths


def test_ziggurat_tables_are_numpys_own_bytes():
    """An entry one ulp off flips a ziggurat branch too rarely for the
    oracle above to see, so each table must also appear byte for byte in
    numpy's compiled random modules."""
    compiled = b"".join(
        path.read_bytes()
        for path in sorted(Path(np.random.__file__).parent.iterdir())
        if path.suffix in (".so", ".pyd"))
    assert struct.pack("<256Q", *KE) in compiled
    assert struct.pack("<256d", *WE) in compiled
    assert struct.pack("<256d", *FE) in compiled


# ------------------------------------------------------------ import guard
def test_no_import_of_numpy_under_src():
    importers = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert importers == []


def test_run_path_never_imports_numpy():
    code = ("import sys\n"
            "import repro, repro.cluster, repro.fleet, repro.tools.xr_fleet\n"
            "import bench.workloads\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))))
    # This process has numpy loaded (the oracle needs it), so only a fresh
    # interpreter shows what the run path imports; no simulation runs here.
    done = subprocess.run(  # xr-lint: disable=blocking-call
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_run_path_never_loads_openssl():
    code = ("import sys\n"
            "import repro, repro.cluster, bench.workloads\n"
            "for workload in ('rpc-pingpong', 'incast-bulk', "
            "'serving-mix', 'storage-pangu'):\n"
            "    bench.workloads.run_pass(workload, 1, 'setup')\n"
            "print('_hashlib' in sys.modules)\n")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))))
    # Seeding streams hashes in pure Python; only a TieAudit or an
    # explicit window digest imports hashlib (and with it OpenSSL's
    # _hashlib), and a serving summary asks for neither.
    done = subprocess.run(  # xr-lint: disable=blocking-call
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "False"
