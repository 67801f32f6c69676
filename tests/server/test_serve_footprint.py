"""What ``repro serve`` serves, pinned: table fingerprints, compiled
tables and views.

The session store's META ties every ``--data-dir`` to the table
fingerprint of the scenario it served, so a changed digest would make
the server refuse existing stores: the three served contexts are
pinned to full digests here, and so are the tables compiled from them,
on both kernel backends.  Serving reads only state IDs and the CSR
arrays of the interleaved product, so building a context, warming a
shard's localizer and localizing a capture must construct no
:class:`~repro.core.interleave.InterleavedTransition` at all -- cold
or from a cache entry loaded off disk -- and the server must not
import the analysis stack it never runs, hash its tables more than once
or run Step 2 twice at start-up, or run a second OS thread.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import os
import subprocess
import sys
import tracemalloc
from array import array

import pytest

import repro
from repro import perf
from repro.core import arrays
from repro.core.interleave import InterleavedTransition, interleave
from repro.runtime.cache import ArtifactCache, set_default_cache
from repro.selection import kernels
from repro.selection.kernels import TableRegistry
from repro.selection.localization import PathLocalizer
from repro.server import ServeContext, ServerConfig
from repro.server.shard import Shard
from repro.stream.service import synthetic_session_records
from repro.stream.session import SessionManager

SERVED = [
    (1, 1, "prefix",
     "4cd6db7806ff5a003464503d96381639dab7ac29474d64cf6778c3d07fc7662c"),
    (2, 2, "window",
     "4f9f287bad048048fcb6eb127176b894c26013f826ff9b0e5046ab5fd957808d"),
    (3, 2, "prefix",
     "472d302d660f76453452dd9b2890e05cae832b1b64a5652779371e033af731b4"),
]


#: Digests of the tables compiled from each served context (see
#: :func:`tables_digest`), keyed by ``(scenario, instances)``.
SERVED_TABLES = {
    (1, 1):
        "d9f7f591387ecc844d59c92e50dc1ef694106d6c79861be2f61b4e45c97a45fa",
    (2, 2):
        "10364291e5c7945accced3fa6475d9a03a14637fb93c93d8f1d65e2de22dcc97",
    (3, 2):
        "f7011cd848ed4a8d90825d9ac3ef02b2c6c88d50a830a038fe4cf9ced8940b1d",
}

#: Bytes those tables hold (``CompiledTables.nbytes``), each column in
#: the narrowest width its range needs: on sc3x2 2-byte operators and
#: closure targets, 4-byte row bounds and closure weights.
SERVED_BYTES = {(1, 1): 952, (2, 2): 254_160, (3, 2): 8_471_520}

BACKENDS = ("numpy", "python") if arrays.have_numpy() else ("python",)


@pytest.mark.parametrize("number, instances, mode, digest", SERVED)
def test_served_fingerprint_is_pinned(number, instances, mode, digest):
    context = ServeContext.from_scenario(
        number, instances=instances, mode=mode
    )
    localizer = PathLocalizer(context.interleaved, context.traced)
    assert localizer.fingerprint() == digest


def test_a_two_shard_start_hashes_the_tables_once(monkeypatch):
    served = ServeContext.from_scenario(1)
    # a fresh product, which no earlier fingerprint call has seen
    context = ServeContext.from_components(
        interleave(served.interleaved.components),
        served.traced,
        served.catalog,
    )
    hashed = []
    digest = kernels._table_digest
    monkeypatch.setattr(
        kernels,
        "_table_digest",
        lambda *args: hashed.append(args) or digest(*args),
    )
    shards = [Shard(index, context, ServerConfig()) for index in (0, 1)]
    assert len(hashed) == 1
    assert {shard.fingerprint for shard in shards} == {SERVED[0][3]}


def test_a_cold_context_runs_step_2_once(tmp_path):
    """The with- and without-packing selections of a cold start share
    one exhaustive Step 2 search."""
    set_default_cache(ArtifactCache(tmp_path))
    try:
        with perf.collect() as counters:
            ServeContext.from_scenario(3, instances=2)
    finally:
        set_default_cache(None)
    histograms = counters.as_dict()["histograms"]
    assert histograms["select_exhaustive"]["count"] == 1


def tables_digest(tables) -> str:
    """SHA-256 of a compiled table set: every state's closure row
    ``(targets, weights)`` in state order, every operator's ``(src,
    tgt)`` (by message ID, then by plain message name) and
    ``int64_limit``.  Every column is hashed as int64 whatever width
    the table stores it in."""
    lengths = array("q")
    targets = array("q")
    weights = []
    for lo, hi in zip(tables._row_lo, tables._row_hi):
        lengths.append(hi - lo)
        targets.fromlist(tables._ctgt[lo:hi].tolist())
        weights.extend(tables._cweight[lo:hi])
    digest = hashlib.sha256(lengths.tobytes())
    digest.update(targets.tobytes())
    digest.update(repr(weights).encode("ascii"))
    operators = [*sorted(tables.op_by_mid.items())] + sorted(
        (message.name, op) for message, op in tables.op_by_plain.items()
    )
    for key, op in operators:
        digest.update(repr(key).encode("utf-8"))
        digest.update(array("q", op.src).tobytes())
        digest.update(array("q", op.tgt).tobytes())
    digest.update(repr(tables.int64_limit).encode("ascii"))
    return digest.hexdigest()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("number, instances, mode, fingerprint", SERVED)
def test_served_tables_are_pinned(
    monkeypatch, number, instances, mode, fingerprint, backend
):
    context = ServeContext.from_scenario(
        number, instances=instances, mode=mode
    )
    monkeypatch.setattr(arrays, "_force_python", backend == "python")
    localizer = PathLocalizer(
        context.interleaved, context.traced, registry=TableRegistry()
    )
    tables = localizer._compiled_tables()
    assert tables._numpy == (backend == "numpy")
    assert tables_digest(tables) == SERVED_TABLES[number, instances]
    assert tables.nbytes == SERVED_BYTES[number, instances]


@pytest.mark.skipif(not arrays.have_numpy(), reason="needs numpy")
def test_a_cold_sc3x2_context_holds_narrow_tables(tmp_path):
    """What a cold sc3x2 start keeps and peaks at, traced: every integer
    table in the width its range needs, and no information-model
    intermediate outliving its use (measured 9.9 MB kept and 12.0 MB
    peak; int64 CSR buffers and 8-byte kernel operators and row bounds
    would keep about 20.8 MB and peak at 23.1 MB)."""
    set_default_cache(ArtifactCache(tmp_path))
    try:
        ServeContext.from_scenario(1)  # the imports, before tracing
        gc.collect()
        tracemalloc.start()
        try:
            context = ServeContext.from_scenario(3, instances=2)
            localizer = PathLocalizer(
                context.interleaved, context.traced, registry=TableRegistry()
            ).warm()
            gc.collect()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    finally:
        set_default_cache(None)
    assert localizer._compiled_tables().nbytes == SERVED_BYTES[3, 2]
    assert retained <= 13 * 2**20
    assert peak <= 16 * 2**20


@pytest.fixture
def transitions_built(monkeypatch):
    """Every InterleavedTransition constructed while the test runs."""
    built = []
    original = InterleavedTransition.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(InterleavedTransition, "__init__", counting)
    return built


def test_serve_path_builds_no_transition_objects(tmp_path, transitions_built):
    caches = [ArtifactCache(tmp_path), ArtifactCache(tmp_path)]
    try:
        # cold (interleave, select, pickle), then a fresh process-like
        # cache that loads the same entry back from disk
        for cache in caches:
            set_default_cache(cache)
            context = ServeContext.from_scenario(2, instances=2, mode="window")
            manager = SessionManager(
                context.interleaved, context.traced, mode=context.mode
            ).warm()
            records = synthetic_session_records(
                context.interleaved, context.traced, seed=5
            )
            session = manager.open("s")
            manager.feed(session, records[:4])
            assert manager.snapshot(session).consistent_paths > 0
            manager.close(session)
    finally:
        set_default_cache(None)
    assert caches[0].stats.misses == 1
    assert caches[1].stats.disk_hits == 1
    assert transitions_built == []


#: Modules the server never runs: the flow miner, the gate-level
#: netlists, the client side of the service and its process pool; and
#: the trace codec, which only a ctrace session loads (the wire and
#: the WAL take their CRC from repro.runtime.checksum, and the WAL its
#: sync word from itself).
NOT_SERVED = (
    "repro.mining",
    "repro.netlist",
    "repro.server.client",
    "repro.server.loadgen",
    "multiprocessing",
    "repro.compress",
)


def test_server_imports_no_analysis_stack():
    code = (
        "import sys, repro.cli, repro.server.server, repro.server.shard, "
        "repro.store; "
        f"print(*[m for m in {NOT_SERVED!r} if m in sys.modules])"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=package_env(),
    ).stdout.split()
    assert loaded == []


def package_env(**extra):
    """The test's environment with the package on ``PYTHONPATH`` and no
    ``OPENBLAS_NUM_THREADS`` (this process may have set it), plus
    *extra*."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {
        name: value
        for name, value in os.environ.items()
        if name != "OPENBLAS_NUM_THREADS"
    }
    env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
    env.update(extra)
    return env


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="reads /proc (Linux)"
)
def test_serving_process_runs_one_thread(tmp_path):
    # no shard threads, and no BLAS worker that serving never uses
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--scenario", "1",
         "--port", "0", "--shards", "2", "--duration", "60"],
        stdout=subprocess.PIPE,
        text=True,
        env=package_env(REPRO_CACHE_DIR=str(tmp_path)),
    )
    try:
        assert "listening on" in proc.stdout.readline()
        assert len(os.listdir(f"/proc/{proc.pid}/task")) == 1
    finally:
        proc.terminate()
        proc.wait(timeout=30)
        proc.stdout.close()


@pytest.mark.parametrize("caller, kept", [(None, "1"), ("2", "2")])
def test_blas_thread_setting_defaults_to_one(caller, kept):
    extra = {} if caller is None else {"OPENBLAS_NUM_THREADS": caller}
    code = (
        "import os, repro.core.arrays; "
        "print(os.environ['OPENBLAS_NUM_THREADS'])"
    )
    printed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=package_env(**extra),
    ).stdout
    assert printed.strip() == kept


@pytest.mark.parametrize(
    "package", ["repro.server", "repro.sim", "repro.runtime"]
)
def test_lazy_reexports_resolve(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError):
        module.no_such_export
