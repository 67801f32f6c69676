"""What ``repro serve`` serves, pinned: table fingerprints and views.

The session store's META ties every ``--data-dir`` to the table
fingerprint of the scenario it served, so a changed digest would make
the server refuse existing stores: the three served contexts are
pinned to full digests here.  Serving reads only state IDs and the CSR
arrays of the interleaved product, so building a context, warming a
shard's localizer and localizing a capture must construct no
:class:`~repro.core.interleave.InterleavedTransition` at all -- cold
or from a cache entry loaded off disk.
"""

from __future__ import annotations

import pytest

from repro.core.interleave import InterleavedTransition
from repro.runtime.cache import ArtifactCache, set_default_cache
from repro.selection.localization import PathLocalizer
from repro.server import ServeContext
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


@pytest.mark.parametrize("number, instances, mode, digest", SERVED)
def test_served_fingerprint_is_pinned(number, instances, mode, digest):
    context = ServeContext.from_scenario(
        number, instances=instances, mode=mode
    )
    localizer = PathLocalizer(context.interleaved, context.traced)
    assert localizer.fingerprint() == digest


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
            session = manager.open()
            manager.feed(session, records[:4])
            assert manager.snapshot(session).consistent_paths > 0
            manager.close(session)
    finally:
        set_default_cache(None)
    assert caches[0].stats.misses == 1
    assert caches[1].stats.disk_hits == 1
    assert transitions_built == []
