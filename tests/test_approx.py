"""The approx tier: exact kNNL profiles and the one profile engine.

The sketch (:mod:`repro.approx.sketch`) stores each object's exact k-th
competitor similarity ``s_k``, and ``engine="approx"`` answers from it:
for ``k <= kmax`` the floor walk's survivors are the answer, above
``kmax`` every object is probed.  These tests pin that contract:

* **floor soundness and exactness** (hypothesis) — every
  ``obj_floor``/``node_floor``/``global_floor`` equals (objects) or is
  bounded by (directories, global) a brute-force ``s_k`` computed from
  pairwise exact similarities, across measures, alphas and ``k``;
  ``k > kmax`` always reads 0.0 (never prunes);
* **one engine, exact ids** (hypothesis) — approx ids equal the
  snapshot engine's for every ``k`` up to ``kmax + 4`` on adversarial
  corpora, with no membership probe for ``k <= kmax``;
* **plumbing** — filter counters, ``REPRO_ENGINE=approx``,
  fused+approx rejection, one sketch per similarity setting across
  sequential, worker and service paths, and the shm segment round-trip
  of the sketch arrays.
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SimilarityConfig
from repro.approx import KnnlSketch, build_sketch
from repro.approx.sketch import SKETCH_KMAX
from repro.core.rstknn import RSTkNNSearcher
from repro.errors import QueryError
from repro.index.iurtree import IURTree
from repro.perf.batch import BatchSearcher
from repro.text.similarity import make_measure
from repro.workloads import gn_like, sample_queries

_ALPHAS = (0.0, 0.4, 1.0)
_STATE = {}


def _env():
    if not _STATE:
        dataset = gn_like(n=120)
        tree = IURTree.build(dataset)
        tree.snapshot()
        queries = sample_queries(dataset, 6, seed=17)
        _STATE.update(dataset=dataset, tree=tree, queries=queries, cells={})
    return _STATE


def _cell(alpha: float):
    """Engine + sketch + brute-force ``s_k`` table for one alpha."""
    env = _env()
    cell = env["cells"].get(alpha)
    if cell is None:
        tree = env["tree"]
        measure = make_measure(env["dataset"].config.text_measure)
        snap = tree.snapshot()
        engine = snap.engine_for(tree, measure, alpha, 0.0)
        sketch = snap.sketch_for(engine)
        objs = [s for s in range(snap.n_slots) if snap.is_obj[s]]
        ref = snap.ref
        exact = engine._exact
        # Brute-force k-th competitor similarity per object slot: the
        # sorted (descending) exact similarities to every other object.
        brute = {}
        for a in objs:
            sims = sorted(
                (exact(a, b) for b in objs if ref[b] != ref[a]),
                reverse=True,
            )
            brute[a] = sims
        cell = {"snap": snap, "sketch": sketch, "objs": objs, "brute": brute}
        env["cells"][alpha] = cell
    return cell


def _searcher(alpha: float, **kwargs) -> RSTkNNSearcher:
    env = _env()
    config = SimilarityConfig(
        alpha=alpha, text_measure=env["dataset"].config.text_measure
    )
    return RSTkNNSearcher(env["tree"], config=config, **kwargs)


# ----------------------------------------------------------------------
# Floor conservativeness vs brute force (hypothesis)
# ----------------------------------------------------------------------


class TestFloorConservativeness:
    @settings(deadline=None, max_examples=25)
    @given(
        alpha=st.sampled_from(_ALPHAS),
        k=st.integers(min_value=1, max_value=SKETCH_KMAX),
    )
    def test_every_floor_bounded_by_brute_force_sk(self, alpha, k):
        cell = _cell(alpha)
        sketch = cell["sketch"]
        for slot in cell["objs"]:
            sims = cell["brute"][slot]
            s_k = sims[k - 1] if len(sims) >= k else 0.0
            assert sketch.obj_floor(slot, k) <= s_k + 1e-12
            assert sketch.node_floor(slot, k) <= s_k + 1e-12
            assert sketch.global_floor(k) <= s_k + 1e-12

    @settings(deadline=None, max_examples=10)
    @given(alpha=st.sampled_from(_ALPHAS), extra=st.integers(1, 50))
    def test_beyond_kmax_floors_read_zero(self, alpha, extra):
        cell = _cell(alpha)
        sketch = cell["sketch"]
        k = sketch.kmax + extra
        assert sketch.global_floor(k) == 0.0
        for slot in cell["objs"][:5]:
            assert sketch.obj_floor(slot, k) == 0.0
            assert sketch.node_floor(slot, k) == 0.0

    def test_node_floor_monotone_in_k(self):
        # s_1 >= s_2 >= ... so a sound floor table must be non-increasing.
        sketch = _cell(0.4)["sketch"]
        for slot in _cell(0.4)["objs"][:10]:
            floors = [
                sketch.node_floor(slot, k)
                for k in range(1, sketch.kmax + 1)
            ]
            assert floors == sorted(floors, reverse=True)

    def test_describe_and_nbytes(self):
        sketch = _cell(0.4)["sketch"]
        desc = sketch.describe()
        assert desc["kmax"] == SKETCH_KMAX
        assert desc["nbytes"] == sketch.nbytes() > 0
        assert desc["slots"] == _cell(0.4)["snap"].n_slots


# ----------------------------------------------------------------------
# The approx engine: counters and plumbing
# ----------------------------------------------------------------------


class TestApproxEngine:
    def test_filter_counters_and_last_filter(self):
        env = _env()
        searcher = _searcher(0.4, engine="approx")
        snap = env["tree"].snapshot()
        engine = snap.approx_engine_for(
            env["tree"], searcher.measure, searcher.alpha, searcher.te_weight
        )
        verified0 = engine.counters["verified"]
        searcher.search(env["queries"][0], 4)
        assert engine.counters["searches"] >= 1
        assert engine.counters["verified"] == verified0
        assert set(engine.last_filter) == {
            "nodes_pruned", "objects_pruned", "spatial_shortcuts",
            "candidates", "verified", "answers",
        }
        # k <= kmax: every floor survivor is an answer, none is probed.
        assert engine.last_filter["verified"] == 0
        assert (
            engine.last_filter["answers"] == engine.last_filter["candidates"]
        )
        # k > kmax: nothing is pruned and every object is probed.
        searcher.search(env["queries"][0], SKETCH_KMAX + 1)
        n_objects = len(env["dataset"])
        assert engine.last_filter["candidates"] == n_objects
        assert engine.last_filter["verified"] == n_objects

    def test_spatial_shortcuts_counted_at_pure_spatial_alpha(self):
        # At alpha == 1.0 the stage-1 bound IS the full bound (text is
        # skipped by construction), so every node prune there must be
        # counted as a spatial shortcut — the counter used to read 0.
        env = _env()
        tree = env["tree"]
        measure = make_measure(env["dataset"].config.text_measure)
        snap = tree.snapshot()
        engine = snap.approx_engine_for(tree, measure, 1.0, 0.0)
        pruned = shortcuts = 0
        for query in env["queries"]:
            engine.search(query, 2)
            pruned += engine.last_filter["nodes_pruned"]
            shortcuts += engine.last_filter["spatial_shortcuts"]
            assert (
                engine.last_filter["spatial_shortcuts"]
                == engine.last_filter["nodes_pruned"]
            )
        assert pruned > 0 and shortcuts == pruned

    def test_every_path_reads_one_sketch(self):
        # The searcher, the batch engine and a service approx hop of one
        # similarity setting share a single memoized sketch — no path
        # builds its own.
        from repro.service import QueryService

        dataset = gn_like(n=60)
        tree = IURTree.build(dataset)
        query = sample_queries(dataset, 1, seed=5)[0]
        config = SimilarityConfig(alpha=0.4)
        RSTkNNSearcher(tree, config=config, engine="approx").search(query, 3)
        BatchSearcher(tree, config, engine="approx").run([query], 3)
        QueryService(tree, config, chain=("approx",)).serve(query, 3)
        assert len(tree.snapshot()._sketches) == 1

    def test_env_knob_selects_approx_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "approx")
        searcher = _searcher(0.4)
        assert searcher.engine == "approx"
        env = _env()
        exact = _searcher(0.4, engine="snapshot")
        q = env["queries"][1]
        assert searcher.search(q, 3).ids == exact.search(q, 3).ids

    def test_fused_batch_rejects_approx(self):
        env = _env()
        with pytest.raises(QueryError):
            BatchSearcher(env["tree"], engine="approx", mode="fused")

    def test_approx_batch_matches_exact(self):
        # Sequential and parallel (shm and pickle transports) runs must
        # read the same sketch: at k <= kmax the floors alone decide the
        # ids, so every transport must return the exact engine's ids.
        dataset = gn_like(n=600)
        tree = IURTree.build(dataset)
        queries = sample_queries(dataset, 8, seed=23)
        config = SimilarityConfig(
            alpha=0.3, text_measure=dataset.config.text_measure
        )
        exact = BatchSearcher(tree, config, engine="snapshot")
        ref = [r.ids for r in exact.run(queries, 4).results]
        seq = BatchSearcher(tree, config, engine="approx")
        assert [r.ids for r in seq.run(queries, 4).results] == ref
        for share in ("shm", "pickle"):
            par = BatchSearcher(
                tree, config, engine="approx", workers=2, share=share
            )
            with warnings.catch_warnings():
                # Without numpy "shm" degrades to pickle, loudly.
                warnings.simplefilter("ignore", RuntimeWarning)
                batch = par.run(queries, 4)
            assert batch.stats.share is not None  # ran in workers
            assert [r.ids for r in batch.results] == ref, share


# ----------------------------------------------------------------------
# Shared-memory round-trip of the sketch arrays
# ----------------------------------------------------------------------


class TestShmSketchRoundTrip:
    def test_attached_snapshot_serves_frozen_sketch(self):
        from repro.perf.shm import (
            SharedSnapshotSegment,
            attach,
            shm_available,
        )

        ok, why = shm_available()
        if not ok:
            pytest.skip(f"shm unavailable: {why}")
        env = _env()
        tree = env["tree"]
        measure = make_measure(env["dataset"].config.text_measure)
        snap = tree.snapshot()
        parent = snap.sketch_for(snap.engine_for(tree, measure, 0.5, 0.0))

        seg = SharedSnapshotSegment.create(tree)
        attached = attach(seg.name)
        try:
            asnap = attached.snapshot
            # The attached snapshot reconstructed the sketch from the
            # segment — identical arrays, no rebuild.
            assert len(asnap._sketches) == len(snap._sketches)
            twin = asnap.sketch_for(
                asnap.engine_for(attached.tree, measure, 0.5, 0.0)
            )
            assert isinstance(twin, KnnlSketch)
            assert list(twin.floor) == list(parent.floor)
            assert twin.global_row == parent.global_row
            # And the attached approx searcher answers identically to
            # the parent's exact engine.
            remote = attached.searcher(engine="approx")
            local = _searcher(0.5, engine="snapshot")
            q = env["queries"][2]
            assert remote.search(q, 3).ids == local.search(q, 3).ids
        finally:
            attached.close()
            seg.release()

    def test_stale_layout_version_raises_stale_segment_error(self):
        from repro.errors import SnapshotSegmentError, StaleSegmentError
        from repro.perf.shm import (
            SEGMENT_MAGIC,
            SharedSnapshotSegment,
            attach,
            shm_available,
        )

        ok, why = shm_available()
        if not ok:
            pytest.skip(f"shm unavailable: {why}")
        env = _env()
        seg = SharedSnapshotSegment.create(env["tree"])
        try:
            # A segment written by a previous layout version (same
            # RSTSHM family, older version byte pair) is *stale*, not
            # foreign: the remedy is re-exporting with this build.
            seg.shm.buf[: len(SEGMENT_MAGIC)] = b"RSTSHM04"
            with pytest.raises(StaleSegmentError):
                attach(seg.name)
            # Arbitrary bytes are a foreign (non-snapshot) segment.
            seg.shm.buf[: len(SEGMENT_MAGIC)] = b"NOTMAGIC"
            with pytest.raises(SnapshotSegmentError):
                attach(seg.name)
        finally:
            seg.shm.buf[: len(SEGMENT_MAGIC)] = SEGMENT_MAGIC
            seg.release()


# ----------------------------------------------------------------------
# Build-path edges
# ----------------------------------------------------------------------


class TestBuildEdges:
    def test_tiny_corpus_sketch_never_overclaims(self):
        # Two objects: s_1 exists, s_2 does not (no second competitor)
        # so every k >= 2 floor must read 0.0.
        dataset = gn_like(n=2)
        tree = IURTree.build(dataset)
        snap = tree.snapshot()
        measure = make_measure(dataset.config.text_measure)
        engine = snap.engine_for(tree, measure, 0.5, 0.0)
        sketch = build_sketch(engine)
        objs = [s for s in range(snap.n_slots) if snap.is_obj[s]]
        for slot in objs:
            for k in range(2, sketch.kmax + 1):
                assert sketch.obj_floor(slot, k) == 0.0


# ----------------------------------------------------------------------
# Adaptive frontier peel (empty-node and budget-overflow regressions)
# ----------------------------------------------------------------------


class _StubSnap:
    """Minimal snapshot shape for the shard admission frontier peel.

    Slot 0 is the root directory; slot 1 is a *degenerate empty*
    directory node (no children) given an inflated count so the
    largest-count-first heap pops it while refinable nodes are still
    queued; slot 2 is an object at root level; slot 3 is a directory
    holding objects 4 and 5.
    """

    root_slots = (0,)
    is_obj = [0, 0, 1, 0, 1, 1]
    cnt = [3, 5, 1, 2, 1, 1]
    first_child = [1, 0, 0, 4, 0, 0]
    last_child = [4, 0, 0, 6, 0, 0]


class TestAdaptivePeel:
    def _check(self, peel):
        # The empty node pops first (cnt 5).  The regression: appending
        # it must not abort the peel — slot 3 (still in the heap) must
        # go on to be refined into its object children 4 and 5.
        frontier = peel(_StubSnap(), 16)
        assert sorted(frontier) == [1, 2, 4, 5]

    def test_sketch_peel_continues_past_empty_node(self):
        from repro.approx import sketch
        from repro.shard.summaries import _peel_frontier

        # The sketch no longer peels a frontier: the shard admission
        # tables are the peel's only caller.
        assert not hasattr(sketch, "_peel_frontier")
        self._check(_peel_frontier)

    def test_shard_peel_continues_past_empty_node(self):
        from repro.shard.summaries import _peel_frontier

        self._check(_peel_frontier)

    def test_overflowing_node_is_kept_while_smaller_nodes_refine(self):
        from repro.shard.summaries import _peel_frontier

        # Budget 4: expanding root yields [2] + heap {1, 3}.  Slot 1
        # (empty) becomes a row; slot 3's expansion fits (2 + 0 + 2 =
        # 4), so the peel still refines it instead of stopping.
        frontier = _peel_frontier(_StubSnap(), 4)
        assert sorted(frontier) == [1, 2, 4, 5]
        # Budget 3 cannot hold slot 3's two children next to the two
        # existing rows, so slot 3 itself is the row — never dropped.
        frontier = _peel_frontier(_StubSnap(), 3)
        assert sorted(frontier) == [1, 2, 3]


# ----------------------------------------------------------------------
# k-distance profiles: brute-force exactness and other measures
# ----------------------------------------------------------------------


class TestCurveSampling:
    """The sampled k-distance curve is the per-object ``obj_profile``."""

    def test_floors_conservative_under_other_measures(self):
        env = _env()
        tree = env["tree"]
        snap = tree.snapshot()
        for name in ("cosine", "dice"):
            measure = make_measure(name)
            engine = snap.engine_for(tree, measure, 0.4, 0.0)
            sketch = build_sketch(engine)
            exact = engine._exact
            ref = snap.ref
            objs = [s for s in range(snap.n_slots) if snap.is_obj[s]]
            for a in objs:
                sims = sorted(
                    (exact(a, b) for b in objs if ref[b] != ref[a]),
                    reverse=True,
                )
                for k in (1, 2, sketch.kmax):
                    s_k = sims[k - 1] if len(sims) >= k else 0.0
                    assert sketch.obj_floor(a, k) <= s_k + 1e-12

    def test_true_pass_profile_equals_brute_force_sk(self):
        # The block join rescores with the engine's own _exact until no
        # unrescored column can matter, so every object row of the floor
        # table is exactly the brute-force s_k — no tolerance, no cap.
        for alpha in _ALPHAS:
            cell = _cell(alpha)
            sketch = cell["sketch"]
            kmax = sketch.kmax
            for slot in cell["objs"]:
                sims = cell["brute"][slot]
                for k in range(1, kmax + 1):
                    s_k = sims[k - 1] if len(sims) >= k else 0.0
                    assert sketch.floor[slot * kmax + (k - 1)] == s_k
                    assert sketch.obj_floor(slot, k) == s_k


# ----------------------------------------------------------------------
# Exact profiles on adversarial corpora (hypothesis)
# ----------------------------------------------------------------------

_MEASURES = ("extended_jaccard", "cosine", "dice", "overlap", "weighted_jaccard")
_WORDS = ("coffee", "tea", "cake", "bread", "wine")

# A 3x3 grid of locations and a five-word vocabulary: duplicate
# locations, identical documents and (min_size=0) empty documents all
# turn up; n runs from one object to past kmax + 8, where the numpy
# join ranks only part of each row and exact ties force a full sort.
_record = st.tuples(
    st.sampled_from((0.0, 1.0, 4.0)),
    st.sampled_from((0.0, 2.0, 3.0)),
    st.lists(st.sampled_from(_WORDS), max_size=3).map(" ".join),
)
_records = st.integers(1, 40).flatmap(
    lambda n: st.lists(_record, min_size=n, max_size=n)
)


def _tiny(records, measure: str):
    from repro import IndexConfig, STDataset
    from repro.spatial import Point

    dataset = STDataset.from_corpus(
        [(Point(x, y), t) for x, y, t in records],
        SimilarityConfig(text_measure=measure),
    )
    tree = IURTree.build(dataset, IndexConfig(max_entries=4, min_entries=2))
    return dataset, tree


def _check_exact_sketch(snap, engine, sketch):
    kmax = sketch.kmax
    objs = [s for s in range(snap.n_slots) if snap.is_obj[s]]
    ref = snap.ref
    sk = {}
    for a in objs:
        sims = sorted(
            (engine._exact(a, b) for b in objs if ref[b] != ref[a]),
            reverse=True,
        )
        sims = (sims + [0.0] * kmax)[:kmax]
        sk[a] = sims
        assert [sketch.obj_floor(a, k) for k in range(1, kmax + 1)] == sims

    def under(slot):
        if snap.is_obj[slot]:
            return [slot]
        out = []
        for c in range(snap.first_child[slot], snap.last_child[slot]):
            out.extend(under(c))
        return out

    for slot in range(snap.n_slots):
        members = under(slot)
        if snap.is_obj[slot] or not members:
            continue
        for k in range(1, kmax + 1):
            assert sketch.node_floor(slot, k) == min(sk[a][k - 1] for a in members)
    for k in range(1, kmax + 1):
        assert sketch.global_floor(k) == min(sk[a][k - 1] for a in objs)


class TestExactProfiles:
    @settings(deadline=None, max_examples=40)
    @given(
        records=_records,
        measure=st.sampled_from(_MEASURES),
        alpha=st.sampled_from((0.0, 0.3, 1.0)),
        numpy_kernel=st.booleans(),
    )
    def test_floors_equal_brute_force_sk(
        self, records, measure, alpha, numpy_kernel
    ):
        from unittest import mock

        from repro.perf import kernels

        if numpy_kernel and not kernels.numpy_available():
            numpy_kernel = False
        _dataset, tree = _tiny(records, measure)
        snap = tree.snapshot()
        engine = snap.engine_for(tree, make_measure(measure), alpha, 0.0)
        if numpy_kernel:
            sketch = build_sketch(engine)
        else:
            with mock.patch.object(kernels, "_numpy", lambda: None):
                sketch = build_sketch(engine)
        _check_exact_sketch(snap, engine, sketch)

    def test_tie_runs_past_the_ranked_prefix(self):
        # 40 copies of one object plus two others: every row ties far
        # past the kmax + 8 columns the numpy join ranks first, so the
        # rescoring must fall back to the whole row and stay exact.
        records = [(1.0, 2.0, "coffee tea")] * 40
        records += [(4.0, 0.0, "wine"), (0.0, 3.0, "")]
        _dataset, tree = _tiny(records, "extended_jaccard")
        snap = tree.snapshot()
        for alpha in (0.0, 0.3, 1.0):
            engine = snap.engine_for(
                tree, make_measure("extended_jaccard"), alpha, 0.0
            )
            _check_exact_sketch(snap, engine, build_sketch(engine))

    @settings(deadline=None, max_examples=30)
    @given(
        records=_records,
        measure=st.sampled_from(_MEASURES),
        alpha=st.sampled_from((0.0, 0.3, 1.0)),
        qx=st.sampled_from((0.0, 1.0, 2.5)),
        qtext=st.lists(st.sampled_from(_WORDS), max_size=3).map(" ".join),
    )
    def test_approx_ids_equal_snapshot_ids(
        self, records, measure, alpha, qx, qtext
    ):
        # One engine for every k: up to kmax the exact floors alone
        # decide membership (no probe runs); above it every object is
        # probed.  Corpora of 1..40 objects put k >= n in range too.
        from repro.spatial import Point

        dataset, tree = _tiny(records, measure)
        config = SimilarityConfig(alpha=alpha, text_measure=measure)
        exact = RSTkNNSearcher(tree, config=config, engine="snapshot")
        approx = RSTkNNSearcher(tree, config=config, engine="approx")
        engine = tree.snapshot().approx_engine_for(
            tree, approx.measure, approx.alpha, approx.te_weight
        )
        query = dataset.make_query(Point(qx, 2.0), qtext)
        for k in range(1, SKETCH_KMAX + 5):
            got = approx.search(query, k)
            assert got.ids == exact.search(query, k).ids, k
            if k <= SKETCH_KMAX:
                assert got.stats.verified_objects == 0
                assert engine.last_filter["verified"] == 0
            else:
                assert engine.last_filter["verified"] == len(records)
