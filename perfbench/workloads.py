"""The three benchmark workloads, driven through tractodist's public API.

Each workload has a ``setup`` that builds its inputs, a
``run_pass`` that calls the library in the order the CLI uses it
(io -> embedding -> ann -> segmentation) and fills one ``PassRecord``,
and a ``check`` that verifies the last pass's outputs outside the timed
region. Every library call goes through ``Tracer.call`` so the traced run
records one span per call; untraced passes pay nothing for it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from tractodist.ann import KdTree
from tractodist.bench import default_bundle_specs
from tractodist.distances import default_kinds, distance, distance_matrix, mdf
from tractodist.embedding import DEFAULT_SUBSET_CAP, embed_tractogram, select_prototypes_sff
from tractodist.errors import HeaderMismatch
from tractodist.io import (
    read_bundle,
    read_embedding,
    read_tractogram,
    write_bundle,
    write_embedding,
    write_tractogram,
)
from tractodist.model import BundleRef
from tractodist.segmentation import VoxelGrid, dsc, segment, voxelize
from tractodist.synth import generate_subject, perturb_subject

PROTOTYPES = 40
GRID = VoxelGrid()
DISPLACEMENT_MM = 1.0
# default_benchmark_subjects() seed: the data acceptance criterion 5 gates.
PAPER_SEED = 42
# The CLI's default --seed, used where the workloads follow the CLI. The
# workload seed only generates inputs; it never reaches a library parameter.
CLI_SEED = 42
DSC_FLOOR = 0.8
# distance_matrix vs per-pair distance() tolerance from the test suite.
RTOL = ATOL = 1e-9
# Target and query embedding entries checked per segment call.
CHECKED_ENTRIES = 16


@dataclass
class PassRecord:
    """Timings, op counts and outputs of one pass (or one setup)."""

    key: int = 0  # which part of the workload's cycle this pass ran
    run_s: float = 0.0
    prepare_s: float = 0.0
    job_ms: list = field(default_factory=list)
    job_qps: list = field(default_factory=list)  # queries per second of segment
    cells: list = field(default_factory=list)
    picks: list = field(default_factory=list)  # target ids per segment call
    counts: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)  # of Output, for the checks

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def end_job(self, seconds: float, queries: int, segment_seconds: float) -> None:
        self.job_ms.append(1000.0 * seconds)
        self.job_qps.append(queries / segment_seconds)


@dataclass
class Output:
    """One segment call's inputs and result, kept for the output checks."""

    kind: object
    vectors: np.ndarray  # target embedding
    proto_streams: list
    target: object  # target tractogram
    queries: list  # example streamlines
    per_query: tuple
    tree: KdTree
    bundle: str


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    visited: dict = field(default_factory=dict)  # kind -> [visited per query]
    nodes: dict = field(default_factory=dict)  # kind -> tree node count
    messages: list = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)


def _work_units(kind, streams) -> float:
    """Mean per-streamline work unit of one pair evaluation for this kind."""
    if kind.tag == "mdf":
        return 2.0 * kind.param  # direct and flipped pairing of m points
    sizes = np.array([len(s) for s in streams], dtype=np.float64)
    if kind.tag == "var":
        sizes -= 1.0  # segments, not points
    return float(sizes.mean())


def _prepare(tr, record: PassRecord, name: str, fn, *args, **kwargs):
    """Call one step between the target input and the built tree."""
    t0 = time.perf_counter()
    out = tr.call(name, fn, *args, **kwargs)
    record.prepare_s += time.perf_counter() - t0
    return out


def select_and_embed(tr, record: PassRecord, target, kind, rng_seed: int,
                     subset_size: int | None = None):
    """SFF selection and target embedding (the ``embed`` subcommand), with op counts."""
    k = str(kind)
    n = len(target)
    s = min(n, DEFAULT_SUBSET_CAP if subset_size is None else subset_size)
    protos = _prepare(tr, record, f"embedding.select_prototypes_sff.{k}",
                      select_prototypes_sff, target, kind, PROTOTYPES,
                      subset_size=subset_size, rng_seed=rng_seed)
    pairs = s * (s + 1) // 2  # upper triangle with diagonal
    record.add(f"embedding.select_prototypes_sff.{k}.pairs", pairs)
    units = _work_units(kind, target)
    record.add(f"embedding.select_prototypes_sff.{k}.point_pairs",
               pairs * (units if kind.tag == "mdf" else units * units))
    emb = _prepare(tr, record, f"embedding.embed_tractogram.{k}",
                   embed_tractogram, target, protos, target, kind)
    record.add(f"embedding.embed_tractogram.{k}.pairs", n * PROTOTYPES)
    return protos, emb


def build_tree(tr, record: PassRecord, vectors) -> KdTree:
    tree = _prepare(tr, record, "ann.KdTree", KdTree, vectors)
    record.add("ann.KdTree.nodes", tree.node_count)
    record.counts["ann.KdTree.depth"] = max(record.counts.get("ann.KdTree.depth", 0),
                                            tree.depth)
    return tree


def timed_segment(tr, record: PassRecord, example, emb, tree, target, kind):
    k = str(kind)
    t0 = time.perf_counter()
    result = tr.call(f"segmentation.segment.{k}", segment, example, emb, tree, target, kind)
    dt = time.perf_counter() - t0
    record.picks.append(tuple(t_idx for _, t_idx, _ in result.per_query))
    record.add(f"segmentation.segment.{k}.queries", len(example))
    record.add(f"segmentation.segment.{k}.pairs", len(example) * PROTOTYPES)
    return result, dt


def voxels(tr, record: PassRecord, bundle, tractogram):
    vox = tr.call("segmentation.voxelize", voxelize, bundle, tractogram, GRID)
    record.add("segmentation.voxelize.voxels", len(vox))
    return vox


def read_trgx(tr, record: PassRecord, path):
    record.add("io.read_tractogram.bytes", os.path.getsize(path))
    return tr.call("io.read_tractogram", read_tractogram, path).tractogram


def points_bytes(tractogram) -> int:
    """float64 bytes of all points: the working set of the distance layers."""
    return 24 * sum(len(s) for s in tractogram)


# ---------------------------------------------------------------------------
# paper200
# ---------------------------------------------------------------------------

class Paper200:
    """The paper's five-subject benchmark (N=200): subject 0's three truth
    bundles are segmented into subject 1 for all eight kinds, in memory."""

    CYCLE = 1  # passes that cover every input once

    def __init__(self, seed: int, workdir: Path):
        # The data is the criterion-5 benchmark itself; the seed orders the
        # kinds within a pass and draws the checked sample.
        kinds = default_kinds()
        order = np.random.default_rng(seed).permutation(len(kinds))
        self.kinds = [kinds[i] for i in order]

    def setup(self, tr, record: PassRecord):
        base = tr.call("synth.generate_subject", generate_subject,
                       default_bundle_specs(), 50, global_seed=PAPER_SEED)
        example = tr.call("synth.perturb_subject", perturb_subject,
                          base, DISPLACEMENT_MM, seed=PAPER_SEED)
        target = tr.call("synth.perturb_subject", perturb_subject,
                         base, DISPLACEMENT_MM, seed=PAPER_SEED + 1)
        return {"example": example, "target": target,
                "working_set_bytes": points_bytes(target.tractogram)}

    def describe(self, state) -> str:
        n = len(state["target"].tractogram)
        return (f"N={n}, kinds {','.join(map(str, self.kinds))}, "
                f"SFF subset {min(n, DEFAULT_SUBSET_CAP)}, "
                f"working set {state['working_set_bytes']} B")

    def run_pass(self, state, tr, record: PassRecord) -> None:
        example, target = state["example"], state["target"]
        t = target.tractogram
        truth_vox = {name: voxels(tr, record, ref, t) for name, ref in target.truth.items()}
        # A job is one bundle segmented under every kind, as `agreement`
        # does; per-kind segment times differ 8x, so a per-call median
        # would sit in the gap between kinds.
        job_s = dict.fromkeys(example.truth, 0.0)
        for kind in self.kinds:
            protos, emb = select_and_embed(tr, record, t, kind, rng_seed=0)
            tree = build_tree(tr, record, emb.vectors)
            proto_streams = [t[j] for j in protos.indices]
            for name, ref in example.truth.items():
                with tr.span("job", job=name):
                    result, dt = timed_segment(tr, record, ref, emb, tree, t, kind)
                    job_s[name] += dt
                    pred = voxels(tr, record, result.predicted, t)
                    record.cells.append(tr.call("segmentation.dsc", dsc, pred, truth_vox[name]))
                record.outputs.append(Output(kind, emb.vectors, proto_streams, t,
                                             ref.streamlines(), result.per_query, tree, name))
        for name, seconds in job_s.items():
            record.end_job(seconds, len(self.kinds) * len(example.truth[name]), seconds)

    def check(self, state, records: list, result: CheckResult) -> None:
        for cell in records[0].cells:
            result.expect(cell >= DSC_FLOOR, f"paper200 DSC cell {cell:.4f} < {DSC_FLOOR}")


# ---------------------------------------------------------------------------
# 10k-streamline target shared by atlas10k and reuse10k
# ---------------------------------------------------------------------------

TARGET_BUNDLE_SIZE = 3000
TARGET_NOISE = 1000
EXAMPLE_BUNDLE_SIZE = 50
EXAMPLE_NOISE = 50
ATLAS_KIND = mdf(20)


def _write_subject(tr, subject, workdir: Path, stem: str) -> dict:
    trgx = workdir / f"{stem}.trgx"
    tr.call("io.write_tractogram", write_tractogram, subject.tractogram, trgx)
    bundles = {}
    for name, ref in subject.truth.items():
        path = workdir / f"{stem}.{name}.json"
        tr.call("io.write_bundle", write_bundle, ref, path, tractogram_filename=trgx.name)
        bundles[name] = path
    return {"trgx": trgx, "bundles": bundles}


def make_10k_inputs(tr, workdir: Path, example_count: int) -> dict:
    """A 10,000-streamline target plus co-registered N=200 example subjects.

    As in the five-subject benchmark, subjects are displaced copies of one
    fixed population (so each example bundle matches the first 50
    streamlines of the target's bundle), with fixed displacement seeds: the
    data, and so every DSC cell, is the same for every workload seed.
    """
    big = tr.call("synth.generate_subject", generate_subject,
                  default_bundle_specs(TARGET_BUNDLE_SIZE), TARGET_NOISE,
                  global_seed=PAPER_SEED)
    target = tr.call("synth.perturb_subject", perturb_subject,
                     big, DISPLACEMENT_MM, seed=PAPER_SEED + 1)
    small = tr.call("synth.generate_subject", generate_subject,
                    default_bundle_specs(EXAMPLE_BUNDLE_SIZE), EXAMPLE_NOISE,
                    global_seed=PAPER_SEED)
    files = {"target": _write_subject(tr, target, workdir, "target"), "examples": []}
    for k in range(example_count):
        example = tr.call("synth.perturb_subject", perturb_subject,
                          small, DISPLACEMENT_MM, seed=PAPER_SEED + 2 + k)
        files["examples"].append(_write_subject(tr, example, workdir, f"example{k}"))
    files["working_set_bytes"] = points_bytes(target.tractogram)
    return files


def _describe_10k(state) -> str:
    return (f"N={TARGET_BUNDLE_SIZE * 3 + TARGET_NOISE}, kind {ATLAS_KIND}, "
            f"SFF subset {DEFAULT_SUBSET_CAP}, {len(state['examples'])} example subject(s) "
            f"of N=200, working set {state['working_set_bytes']} B")


class Atlas10k:
    """CLI chain on a fresh N=10,000 target: embed (read TRGX -> SFF ->
    embed -> write EMBD), tree, segment 3 x 50 example streamlines, score."""

    CYCLE = 1

    def __init__(self, seed: int, workdir: Path):
        # The data is fixed; the seed only draws the checked sample.
        self.workdir = workdir

    def setup(self, tr, record: PassRecord):
        return make_10k_inputs(tr, self.workdir, example_count=1)

    def describe(self, state) -> str:
        return _describe_10k(state)

    def run_pass(self, state, tr, record: PassRecord) -> None:
        kind = ATLAS_KIND
        target_files, example_files = state["target"], state["examples"][0]
        embd = self.workdir / "target.embd"
        t0 = time.perf_counter()
        t = read_trgx(tr, record, target_files["trgx"])
        record.prepare_s += time.perf_counter() - t0
        protos, emb = select_and_embed(tr, record, t, kind, rng_seed=CLI_SEED)
        _prepare(tr, record, "io.write_embedding", write_embedding, emb, embd)
        record.add("io.write_embedding.bytes", os.path.getsize(embd))
        tree = build_tree(tr, record, emb.vectors)
        proto_streams = [t[j] for j in protos.indices]

        example_t = read_trgx(tr, record, example_files["trgx"])
        for name, path in example_files["bundles"].items():
            with tr.span("job", job=name):
                ref = tr.call("io.read_bundle", read_bundle, path, example_t)
                result, dt = timed_segment(tr, record, ref, emb, tree, t, kind)
                record.end_job(dt, len(ref), dt)
                truth = tr.call("io.read_bundle", read_bundle,
                                target_files["bundles"][name], t)
                truth_vox = voxels(tr, record, truth, t)
                pred = voxels(tr, record, result.predicted, t)
                record.cells.append(tr.call("segmentation.dsc", dsc, pred, truth_vox))
            record.outputs.append(Output(kind, emb.vectors, proto_streams, t,
                                         ref.streamlines(), result.per_query, tree, name))

    def check(self, state, records: list, result: CheckResult) -> None:
        pass


class Reuse10k:
    """21 ``segment --embedding`` jobs (7 example subjects x 3 bundles)
    against the atlas10k target with a precomputed mdf-20 EMBD.

    A pass is one example subject's three jobs, so a cycle of seven passes
    runs all 21; the median over these short, alike passes is steadier
    than the time of one long pass.
    """

    CYCLE = 7

    def __init__(self, seed: int, workdir: Path):
        # The data is fixed; the seed only draws the checked sample.
        self.workdir = workdir

    def setup(self, tr, record: PassRecord):
        files = make_10k_inputs(tr, self.workdir, example_count=self.CYCLE)
        # What ``tractodist embed`` does, once, to produce the reused EMBD.
        t = read_trgx(tr, record, files["target"]["trgx"])
        protos, emb = select_and_embed(tr, record, t, ATLAS_KIND, rng_seed=CLI_SEED)
        embd = self.workdir / "target.embd"
        tr.call("io.write_embedding", write_embedding, emb, embd)
        record.add("io.write_embedding.bytes", os.path.getsize(embd))
        files.update(embd=embd, vectors=emb.vectors, target_t=t,
                     proto_streams=[t[j] for j in protos.indices])
        return files

    def describe(self, state) -> str:
        return _describe_10k(state)

    def run_pass(self, state, tr, record: PassRecord) -> None:
        kind = ATLAS_KIND
        target_trgx, embd = state["target"]["trgx"], state["embd"]
        k = record.key
        example_files = state["examples"][k]
        for name, path in example_files["bundles"].items():
            with tr.span("job", job=f"example{k}/{name}"):
                j0 = time.perf_counter()
                example_t = read_trgx(tr, record, example_files["trgx"])
                example = tr.call("io.read_bundle", read_bundle, path, example_t)
                p0 = time.perf_counter()
                target = read_trgx(tr, record, target_trgx)
                record.add("io.read_embedding.bytes", os.path.getsize(embd))
                embedded = tr.call("io.read_embedding", read_embedding, embd)
                # The header checks cmd_segment makes before reusing an EMBD.
                if embedded.kind != kind or len(embedded) != len(target):
                    raise HeaderMismatch(f"{embd} does not match {target_trgx}")
                record.prepare_s += time.perf_counter() - p0
                tree = build_tree(tr, record, embedded.vectors)
                result, dt = timed_segment(tr, record, example, embedded, tree, target, kind)
                record.end_job(time.perf_counter() - j0, len(example), dt)
            # Picks are checked against the embedding written in setup, not
            # the copy each job read back: passes keep no large arrays, so
            # peak_rss_mb does not depend on how many passes ran.
            record.outputs.append(Output(kind, state["vectors"], state["proto_streams"],
                                         state["target_t"], example.streamlines(),
                                         result.per_query, None, name))

    def check(self, state, records: list, result: CheckResult) -> None:
        result.expect(np.array_equal(read_embedding(state["embd"]).vectors, state["vectors"]),
                      "EMBD read back differs from the embedding written")
        tree = KdTree(state["vectors"])  # what every job built, for the replay
        # Scored outside the timed region: segment --embedding does not score.
        t = state["target_t"]
        truth = {name: voxelize(read_bundle(path, t), t, GRID)
                 for name, path in state["target"]["bundles"].items()}
        for record in records:
            for out in record.outputs:
                out.tree = tree
                predicted = sorted({t_idx for _, t_idx, _ in out.per_query})
                record.cells.append(dsc(voxelize(BundleRef(t, predicted), t, GRID),
                                        truth[out.bundle]))


WORKLOADS = {"paper200": Paper200, "atlas10k": Atlas10k, "reuse10k": Reuse10k}


# ---------------------------------------------------------------------------
# Output checks shared by all workloads
# ---------------------------------------------------------------------------

def check_outputs(records: list, rng: np.random.Generator, replay: bool,
                  result: CheckResult) -> None:
    """Sampled embedding entries vs distance(); every pick vs brute force."""
    for out in (out for record in records for out in record.outputs):
        kind, vectors, proto_streams, target = out.kind, out.vectors, out.proto_streams, out.target
        ex_streams, per_query, tree = out.queries, out.per_query, out.tree
        query_vectors = distance_matrix(kind, ex_streams, proto_streams)
        k = str(kind)
        for _ in range(CHECKED_ENTRIES):
            r, c = int(rng.integers(len(vectors))), int(rng.integers(PROTOTYPES))
            want = distance(kind, target[r], proto_streams[c])
            result.expect(abs(vectors[r, c] - want) <= ATOL + RTOL * abs(want),
                          f"{k} target entry ({r},{c}) {vectors[r, c]!r} != {want!r}")
            q, c = int(rng.integers(len(ex_streams))), int(rng.integers(PROTOTYPES))
            want = distance(kind, ex_streams[q], proto_streams[c])
            got = query_vectors[q, c]
            result.expect(abs(got - want) <= ATOL + RTOL * abs(want),
                          f"{k} query entry ({q},{c}) {got!r} != {want!r}")
        sq = cdist(query_vectors, vectors, "sqeuclidean")
        for q, (_, pick, dist) in enumerate(per_query):
            best = int(np.argmin(sq[q]))  # first minimum: lowest id wins ties
            near_tie = sq[q, pick] <= sq[q, best] * (1.0 + RTOL) + ATOL
            result.expect(pick == best or near_tie,
                          f"{k} query {q}: picked {pick}, brute force {best}")
            result.expect(abs(dist - np.sqrt(sq[q, pick])) <= ATOL + RTOL * dist,
                          f"{k} query {q}: distance {dist!r} vs {np.sqrt(sq[q, pick])!r}")
        if replay:
            visited = result.visited.setdefault(k, [])
            for qv in query_vectors:
                visited.append(tree.nearest_with_stats(qv)[2])
            result.nodes[k] = tree.node_count
