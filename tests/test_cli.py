import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tractodist
from conftest import random_streamline
from tractodist import errors
from tractodist.cli import main
from tractodist.distances import default_kinds, distance, distance_matrix, parse_kind
from tractodist.embedding import (
    EmbeddedTractogram,
    PrototypeSet,
    embed_tractogram,
    select_prototypes_sff,
)
from tractodist.io import (
    read_embedding,
    read_tractogram,
    write_bundle,
    write_embedding,
    write_tractogram,
)
from tractodist.model import BundleRef, Tractogram, build_streamline
from tractodist.segmentation import VoxelGrid, dsc, prepare_target, segment, voxelize

SPEC = {
    "bundles": {
        "a": {"centerline": {"type": "arc", "center": [0, 0, 0], "radius": 30.0,
                             "theta0_deg": 0.0, "theta1_deg": 120.0, "axis": "z"},
              "streamline_count": 8, "radial_jitter_sigma": 1.0, "rng_seed": 1},
        "b": {"centerline": {"type": "polyline",
                             "points": [[80, 0, 0], [90, 10, 0], [100, 0, 10]]},
              "streamline_count": 6, "radial_jitter_sigma": 1.0,
              "points_range": [12, 20], "rng_seed": 2},
    },
    "noise_streamlines": 4,
}


def write_spec(tmp_path, name="spec.json", doc=SPEC):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def make_trgx(tmp_path, name, n=10, seed=0):
    rng = np.random.default_rng(seed)
    t = Tractogram([random_streamline(rng) for _ in range(n)])
    path = tmp_path / name
    write_tractogram(t, path)
    return str(path), read_tractogram(path).tractogram


def make_bundle(tmp_path, name, tractogram, indices, bundle_name="x"):
    path = tmp_path / name
    write_bundle(BundleRef(tractogram, indices, name=bundle_name), path)
    return str(path)


# ---------------------------------------------------------------------------
# python -m tractodist
# ---------------------------------------------------------------------------

def test_python_dash_m_runs_the_cli():
    src = str(Path(tractodist.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "tractodist", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert "usage:" in done.stdout


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_writes_expected_files(tmp_path, capsys):
    spec = write_spec(tmp_path)
    code = main(["synth", spec, "--out", str(tmp_path / "subj")])
    assert code == 0
    out = capsys.readouterr().out
    for suffix in (".trgx", ".a.json", ".b.json"):
        path = tmp_path / f"subj{suffix}"
        assert path.exists()
        assert f"wrote {path}" in out
    t = read_tractogram(tmp_path / "subj.trgx").tractogram
    assert len(t) == 8 + 6 + 4
    doc = json.loads((tmp_path / "subj.a.json").read_text())
    assert doc["tractogram"] == "subj.trgx"
    assert doc["indices"] == list(range(8))


def test_synth_regeneration_is_bit_identical(tmp_path):
    spec = write_spec(tmp_path)
    d1, d2 = tmp_path / "one", tmp_path / "two"
    d1.mkdir(), d2.mkdir()
    for d in (d1, d2):
        assert main(["--seed", "7", "synth", spec, "--out", str(d / "s")]) == 0
    assert (d1 / "s.trgx").read_bytes() == (d2 / "s.trgx").read_bytes()
    assert (d1 / "s.a.json").read_text() == (d2 / "s.a.json").read_text()


def test_synth_applies_displacement(tmp_path):
    doc = dict(SPEC, displacement_sigma=2.0)
    spec_a = write_spec(tmp_path, "a.json")
    spec_b = write_spec(tmp_path, "b.json", doc)
    assert main(["synth", spec_a, "--out", str(tmp_path / "base")]) == 0
    assert main(["synth", spec_b, "--out", str(tmp_path / "moved")]) == 0
    a = read_tractogram(tmp_path / "base.trgx").tractogram
    b = read_tractogram(tmp_path / "moved.trgx").tractogram
    assert len(a) == len(b)
    assert not np.array_equal(a[0].points, b[0].points)


@pytest.mark.parametrize("doc", [
    None,  # missing file
    "not json {",
    {"bundles": "nope"},
    {"bundles": {"a": {"centerline": {"type": "blob"},
                       "streamline_count": 3, "radial_jitter_sigma": 1.0}}},
    {"bundles": {"a": {"streamline_count": 3, "radial_jitter_sigma": 1.0}}},
])
def test_synth_bad_specs_exit_3(tmp_path, capsys, doc):
    if doc is None:
        spec = str(tmp_path / "missing.json")
    elif isinstance(doc, str):
        spec = str(tmp_path / "spec.json")
        (tmp_path / "spec.json").write_text(doc)
    else:
        spec = write_spec(tmp_path, doc=doc)
    assert main(["synth", spec, "--out", str(tmp_path / "s")]) == 3
    assert "error:" in capsys.readouterr().err


def _spec_with(path, value):
    """SPEC with one field replaced: a top-level key, or bundle a's."""
    doc = json.loads(json.dumps(SPEC))
    (doc["bundles"]["a"] if path.startswith("a.") else doc)[path.removeprefix("a.")] = value
    return doc


@pytest.mark.parametrize("path, value", [
    ("noise_streamlines", "x"),
    ("displacement_sigma", "x"),
    ("noise_streamlines", [1]),
    ("noise_streamlines", float("inf")),
    ("a.streamline_count", float("inf")),
    ("a.rng_seed", float("inf")),
    ("a.rng_seed", -1),
    ("a.rng_seed", 1.5),
    ("a.points_range", [3, 1e30]),
    ("a.points_range", [3, 2 ** 32]),
    ("a.points_range", [3, 7.5]),
    ("a.streamline_count", 6.7),
    ("noise_streamlines", 6.7),
    ("a.points_range", [3, 2 ** 32 - 1]),
])
def test_synth_bad_numbers_exit_3(tmp_path, capsys, path, value):
    spec = tmp_path / "spec.json"
    # 1e400 parses to inf, which no int() accepts.
    spec.write_text(json.dumps(_spec_with(path, value)).replace("Infinity", "1e400"))
    assert main(["synth", str(spec), "--out", str(tmp_path / "s")]) == 3
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# dist
# ---------------------------------------------------------------------------

def test_dist_self_matrix_matches_library(tmp_path, capsys):
    path, t = make_trgx(tmp_path, "a.trgx", n=7)
    assert main(["dist", path, "--kind", "mdf-12"]) == 0
    rows = [[float(v) for v in line.split(",")]
            for line in capsys.readouterr().out.splitlines()]
    got = np.array(rows)
    assert got.shape == (7, 7)
    np.testing.assert_array_equal(np.diag(got), 0.0)
    np.testing.assert_array_equal(got, got.T)
    expected = distance_matrix(parse_kind("mdf-12"), list(t))
    np.testing.assert_array_equal(got, expected)  # %.17g round-trips exactly


def test_dist_two_files_and_out_flag(tmp_path):
    path_a, a = make_trgx(tmp_path, "a.trgx", n=4, seed=1)
    path_b, b = make_trgx(tmp_path, "b.trgx", n=3, seed=2)
    out = tmp_path / "m.csv"
    assert main(["dist", path_a, path_b, "--kind", "mc", "--out", str(out)]) == 0
    rows = [[float(v) for v in line.split(",")]
            for line in out.read_text().splitlines()]
    got = np.array(rows)
    expected = distance_matrix(parse_kind("mc"), list(a), list(b))
    np.testing.assert_array_equal(got, expected)


def test_dist_pairs_mode(tmp_path, capsys):
    path, t = make_trgx(tmp_path, "a.trgx", n=5)
    assert main(["dist", path, "--kind", "sc", "--pairs", "0:3,2:2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "i,j,distance"
    i, j, d = lines[1].split(",")
    assert (i, j) == ("0", "3")
    assert float(d) == distance_matrix(parse_kind("sc"), t)[0, 3]
    assert float(lines[2].split(",")[2]) == 0.0


@pytest.mark.parametrize("kind", [str(k) for k in default_kinds()])
@pytest.mark.parametrize("two_files", [False, True])
def test_dist_pairs_prints_the_dist_entries(tmp_path, capsys, kind, two_files):
    path_a, a = make_trgx(tmp_path, "a.trgx", n=7, seed=11)
    files = [path_a]
    n_cols = len(a)
    if two_files:
        path_b, b = make_trgx(tmp_path, "b.trgx", n=6, seed=12)
        files.append(path_b)
        n_cols = len(b)
    assert main(["dist", *files, "--kind", kind]) == 0
    matrix = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    pairs = [(i, j) for i in range(len(a)) for j in range(n_cols)]
    text = ",".join(f"{i}:{j}" for i, j in pairs)
    assert main(["dist", *files, "--kind", kind, "--pairs", text]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "i,j,distance"
    assert lines[1:] == [f"{i},{j},{matrix[i][j]}" for i, j in pairs]


def test_dist_pairs_out_of_range_exit_3(tmp_path, capsys):
    path, _ = make_trgx(tmp_path, "a.trgx", n=5)
    assert main(["dist", path, "--kind", "mc", "--pairs", "0:99"]) == 3
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------

def test_embed_matches_library_and_is_deterministic(tmp_path, capsys):
    path, t = make_trgx(tmp_path, "a.trgx", n=12)
    out1, out2 = str(tmp_path / "e1.embd"), str(tmp_path / "e2.embd")
    argv = ["--seed", "5", "--prototypes", "6", "embed", path, "--kind", "mc"]
    assert main(argv + ["--out", out1]) == 0
    assert main(argv + ["--out", out2]) == 0
    assert (tmp_path / "e1.embd").read_bytes() == (tmp_path / "e2.embd").read_bytes()
    assert "12 x 6 (mc)" in capsys.readouterr().out

    emb = read_embedding(out1)
    kind = parse_kind("mc")
    protos = select_prototypes_sff(t, kind, 6, rng_seed=5)
    expected = embed_tractogram(t, protos, t, kind)
    assert emb.prototypes.indices == protos.indices
    np.testing.assert_allclose(emb.vectors, expected.vectors, rtol=1e-12)
    for i, p in ((0, 0), (3, 2), (11, 5)):
        assert emb.vectors[i, p] == pytest.approx(
            distance(kind, t[i], t[protos.indices[p]]), rel=1e-12)


def test_embed_too_many_prototypes_exit_4(tmp_path, capsys):
    path, _ = make_trgx(tmp_path, "a.trgx", n=5)
    code = main(["--prototypes", "50", "embed", path,
                 "--kind", "mc", "--out", str(tmp_path / "e.embd")])
    assert code == 4
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# segment
# ---------------------------------------------------------------------------

def test_segment_self_returns_example_indices(tmp_path, capsys):
    path, t = make_trgx(tmp_path, "a.trgx", n=10)
    bundle = make_bundle(tmp_path, "b.json", t, [1, 4, 7], bundle_name="left")
    out = tmp_path / "res.json"
    code = main(["--prototypes", "5", "segment", "--example", path,
                 "--bundle", bundle, "--target", path,
                 "--kind", "mc", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["predicted"] == [1, 4, 7]
    assert doc["example"] == [1, 4, 7]
    assert doc["name"] == "left"
    assert "3 streamlines predicted" in capsys.readouterr().out


def test_segment_matches_library_pipeline(tmp_path):
    ex_path, ex_t = make_trgx(tmp_path, "ex.trgx", n=8, seed=3)
    tg_path, tg_t = make_trgx(tmp_path, "tg.trgx", n=14, seed=4)
    bundle = make_bundle(tmp_path, "b.json", ex_t, [0, 2, 5])
    out = tmp_path / "res.json"
    code = main(["--seed", "9", "--prototypes", "6", "segment",
                 "--example", ex_path, "--bundle", bundle,
                 "--target", tg_path, "--kind", "mdf-20", "--out", str(out)])
    assert code == 0
    kind = parse_kind("mdf-20")
    embedded, tree = prepare_target(tg_t, kind, prototype_count=6, rng_seed=9)
    expected = segment(BundleRef(ex_t, [0, 2, 5]), embedded, tree, tg_t, kind)
    doc = json.loads(out.read_text())
    assert doc["predicted"] == list(expected.predicted.indices)
    assert doc["per_query"] == [[e, t_, d] for e, t_, d in expected.per_query]


def test_segment_reuses_embedding_file(tmp_path):
    path, t = make_trgx(tmp_path, "a.trgx", n=10)
    bundle = make_bundle(tmp_path, "b.json", t, [2, 6])
    embd = str(tmp_path / "t.embd")
    base = ["--seed", "5", "--prototypes", "4"]
    assert main(base + ["embed", path, "--kind", "sc", "--out", embd]) == 0
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(base + ["segment", "--example", path, "--bundle", bundle,
                        "--target", path, "--kind", "sc",
                        "--embedding", embd, "--out", str(out1)]) == 0
    assert main(base + ["segment", "--example", path, "--bundle", bundle,
                        "--target", path, "--kind", "sc",
                        "--out", str(out2)]) == 0
    assert json.loads(out1.read_text()) == json.loads(out2.read_text())


def test_segment_embedding_kind_mismatch_exit_3(tmp_path, capsys):
    path, t = make_trgx(tmp_path, "a.trgx", n=10)
    bundle = make_bundle(tmp_path, "b.json", t, [0])
    embd = str(tmp_path / "t.embd")
    assert main(["--prototypes", "4", "embed", path, "--kind", "sc",
                 "--out", embd]) == 0
    code = main(["segment", "--example", path, "--bundle", bundle,
                 "--target", path, "--kind", "mc",
                 "--embedding", embd, "--out", str(tmp_path / "r.json")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_segment_embedding_with_out_of_range_mdf_kind_exit_3(tmp_path, capsys):
    path, t = make_trgx(tmp_path, "a.trgx", n=10)
    bundle = make_bundle(tmp_path, "b.json", t, [0])
    embd = tmp_path / "t.embd"
    assert main(["--prototypes", "4", "embed", path, "--kind", "mdf-20",
                 "--out", str(embd)]) == 0
    data = embd.read_bytes()
    old, new = b"\x06\x00mdf-20", b"\x11\x00mdf-1000000000000"
    assert data[8:16] == old
    embd.write_bytes(data[:8] + new + data[16:])
    code = main(["segment", "--example", path, "--bundle", bundle,
                 "--target", path, "--kind", "mdf-20",
                 "--embedding", str(embd), "--out", str(tmp_path / "r.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert "bad kind string" in err and "Traceback" not in err


def test_segment_embedding_row_mismatch_exit_3(tmp_path):
    path, t = make_trgx(tmp_path, "a.trgx", n=10)
    other_path, _ = make_trgx(tmp_path, "other.trgx", n=6, seed=9)
    bundle = make_bundle(tmp_path, "b.json", t, [0])
    embd = str(tmp_path / "small.embd")
    assert main(["--prototypes", "4", "embed", other_path, "--kind", "mc",
                 "--out", embd]) == 0
    assert main(["segment", "--example", path, "--bundle", bundle,
                 "--target", path, "--kind", "mc",
                 "--embedding", embd, "--out", str(tmp_path / "r.json")]) == 3


def test_segment_embedding_from_other_tractogram_same_size_exit_3(tmp_path, capsys):
    # Same kind, same row count, prototypes in range: only the recomputed
    # rows tell the two tractograms apart.
    path, t = make_trgx(tmp_path, "a.trgx", n=10)
    other_path, _ = make_trgx(tmp_path, "other.trgx", n=10, seed=9)
    bundle = make_bundle(tmp_path, "b.json", t, [0, 3])
    embd = str(tmp_path / "other.embd")
    assert main(["--prototypes", "4", "embed", other_path, "--kind", "mdf-20",
                 "--out", embd]) == 0
    capsys.readouterr()
    assert main(["segment", "--example", path, "--bundle", bundle,
                 "--target", path, "--kind", "mdf-20",
                 "--embedding", embd, "--out", str(tmp_path / "r.json")]) == 3
    assert "another tractogram" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_segment_embedding_prototype_out_of_range_exit_3(tmp_path, capsys):
    path, t = make_trgx(tmp_path, "a.trgx", n=12)
    bundle = make_bundle(tmp_path, "b.json", t, [0])
    embd = str(tmp_path / "a.embd")
    assert main(["--prototypes", "4", "embed", path, "--kind", "mc", "--out", embd]) == 0
    emb = read_embedding(embd)
    protos = PrototypeSet((999, *emb.prototypes.indices[1:]), emb.kind)
    write_embedding(EmbeddedTractogram(emb.vectors, protos, emb.kind), embd)
    capsys.readouterr()
    assert main(["segment", "--example", path, "--bundle", bundle,
                 "--target", path, "--kind", "mc",
                 "--embedding", embd, "--out", str(tmp_path / "r.json")]) == 3
    assert "999" in capsys.readouterr().err


def test_segment_empty_bundle_exit_4(tmp_path):
    path, t = make_trgx(tmp_path, "a.trgx", n=6)
    bundle = make_bundle(tmp_path, "b.json", t, [])
    assert main(["--prototypes", "3", "segment", "--example", path,
                 "--bundle", bundle, "--target", path,
                 "--kind", "mc", "--out", str(tmp_path / "r.json")]) == 4


# ---------------------------------------------------------------------------
# dsc
# ---------------------------------------------------------------------------

def test_dsc_identical_and_disjoint(tmp_path, capsys):
    path, t = make_trgx(tmp_path, "a.trgx", n=8)
    b1 = make_bundle(tmp_path, "b1.json", t, [0, 1])
    b2 = make_bundle(tmp_path, "b2.json", t, [0, 1])
    assert main(["dsc", b1, b2, "--tractogram", path]) == 0
    assert capsys.readouterr().out.strip() == "1.000000"


def test_dsc_matches_library_and_reads_header_grid(tmp_path, capsys):
    rng = np.random.default_rng(4)
    t = Tractogram([random_streamline(rng) for _ in range(6)])
    path = tmp_path / "a.trgx"
    write_tractogram(t, path, voxel_size=2.0, origin=(1.0, 0.0, -2.0))
    t = read_tractogram(path).tractogram
    b1 = make_bundle(tmp_path, "b1.json", t, [0, 1, 2])
    b2 = make_bundle(tmp_path, "b2.json", t, [2, 3])
    assert main(["dsc", b1, b2, "--tractogram", str(path)]) == 0
    grid = VoxelGrid(origin=(1.0, 0.0, -2.0), voxel_size=2.0)
    expected = dsc(voxelize(BundleRef(t, [0, 1, 2]), t, grid),
                   voxelize(BundleRef(t, [2, 3]), t, grid))
    assert capsys.readouterr().out.strip() == f"{expected:.6f}"


def test_dsc_voxel_index_outside_int64_exits_3(tmp_path, capsys):
    # float32 holds 1e30, so a TRGX file can place a streamline there.
    t = Tractogram([build_streamline([[x, 0.0, 0.0], [x, 1.0, 0.0]]) for x in (1e30, -1e30)])
    path = tmp_path / "far.trgx"
    write_tractogram(t, path)
    t = read_tractogram(path).tractogram
    b1 = make_bundle(tmp_path, "b1.json", t, [0])
    b2 = make_bundle(tmp_path, "b2.json", t, [1])
    assert main(["dsc", b1, b2, "--tractogram", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "outside int64" in err and "Traceback" not in err


def test_dsc_accepts_segmentation_result_json(tmp_path, capsys):
    path, t = make_trgx(tmp_path, "a.trgx", n=8)
    bundle = make_bundle(tmp_path, "b.json", t, [3, 5])
    result = tmp_path / "res.json"
    assert main(["--prototypes", "4", "segment", "--example", path,
                 "--bundle", bundle, "--target", path,
                 "--kind", "mc", "--out", str(result)]) == 0
    capsys.readouterr()
    assert main(["dsc", bundle, str(result), "--tractogram", path]) == 0
    assert capsys.readouterr().out.strip() == "1.000000"


# ---------------------------------------------------------------------------
# agreement / bench
# ---------------------------------------------------------------------------

def test_agreement_csv_output(tmp_path, capsys):
    ex_path, ex_t = make_trgx(tmp_path, "ex.trgx", n=8, seed=1)
    tg_path, _ = make_trgx(tmp_path, "tg.trgx", n=9, seed=2)
    bundle = make_bundle(tmp_path, "b.json", ex_t, [0, 1, 2])
    code = main(["--prototypes", "4", "agreement", "--example", ex_path,
                 "--bundle", bundle, "--target", tg_path,
                 "--kinds", "mc,sc"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "kind,mc,sc"
    assert lines[1].startswith("mc,1.000000,")
    assert lines[2].endswith(",1.000000")
    assert lines[1].split(",")[2] == lines[2].split(",")[1]


def test_bench_timing_csv(tmp_path):
    out = tmp_path / "t.csv"
    code = main(["bench", "timing", "--pairs", "40", "--repetitions", "1",
                 "--kinds", "mc", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,pairs,seconds,pairs_per_sec"
    assert lines[1].startswith("mc,40,")


def test_bench_dsc_csv(tmp_path):
    out = tmp_path / "d.csv"
    code = main(["bench", "dsc", "--subjects", "2", "--noise", "5",
                 "--kinds", "mc", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "bundle,kind,mean_dsc,std_dsc,n"
    assert len(lines) == 1 + 3  # arc, helix, scurve x one kind
    for line in lines[1:]:
        assert line.split(",")[4] == "2"


def test_bench_agreement_csv(tmp_path):
    out = tmp_path / "a.csv"
    code = main(["bench", "agreement", "--subjects", "2", "--noise", "5",
                 "--kinds", "mc,sc", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,mc,sc"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["dist"],
    ["dist", "x.trgx", "--kind", "volume"],
    ["dist", "x.trgx", "--kind", "mdf-1"],
    ["dist", "x.trgx", "--kind", "mc", "--pairs", "ab"],
    ["--voxel-size", "0", "dsc", "a.json", "b.json", "--tractogram", "t.trgx"],
    ["--prototypes", "-3", "embed", "x.trgx", "--kind", "mc", "--out", "e"],
    ["bench", "nonsense"],
    ["--threads", "2", "dist", "x.trgx", "--kind", "mc"],
])
def test_usage_errors_exit_2(tmp_path, capsys, argv):
    assert main(argv) == 2
    capsys.readouterr()


# What is in (or missing from) an input: exit 3. Everything else: exit 4.
DATA_ERRORS = {
    "DataError", "BadMagic", "TruncatedFile", "CountMismatch", "EmptyTractogram",
    "NonFiniteCoordinate", "FewerThanTwoDistinctPoints", "MalformedJson",
    "HeaderMismatch", "IndexOutOfRange", "InvalidSpec",
}
RAISED = [OSError] + [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.TractodistError)
]


@pytest.mark.parametrize("error", RAISED, ids=[cls.__name__ for cls in RAISED])
def test_exit_code_of_each_error_class(tmp_path, capsys, monkeypatch, error):
    def cmd_dist(args):
        raise error("raised on purpose")

    monkeypatch.setattr("tractodist.cli.cmd_dist", cmd_dist)
    expected = 3 if error is OSError or error.__name__ in DATA_ERRORS else 4
    assert main(["dist", "x.trgx", "--kind", "mc"]) == expected
    assert capsys.readouterr().err == "error: raised on purpose\n"


@pytest.mark.parametrize("argv", [
    ["--voxel-size", "inf", "dsc", "a.json", "b.json", "--tractogram", "t.trgx"],
    ["--voxel-size", "nan", "dsc", "a.json", "b.json", "--tractogram", "t.trgx"],
    ["--sigma", "inf", "dist", "x.trgx", "--kind", "mc"],
    ["--sigma", "1e-300", "dist", "x.trgx", "--kind", "mc"],
    ["dist", "x.trgx", "--kind", "pdm-inf"],
    ["dist", "x.trgx", "--kind", "var-nan"],
    ["dist", "x.trgx", "--kind", "pdm-1e200"],
    ["dist", "x.trgx", "--kind", "mdf-1025"],
    ["dist", "x.trgx", "--kind", "mdf-1000000000000", "--pairs", "0:1"],
    ["dist", "x.trgx", "--kind", "mdf-99999999999999999999999", "--pairs", "0:1"],
])
def test_degenerate_sizes_and_bandwidths_exit_2(capsys, argv):
    assert main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_missing_trgx_exit_3(tmp_path, capsys):
    assert main(["dist", str(tmp_path / "nope.trgx"), "--kind", "mc"]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["dsc", "segment", "synth"])
def test_deeply_nested_json_exit_3(tmp_path, capsys, command):
    # Nesting deeper than the interpreter's recursion limit.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    path, t = make_trgx(tmp_path, "a.trgx", n=6)
    bundle = make_bundle(tmp_path, "b.json", t, [0, 1])
    argv = {
        "dsc": ["dsc", str(deep), bundle, "--tractogram", path],
        "segment": ["--prototypes", "3", "segment", "--example", path,
                    "--bundle", str(deep), "--target", path, "--kind", "mc",
                    "--out", str(tmp_path / "r.json")],
        "synth": ["synth", str(deep), "--out", str(tmp_path / "subj")],
    }[command]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# ---------------------------------------------------------------------------
# atomic outputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command, failing", [
    ("synth", "subj.trgx"),
    ("synth", "subj.a.json"),
    ("embed", "out.embd"),
    ("segment", "out.json"),
    ("dist", "out.csv"),
])
def test_failed_replace_keeps_earlier_output(tmp_path, capsys, monkeypatch, command, failing):
    path, t = make_trgx(tmp_path, "a.trgx", n=10)
    argv = {
        "synth": ["synth", write_spec(tmp_path), "--out", str(tmp_path / "subj")],
        "embed": ["--prototypes", "4", "embed", path, "--kind", "mdf-12",
                  "--out", str(tmp_path / failing)],
        "segment": ["--prototypes", "4", "segment", "--example", path,
                    "--bundle", make_bundle(tmp_path, "b.json", t, [1, 4]),
                    "--target", path, "--kind", "mdf-12", "--out", str(tmp_path / failing)],
        "dist": ["dist", path, "--kind", "mdf-12", "--out", str(tmp_path / failing)],
    }[command]
    dest = tmp_path / failing
    dest.write_bytes(b"earlier output")
    real_replace = os.replace

    def replace(src, dst):
        if os.path.basename(dst) == failing:
            raise OSError("simulated failure to replace the output")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert main(argv) == 3
    assert "simulated failure" in capsys.readouterr().err
    assert dest.read_bytes() == b"earlier output"
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []
