import json
import struct

import numpy as np
import pytest

from conftest import naive_read_trgx, random_streamline
from tractodist.distances import MC, mdf, pdm
from tractodist.embedding import embed_tractogram, select_prototypes_sff
from tractodist.errors import (
    BadMagic,
    CountMismatch,
    EmptyTractogram,
    FewerThanTwoDistinctPoints,
    HeaderMismatch,
    IndexOutOfRange,
    MalformedJson,
    NonFiniteCoordinate,
    TractodistError,
    TruncatedFile,
)
from tractodist.io import (
    EMBD_MAGIC,
    TRGX_MAGIC,
    read_bundle,
    read_embedding,
    read_tractogram,
    write_bundle,
    write_embedding,
    write_tractogram,
)
from tractodist.model import BundleRef, Tractogram, build_streamline

TRGX_ERRORS = (BadMagic, TruncatedFile, CountMismatch, EmptyTractogram,
               NonFiniteCoordinate, FewerThanTwoDistinctPoints)


def quantized_tractogram(rng, n=6):
    return Tractogram([
        build_streamline(random_streamline(rng).points.astype(np.float32))
        for _ in range(n)
    ])


def small_embedding(rng_seed=0, kind=MC, d=4):
    rng = np.random.default_rng(rng_seed)
    t = Tractogram([random_streamline(rng) for _ in range(9)])
    protos = select_prototypes_sff(t, kind, d, rng_seed=1)
    return embed_tractogram(t, protos, t, kind)


# ---------------------------------------------------------------------------
# TRGX
# ---------------------------------------------------------------------------

def test_trgx_bytes_match_layout(tmp_path):
    t = Tractogram([build_streamline([[1, 2, 3], [4, 5, 6]])])
    path = tmp_path / "a.trgx"
    write_tractogram(t, path, voxel_size=1.25, origin=(0.5, -1.0, 2.0))
    expected = (
        TRGX_MAGIC
        + struct.pack("<4f", 1.25, 0.5, -1.0, 2.0)
        + struct.pack("<Q", 1)
        + struct.pack("<I", 2)
        + struct.pack("<6f", 1, 2, 3, 4, 5, 6)
    )
    got = path.read_bytes()
    assert got == expected
    assert len(got) == 8 + 4 + 12 + 8 + 4 + 24


def test_trgx_roundtrip_bit_exact_when_quantized(tmp_path):
    rng = np.random.default_rng(5)
    t = quantized_tractogram(rng)
    path = tmp_path / "a.trgx"
    write_tractogram(t, path, voxel_size=2.5, origin=(1.0, 2.0, 3.0))
    back = read_tractogram(path)
    assert back.voxel_size == 2.5
    assert back.origin == (1.0, 2.0, 3.0)
    assert len(back.tractogram) == len(t)
    for a, b in zip(t, back.tractogram):
        np.testing.assert_array_equal(a.points, b.points)


def test_trgx_write_quantizes_to_float32(tmp_path):
    pts = np.array([[0.1, 0.2, 0.3], [1.123456789, 2.0, 3.0]])
    t = Tractogram([build_streamline(pts)])
    path = tmp_path / "a.trgx"
    write_tractogram(t, path)
    back = read_tractogram(path).tractogram[0].points
    np.testing.assert_array_equal(back, pts.astype(np.float32).astype(np.float64))
    assert not np.array_equal(back, pts)


def test_trgx_rejects_empty_write(tmp_path):
    with pytest.raises(EmptyTractogram):
        write_tractogram(Tractogram([]), tmp_path / "a.trgx")


def test_trgx_rejects_overflowing_coordinates(tmp_path):
    t = Tractogram([build_streamline([[0, 0, 0], [1e300, 0, 0]])])
    with pytest.raises(NonFiniteCoordinate):
        write_tractogram(t, tmp_path / "a.trgx")
    ok = Tractogram([build_streamline([[0, 0, 0], [1, 0, 0]])])
    with pytest.raises(NonFiniteCoordinate):
        write_tractogram(ok, tmp_path / "a.trgx", voxel_size=float("inf"))


def craft_trgx(streamline_blobs, n=None, voxel=1.25):
    body = b"".join(streamline_blobs)
    count = len(streamline_blobs) if n is None else n
    return (TRGX_MAGIC + struct.pack("<4f", voxel, 0, 0, 0)
            + struct.pack("<Q", count) + body)


def blob(points):
    pts = np.asarray(points, dtype="<f4")
    return struct.pack("<I", len(pts)) + pts.tobytes()


def test_trgx_read_errors(tmp_path):
    path = tmp_path / "bad.trgx"
    good = craft_trgx([blob([[0, 0, 0], [1, 1, 1]])])

    cases = [
        (b"TRGY" + good[4:], BadMagic),
        (good[:5], TruncatedFile),
        (good[:20], TruncatedFile),
        (good[:len(good) - 3], TruncatedFile),
        (good + b"\x00", CountMismatch),
        (craft_trgx([blob([[0, 0, 0]])]), CountMismatch),
        (craft_trgx([blob([[0, 0, 0], [1, 1, 1]])], n=2), TruncatedFile),
        (craft_trgx([], n=0), EmptyTractogram),
        (craft_trgx([blob([[0, 0, 0], [1, 1, 1]])], voxel=float("nan")),
         NonFiniteCoordinate),
        (craft_trgx([blob([[0, 0, 0], [float("nan"), 1, 1]])]),
         NonFiniteCoordinate),
        (craft_trgx([blob([[2, 2, 2], [2, 2, 2]])]), FewerThanTwoDistinctPoints),
    ]
    for data, err in cases:
        path.write_bytes(data)
        with pytest.raises(err):
            read_tractogram(path)


def test_trgx_seeded_mutation_fuzz(tmp_path):
    rng = np.random.default_rng(99)
    t = quantized_tractogram(rng, n=3)
    path = tmp_path / "a.trgx"
    write_tractogram(t, path)
    good = bytearray(path.read_bytes())
    mutated = tmp_path / "m.trgx"
    for _ in range(300):
        data = bytearray(good)
        op = rng.integers(3)
        if op == 0:
            data[rng.integers(len(data))] ^= 1 << rng.integers(8)
        elif op == 1:
            data = data[: rng.integers(len(data))]
        else:
            data += bytes(rng.integers(0, 256, rng.integers(1, 9), dtype=np.uint8))
        mutated.write_bytes(bytes(data))
        try:
            read_tractogram(mutated)
        except TRGX_ERRORS:
            pass


def read_outcome(reader, path):
    try:
        return reader(path)
    except TractodistError as exc:
        return exc


def assert_same_as_oracle(path):
    """The bulk reader returns what the per-streamline reader returns:
    the same header and bit-identical points, or the same error."""
    want = read_outcome(naive_read_trgx, path)
    got = read_outcome(read_tractogram, path)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return want
    assert not isinstance(got, Exception), got
    assert (got.voxel_size, got.origin) == (want.voxel_size, want.origin)
    assert len(got.tractogram) == len(want.tractogram)
    for a, b in zip(got.tractogram, want.tractogram):
        assert a.points.shape == b.points.shape
        assert a.points.tobytes() == b.points.tobytes()
        assert not a.points.flags.writeable
    # The store itself: what a Tractogram of the oracle's streamlines holds.
    flat = Tractogram(list(want.tractogram))
    assert got.tractogram.points.tobytes() == flat.points.tobytes()
    assert np.array_equal(got.tractogram.offsets, flat.offsets)
    return got


def ragged_blobs(rng, n):
    """Short valid streamlines; some repeat a point, some start where the
    previous one ended."""
    blobs, last = [], None
    for _ in range(n):
        start = last if last is not None and rng.random() < 0.3 else rng.integers(-3, 4, 3)
        steps = rng.integers(-2, 3, (int(rng.integers(1, 6)), 3))
        steps[~steps.any(axis=1), 0] = 1  # every step moves
        pts = np.vstack([start, start + steps.cumsum(axis=0)])
        if rng.random() < 0.3:
            k = int(rng.integers(len(pts)))
            pts = np.insert(pts, k, pts[k], axis=0)
        last = pts[-1]
        blobs.append(blob(pts))
    return blobs


def mutate(rng, data: bytearray) -> bytearray:
    """One random damage: a bit flip, a cut, extra bytes, a non-finite
    word, a small integer word or a repeated point."""
    words = range(24, len(data) - 3, 4)  # the streamline count and what follows
    op = rng.integers(6)
    if op == 0:
        data[rng.integers(len(data))] ^= 1 << rng.integers(8)
    elif op == 1:
        data = data[: rng.integers(len(data))]
    elif op == 2:
        data += bytes(rng.integers(0, 256, rng.integers(1, 9), dtype=np.uint8))
    elif op == 3 and words:
        w = rng.choice(words)
        data[w:w + 4] = np.float32(rng.choice([np.nan, np.inf, -np.inf])).tobytes()
    elif op == 4 and words:
        w = 24 if rng.random() < 0.25 else rng.choice(words)  # often the streamline count
        data[w:w + 4] = struct.pack("<I", int(rng.integers(0, 6)))
    elif op == 5 and len(data) >= 56:
        w = rng.choice(range(44, len(data) - 11, 4))
        data[w:w + 12] = data[w - 12:w]
    return data


def test_trgx_bulk_reader_matches_oracle_on_mutations(tmp_path):
    rng = np.random.default_rng(2024)
    good = craft_trgx(ragged_blobs(rng, 40))
    path = tmp_path / "m.trgx"
    errors = set()
    for _ in range(2000):
        data = bytearray(good)
        for _ in range(rng.integers(1, 4)):
            data = mutate(rng, data)
        path.write_bytes(bytes(data))
        outcome = assert_same_as_oracle(path)
        errors.add(type(outcome).__name__)
    # The mutations reach every check of the read, and some files pass.
    assert errors >= {"BadMagic", "TruncatedFile", "CountMismatch", "EmptyTractogram",
                      "NonFiniteCoordinate", "FewerThanTwoDistinctPoints", "TrgxFile"}


def test_trgx_bulk_reader_fixed_cases(tmp_path):
    path = tmp_path / "a.trgx"
    nan = float("nan")

    def check(data, expected):
        path.write_bytes(data)
        outcome = assert_same_as_oracle(path)
        if isinstance(expected, type):
            assert isinstance(outcome, expected)
        else:
            assert [len(s) for s in outcome.tractogram] == expected

    # Consecutive streamlines sharing an endpoint do not collapse.
    check(craft_trgx([blob([[0, 0, 0], [1, 1, 1]]), blob([[1, 1, 1], [2, 2, 2]]),
                      blob([[2, 2, 2], [0, 0, 0], [0, 0, 0]])]), [2, 2, 2])
    # A duplicate run inside one streamline collapses to one point.
    check(craft_trgx([blob([[0, 0, 0], [1, 1, 1], [1, 1, 1], [1, 1, 1], [2, 2, 2]])]), [3])

    # More than one block, with a defect in a later block.
    rng = np.random.default_rng(3)
    blobs = ragged_blobs(rng, 2500)
    path.write_bytes(craft_trgx(blobs))
    assert len(assert_same_as_oracle(path).tractogram) == 2500
    late_nan = list(blobs)
    late_nan[2100] = blob([[0, 0, 0], [nan, 1, 1]])
    check(craft_trgx(late_nan), NonFiniteCoordinate)
    late_flat = list(blobs)
    late_flat[1500] = blob([[5, 5, 5], [5, 5, 5], [5, 5, 5]])
    late_flat[2100] = blob([[0, 0, 0], [nan, 1, 1]])
    check(craft_trgx(late_flat), FewerThanTwoDistinctPoints)

    # A NaN in streamline j comes before a bad count in streamline i > j,
    # and before trailing bytes.
    ok = blob([[0, 0, 0], [1, 1, 1]])
    bad_point = blob([[0, 0, 0], [nan, 1, 1]])
    check(craft_trgx([ok, bad_point, ok, struct.pack("<I", 1) + bytes(12)]),
          NonFiniteCoordinate)
    check(craft_trgx([ok, bad_point, ok, struct.pack("<I", 9)]), NonFiniteCoordinate)
    check(craft_trgx([ok, bad_point, ok]) + b"\x00\x01", NonFiniteCoordinate)
    # In one streamline, non-finite comes before too few distinct points.
    inf = float("inf")
    check(craft_trgx([ok, blob([[inf, 0, 0], [inf, 0, 0]])]), NonFiniteCoordinate)
    # Without the NaN, the deferred errors are the ones raised.
    check(craft_trgx([ok, ok, ok, struct.pack("<I", 1) + bytes(12)]), CountMismatch)
    check(craft_trgx([ok, ok, ok, struct.pack("<I", 9)]), TruncatedFile)
    check(craft_trgx([ok, ok, ok]) + b"\x00\x01", CountMismatch)


# ---------------------------------------------------------------------------
# EMBD
# ---------------------------------------------------------------------------

def test_embd_size_arithmetic(tmp_path):
    emb = small_embedding(kind=mdf(20), d=5)
    path = tmp_path / "a.embd"
    write_embedding(emb, path)
    klen = len("mdf-20")
    assert path.stat().st_size == 8 + 2 + klen + 4 + 8 * 5 + 8 + 8 * len(emb) * 5


def test_embd_roundtrip_lossless(tmp_path):
    emb = small_embedding(kind=pdm(3.75), d=4)
    path = tmp_path / "a.embd"
    write_embedding(emb, path)
    back = read_embedding(path)
    assert back.kind == pdm(3.75)
    assert back.prototypes.indices == emb.prototypes.indices
    np.testing.assert_array_equal(back.vectors, emb.vectors)


def test_embd_header_keeps_full_precision_param(tmp_path):
    # The header must keep every digit, or reloading would silently change
    # the kind; it is the kind's one string form.
    sigma = 3.14159
    emb = small_embedding(kind=pdm(sigma), d=3)
    path = tmp_path / "a.embd"
    write_embedding(emb, path)
    assert read_embedding(path).kind.param == sigma
    assert str(pdm(sigma)) == "pdm-3.14159"


def craft_embd(kind=b"mc", indices=(0, 1, 2), rows=2, payload=None, magic=EMBD_MAGIC):
    d = len(indices)
    if payload is None:
        payload = np.arange(rows * d, dtype="<f8").tobytes()
    return (magic + struct.pack("<H", len(kind)) + kind
            + struct.pack("<I", d)
            + np.asarray(indices, dtype="<u8").tobytes()
            + struct.pack("<Q", rows) + payload)


def test_embd_read_errors(tmp_path):
    path = tmp_path / "bad.embd"
    nan_payload = np.full(6, np.nan, dtype="<f8").tobytes()
    cases = [
        craft_embd(magic=b"EMBX\x00\x00\x00\x01"),
        craft_embd()[:9],
        craft_embd(kind=b"volume"),
        craft_embd(kind=b"mdf-0"),
        craft_embd(indices=()),
        craft_embd(indices=(1, 1, 2)),
        craft_embd(rows=0, payload=b""),
        craft_embd() + b"\x00",
        craft_embd()[:-4],
        craft_embd(payload=nan_payload),
    ]
    for data in cases:
        path.write_bytes(data)
        with pytest.raises(HeaderMismatch):
            read_embedding(path)


@pytest.mark.parametrize("entry", [-5.0, -1e-300, 1e154, 1e200, np.inf, np.nan])
def test_embd_entries_must_be_distances_the_tree_can_square(tmp_path, entry):
    payload = np.arange(30, dtype="<f8")
    payload[-2] = entry
    path = tmp_path / "e.embd"
    path.write_bytes(craft_embd(indices=(0, 1, 2), rows=10, payload=payload.tobytes()))
    with pytest.raises(HeaderMismatch):
        read_embedding(path)


def test_embd_entries_up_to_the_bound_are_accepted(tmp_path):
    payload = np.full(30, 1e153, dtype="<f8")
    path = tmp_path / "e.embd"
    path.write_bytes(craft_embd(indices=(0, 1, 2), rows=10, payload=payload.tobytes()))
    assert read_embedding(path).vectors.max() == 1e153


@pytest.mark.parametrize("kind", [b"pdm-inf", b"var-nan", b"pdm-1e400"])
def test_embd_non_finite_bandwidth_is_a_header_mismatch(tmp_path, kind):
    path = tmp_path / "e.embd"
    path.write_bytes(craft_embd(kind=kind))
    with pytest.raises(HeaderMismatch):
        read_embedding(path)


def test_embd_seeded_mutation_fuzz(tmp_path):
    rng = np.random.default_rng(7)
    good = bytearray(craft_embd(kind=b"var-42.0", indices=(3, 1, 4), rows=5))
    path = tmp_path / "m.embd"
    for _ in range(300):
        data = bytearray(good)
        op = rng.integers(3)
        if op == 0:
            data[rng.integers(len(data))] ^= 1 << rng.integers(8)
        elif op == 1:
            data = data[: rng.integers(len(data))]
        else:
            data += bytes(rng.integers(0, 256, rng.integers(1, 9), dtype=np.uint8))
        path.write_bytes(bytes(data))
        try:
            read_embedding(path)
        except HeaderMismatch:
            pass


# ---------------------------------------------------------------------------
# bundle / indices JSON
# ---------------------------------------------------------------------------

def test_bundle_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    t = Tractogram([random_streamline(rng) for _ in range(6)])
    ref = BundleRef(t, [4, 0, 2], name="left")
    path = tmp_path / "b.json"
    write_bundle(ref, path, tractogram_filename="t.trgx")
    back = read_bundle(path, t)
    assert back.indices == (0, 2, 4)
    assert back.name == "left"
    assert json.loads(path.read_text())["tractogram"] == "t.trgx"


def test_bundle_rejects_out_of_range(tmp_path):
    rng = np.random.default_rng(2)
    t = Tractogram([random_streamline(rng) for _ in range(3)])
    path = tmp_path / "b.json"
    path.write_text('{"name": "x", "indices": [0, 99]}')
    with pytest.raises(IndexOutOfRange):
        read_bundle(path, t)
    path.write_text('{"name": "x", "indices": [-1]}')
    with pytest.raises(IndexOutOfRange):
        read_bundle(path, t)


def test_indices_json_accepts_both_schemas(tmp_path):
    rng = np.random.default_rng(3)
    t = Tractogram([random_streamline(rng) for _ in range(6)])
    path = tmp_path / "doc.json"
    path.write_text('{"name": "b", "indices": [3, 1]}')
    back = read_bundle(path, t)
    assert (back.name, back.indices) == ("b", (1, 3))
    path.write_text('{"name": "r", "predicted": [5], "example": [0]}')
    back = read_bundle(path, t)
    assert (back.name, back.indices) == ("r", (5,))


@pytest.mark.parametrize("text", [
    "not json at all {",
    "[1, 2, 3]",
    '{"name": "x"}',
    '{"name": "x", "indices": "0,1"}',
    '{"name": "x", "indices": [0, "1"]}',
    '{"name": "x", "indices": [true]}',
    '{"name": 7, "indices": [0]}',
])
def test_indices_json_rejects_malformed(tmp_path, text):
    rng = np.random.default_rng(4)
    t = Tractogram([random_streamline(rng) for _ in range(3)])
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(MalformedJson):
        read_bundle(path, t)
