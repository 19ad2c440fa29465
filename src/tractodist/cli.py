"""Command-line interface: one binary, one subcommand per pipeline stage.

Subcommands
-----------
synth       generate a synthetic subject (TRGX + one bundle JSON per bundle)
dist        distance matrix (or selected pairs) between tractograms, CSV out
embed       dissimilarity embedding of a tractogram, EMBD out
segment     transfer an example bundle onto a target, result JSON out
dsc         voxel Dice coefficient between two bundle/result JSONs
agreement   NN agreement matrix across kinds for given examples/targets
bench       canned experiments on the default synthetic benchmark

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 numerical or
contract error. All randomness flows from --seed, so every subcommand is
deterministic given identical flags and inputs (timing values excepted).

The synth spec file is JSON:

    {"bundles": {"<name>": {"centerline": {...}, "streamline_count": 50,
                            "radial_jitter_sigma": 2.0,
                            "points_range": [20, 100], "rng_seed": 1}},
     "noise_streamlines": 50,
     "displacement_sigma": 0.0}

with centerline dicts as accepted by the generator (arc, helix, polyline).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .ann import KdTree
from .bench import (
    agreement_csv,
    default_benchmark_subjects,
    dsc_table_csv,
    run_agreement,
    run_dsc_experiment,
    run_timing,
    timing_csv,
)
from .distances import DistanceKind, default_kinds, distance, distance_matrix, parse_kind
from .embedding import embed_tractogram, select_prototypes_sff
from .errors import (
    BadMagic,
    CountMismatch,
    EmptyTractogram,
    FewerThanTwoDistinctPoints,
    HeaderMismatch,
    IndexOutOfRange,
    InvalidSpec,
    MalformedJson,
    NonFiniteCoordinate,
    TractodistError,
    TruncatedFile,
)
from .io import (
    read_bundle,
    read_embedding,
    read_tractogram,
    write_atomic,
    write_bundle,
    write_embedding,
    write_tractogram,
)
from .segmentation import VoxelGrid, dsc, prepare_target, segment, voxelize
from .synth import BundleSpec, generate_subject, perturb_subject

# Errors caused by what is *in* (or missing from) an input file.
_DATA_ERRORS = (
    OSError,
    BadMagic,
    TruncatedFile,
    CountMismatch,
    EmptyTractogram,
    NonFiniteCoordinate,
    FewerThanTwoDistinctPoints,
    MalformedJson,
    HeaderMismatch,
    IndexOutOfRange,
    InvalidSpec,
)


# ---------------------------------------------------------------------------
# Argument types
# ---------------------------------------------------------------------------

def _kind_arg(text: str) -> DistanceKind:
    try:
        return parse_kind(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _kinds_arg(text: str) -> list[DistanceKind]:
    return [_kind_arg(part) for part in text.split(",") if part.strip()]


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


def _nonneg_int(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {v}")
    return v


def _positive_float(text: str) -> float:
    v = float(text)
    if not v > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {v}")
    return v


def _pairs_arg(text: str) -> list[tuple[int, int]]:
    pairs = []
    for part in text.split(","):
        i, sep, j = part.partition(":")
        if not sep:
            raise argparse.ArgumentTypeError(f"pair {part!r} is not of the form i:j")
        try:
            pairs.append((int(i), int(j)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"pair {part!r} is not of the form i:j") from None
    if not pairs:
        raise argparse.ArgumentTypeError("empty pair list")
    return pairs


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tractodist",
        description="Streamline distances, dissimilarity embeddings, and "
                    "nearest-neighbor bundle segmentation.",
    )
    parser.add_argument("--seed", type=_nonneg_int, default=42,
                        help="seed for all randomized steps (default 42)")
    parser.add_argument("--threads", type=_positive_int, default=None,
                        help="worker threads for batch distances (default: serial)")
    parser.add_argument("--sigma", type=_positive_float, default=42.0,
                        help="kernel bandwidth in mm for default pdm/var kinds (default 42.0)")
    parser.add_argument("--prototypes", type=_positive_int, default=40,
                        help="embedding dimension / prototype count (default 40)")
    parser.add_argument("--voxel-size", type=_positive_float, default=None,
                        help="voxel edge in mm (default 1.25, or the TRGX header)")
    parser.add_argument("--sff-subset", type=_positive_int, default=None,
                        help="candidate subset size for prototype selection "
                             "(default: min(N, 2000))")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic subject")
    p.add_argument("spec", help="JSON bundle spec file")
    p.add_argument("--out", required=True, help="output prefix (writes <out>.trgx ...)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("dist", help="distance matrix between tractograms")
    p.add_argument("trgx_a")
    p.add_argument("trgx_b", nargs="?", default=None,
                   help="second tractogram (default: first vs itself)")
    p.add_argument("--kind", type=_kind_arg, required=True)
    p.add_argument("--pairs", type=_pairs_arg, default=None,
                   help="only these i:j pairs, as 'i:j[,i:j...]'")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("embed", help="dissimilarity embedding of a tractogram")
    p.add_argument("trgx")
    p.add_argument("--kind", type=_kind_arg, required=True)
    p.add_argument("--out", required=True, help="output EMBD path")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("segment", help="transfer an example bundle onto a target")
    p.add_argument("--example", required=True, help="example subject TRGX")
    p.add_argument("--bundle", required=True, help="example bundle JSON")
    p.add_argument("--target", required=True, help="target subject TRGX")
    p.add_argument("--embedding", default=None,
                   help="reuse a precomputed target EMBD (kind must match)")
    p.add_argument("--kind", type=_kind_arg, required=True)
    p.add_argument("--out", required=True, help="output result JSON path")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("dsc", help="voxel Dice coefficient of two bundles")
    p.add_argument("bundle_a", help="bundle or segmentation-result JSON")
    p.add_argument("bundle_b", help="bundle or segmentation-result JSON")
    p.add_argument("--tractogram", required=True, help="TRGX both index into")
    p.set_defaults(func=cmd_dsc)

    p = sub.add_parser("agreement", help="NN agreement matrix across kinds")
    p.add_argument("--example", required=True, help="example subject TRGX")
    p.add_argument("--bundle", action="append", required=True,
                   help="example bundle JSON (repeatable)")
    p.add_argument("--target", action="append", required=True,
                   help="target TRGX (repeatable)")
    p.add_argument("--kinds", type=_kinds_arg, default=None,
                   help="comma-separated kinds (default: all eight)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_agreement)

    p = sub.add_parser("bench", help="canned experiments on the default benchmark")
    p.add_argument("analysis", choices=("dsc", "timing", "agreement"))
    p.add_argument("--subjects", type=_positive_int, default=5)
    p.add_argument("--pairs", type=_positive_int, default=90000)
    p.add_argument("--repetitions", type=_positive_int, default=3)
    p.add_argument("--noise", type=_nonneg_int, default=50,
                   help="noise streamlines per subject (default 50)")
    p.add_argument("--displacement", type=_positive_float, default=1.0,
                   help="between-subject displacement in mm (default 1.0)")
    p.add_argument("--kinds", type=_kinds_arg, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        write_atomic(out_path, text.encode())
    else:
        sys.stdout.write(text)


def _read_spec_file(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedJson(f"{path}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("bundles"), dict):
        raise InvalidSpec(f"{path}: expected an object with a 'bundles' mapping")
    return doc


def cmd_synth(args) -> int:
    doc = _read_spec_file(args.spec)
    specs = {}
    for name, b in doc["bundles"].items():
        if not isinstance(b, dict):
            raise InvalidSpec(f"bundle {name!r} must be an object")
        try:
            specs[name] = BundleSpec(
                centerline=b["centerline"],
                streamline_count=int(b["streamline_count"]),
                radial_jitter_sigma=float(b["radial_jitter_sigma"]),
                points_range=tuple(b.get("points_range", (30, 60))),
                rng_seed=int(b.get("rng_seed", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidSpec(f"bundle {name!r}: {exc}") from exc
    subject = generate_subject(
        specs, int(doc.get("noise_streamlines", 0)), global_seed=args.seed
    )
    displacement = float(doc.get("displacement_sigma", 0.0))
    if displacement > 0:
        subject = perturb_subject(subject, displacement, seed=args.seed)

    trgx_path = f"{args.out}.trgx"
    write_tractogram(subject.tractogram, trgx_path,
                     voxel_size=args.voxel_size or 1.25)
    print(f"wrote {trgx_path}")
    for name, ref in subject.truth.items():
        bundle_path = f"{args.out}.{name}.json"
        write_bundle(ref, bundle_path, tractogram_filename=os.path.basename(trgx_path))
        print(f"wrote {bundle_path}")
    return 0


def cmd_dist(args) -> int:
    file_a = read_tractogram(args.trgx_a)
    a = file_a.tractogram
    b = a if args.trgx_b is None else read_tractogram(args.trgx_b).tractogram
    if args.pairs:
        lines = ["i,j,distance"]
        for i, j in args.pairs:
            if not (0 <= i < len(a) and 0 <= j < len(b)):
                raise IndexOutOfRange(f"pair {i}:{j} out of range ({len(a)} x {len(b)})")
            lines.append(f"{i},{j},{distance(args.kind, a[i], b[j]):.17g}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    matrix = distance_matrix(args.kind, list(a),
                             None if b is a else list(b), threads=args.threads)
    lines = [",".join(f"{v:.17g}" for v in row) for row in matrix]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_embed(args) -> int:
    t = read_tractogram(args.trgx).tractogram
    protos = select_prototypes_sff(
        t, args.kind, args.prototypes,
        subset_size=args.sff_subset, rng_seed=args.seed, threads=args.threads,
    )
    emb = embed_tractogram(t, protos, t, args.kind, threads=args.threads)
    write_embedding(emb, args.out)
    print(f"wrote {args.out}: {len(emb)} x {emb.dimension} ({emb.kind})")
    return 0


def cmd_segment(args) -> int:
    example_t = read_tractogram(args.example).tractogram
    example = read_bundle(args.bundle, example_t)
    target = read_tractogram(args.target).tractogram
    if args.embedding:
        embedded = read_embedding(args.embedding)
        if embedded.kind != args.kind:
            raise HeaderMismatch(
                f"{args.embedding} holds kind {embedded.kind}, requested {args.kind}"
            )
        if len(embedded) != len(target):
            raise HeaderMismatch(
                f"{args.embedding} has {len(embedded)} rows for a target of "
                f"{len(target)} streamlines"
            )
        top = max(embedded.prototypes.indices)
        if top >= len(target):
            raise HeaderMismatch(
                f"{args.embedding} names prototype {top} in a target of "
                f"{len(target)} streamlines"
            )
        _check_embedding_rows(args, embedded, target)
        tree = KdTree(embedded.vectors)
    else:
        embedded, tree = prepare_target(
            target, args.kind, args.prototypes,
            subset_size=args.sff_subset, rng_seed=args.seed, threads=args.threads,
        )
    result = segment(example, embedded, tree, target, args.kind)
    doc = result.to_json_dict()
    doc["name"] = result.predicted.name
    write_atomic(args.out, (json.dumps(doc, indent=1) + "\n").encode())
    print(f"wrote {args.out}: {len(result.predicted)} streamlines predicted")
    return 0


# Rows of a reused EMBD recomputed against the target. An EMBD built from
# another tractogram of the same size passes every header check, and even
# E[p_j, j] == 0 (a prototype is at distance 0 from itself in any tractogram).
_CHECKED_ROWS = 4


def _check_embedding_rows(args, embedded, target) -> None:
    rng = np.random.default_rng(args.seed)
    rows = np.sort(rng.choice(len(target), min(_CHECKED_ROWS, len(target)), replace=False))
    protos = [target[j] for j in embedded.prototypes.indices]
    fresh = distance_matrix(args.kind, [target[i] for i in rows], protos)
    if not np.allclose(fresh, embedded.vectors[rows], rtol=1e-9, atol=1e-9):
        raise HeaderMismatch(
            f"{args.embedding} rows {rows.tolist()} differ from the distances "
            f"recomputed on {args.target}: it was built from another tractogram"
        )


def cmd_dsc(args) -> int:
    trgx = read_tractogram(args.tractogram)
    grid = VoxelGrid(origin=trgx.origin,
                     voxel_size=args.voxel_size or trgx.voxel_size)
    voxels = []
    for path in (args.bundle_a, args.bundle_b):
        ref = read_bundle(path, trgx.tractogram)
        voxels.append(voxelize(ref, trgx.tractogram, grid))
    print(f"{dsc(voxels[0], voxels[1]):.6f}")
    return 0


def cmd_agreement(args) -> int:
    example_t = read_tractogram(args.example).tractogram
    bundles = [read_bundle(path, example_t) for path in args.bundle]
    targets = [read_tractogram(path).tractogram for path in args.target]
    matrix = run_agreement(
        bundles, targets, args.kinds or default_kinds(args.sigma),
        prototype_count=args.prototypes, subset_size=args.sff_subset,
        rng_seed=args.seed, threads=args.threads,
    )
    _emit(agreement_csv(matrix), args.out)
    return 0


def cmd_bench(args) -> int:
    kinds = args.kinds or default_kinds(args.sigma)
    if args.analysis == "timing":
        rows = run_timing(kinds, pair_count=args.pairs,
                          repetitions=args.repetitions, seed=args.seed)
        _emit(timing_csv(rows), args.out)
        return 0
    subjects = default_benchmark_subjects(
        args.subjects, displacement_sigma=args.displacement,
        noise_streamline_count=args.noise, seed=args.seed,
    )
    if args.analysis == "dsc":
        table = run_dsc_experiment(
            subjects, kinds, grid=VoxelGrid(voxel_size=args.voxel_size or 1.25),
            prototype_count=args.prototypes, subset_size=args.sff_subset,
            rng_seed=args.seed, threads=args.threads,
        )
        _emit(dsc_table_csv(table), args.out)
        return 0
    examples = list(subjects[0].truth.values())
    targets = [s.tractogram for s in subjects[1:]]
    matrix = run_agreement(
        examples, targets, kinds,
        prototype_count=args.prototypes, subset_size=args.sff_subset,
        rng_seed=args.seed, threads=args.threads,
    )
    _emit(agreement_csv(matrix), args.out)
    return 0


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TractodistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
