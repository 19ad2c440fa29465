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
import math
import os
import sys

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
from .distances import DEFAULT_SIGMA, DistanceKind, default_kinds, distance_matrix, parse_kind, pdm
from .embedding import (
    DEFAULT_PROTOTYPE_COUNT,
    DEFAULT_SUBSET_CAP,
    embed_tractogram,
    select_prototypes_sff,
)
from .errors import DataError, IndexOutOfRange, InvalidSpec, TractodistError
from .io import (
    read_bundle,
    read_embedding_for,
    read_json,
    read_tractogram,
    write_atomic,
    write_bundle,
    write_embedding,
    write_tractogram,
)
from .segmentation import DEFAULT_VOXEL_SIZE, VoxelGrid, dsc, prepare_target, segment, voxelize
from .synth import BundleSpec, generate_subject, perturb_subject


# ---------------------------------------------------------------------------
# Argument types
# ---------------------------------------------------------------------------

def _kind_arg(text: str) -> DistanceKind:
    try:
        return parse_kind(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _sigma_arg(text: str) -> float:
    try:
        return pdm(float(text)).param
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
    if not 0 < v < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {v}")
    return v


def _pairs_arg(text: str) -> list[tuple[int, int]]:
    pairs = []
    for part in text.split(","):
        i, _, j = part.partition(":")  # no ":" leaves j empty, which int() rejects
        try:
            pairs.append((int(i), int(j)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"pair {part!r} is not of the form i:j") from None
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
    parser.add_argument("--sigma", type=_sigma_arg, default=DEFAULT_SIGMA,
                        help="kernel bandwidth in mm for default pdm/var kinds "
                             "(default %(default)s)")
    parser.add_argument("--prototypes", type=_positive_int, default=DEFAULT_PROTOTYPE_COUNT,
                        help="embedding dimension / prototype count (default %(default)s)")
    parser.add_argument("--voxel-size", type=_positive_float, default=None,
                        help=f"voxel edge in mm (default {DEFAULT_VOXEL_SIZE}, "
                             f"or the TRGX header)")
    parser.add_argument("--sff-subset", type=_positive_int, default=None,
                        help="candidate subset size for prototype selection "
                             f"(default: min(N, {DEFAULT_SUBSET_CAP}))")
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
    doc = read_json(path)
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
                streamline_count=b["streamline_count"],
                radial_jitter_sigma=float(b["radial_jitter_sigma"]),
                points_range=tuple(b.get("points_range", (30, 60))),
                rng_seed=b.get("rng_seed", 0),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidSpec(f"bundle {name!r}: {exc}") from exc
    try:
        displacement = float(doc.get("displacement_sigma", 0.0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidSpec(f"{args.spec}: {exc}") from exc
    subject = generate_subject(specs, doc.get("noise_streamlines", 0), global_seed=args.seed)
    if displacement > 0:
        subject = perturb_subject(subject, displacement, seed=args.seed)

    trgx_path = f"{args.out}.trgx"
    write_tractogram(subject.tractogram, trgx_path,
                     voxel_size=args.voxel_size or DEFAULT_VOXEL_SIZE)
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
            # The entry the full matrix prints: a symmetric matrix computes
            # its upper triangle and mirrors it.
            r, c = sorted((i, j)) if b is a else (i, j)
            d = distance_matrix(args.kind, [a[r]], [b[c]])[0, 0]
            lines.append(f"{i},{j},{d:.17g}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    matrix = distance_matrix(args.kind, a, b)
    lines = [",".join(f"{v:.17g}" for v in row) for row in matrix]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_embed(args) -> int:
    t = read_tractogram(args.trgx).tractogram
    protos = select_prototypes_sff(t, args.kind, args.prototypes,
                                   subset_size=args.sff_subset, rng_seed=args.seed)
    emb = embed_tractogram(t, protos, t, args.kind)
    write_embedding(emb, args.out)
    print(f"wrote {args.out}: {len(emb)} x {emb.dimension} ({emb.kind})")
    return 0


def cmd_segment(args) -> int:
    example_t = read_tractogram(args.example).tractogram
    example = read_bundle(args.bundle, example_t)
    target = read_tractogram(args.target).tractogram
    if args.embedding:
        embedded = read_embedding_for(args.embedding, target, args.kind, args.seed)
        tree = KdTree(embedded.vectors)
    else:
        embedded, tree = prepare_target(target, args.kind, args.prototypes,
                                        subset_size=args.sff_subset, rng_seed=args.seed)
    result = segment(example, embedded, tree, target, args.kind)
    write_atomic(args.out, (json.dumps(result.to_json_dict(), indent=1) + "\n").encode())
    print(f"wrote {args.out}: {len(result.predicted)} streamlines predicted")
    return 0


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
        rng_seed=args.seed,
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
            subjects, kinds, grid=VoxelGrid(voxel_size=args.voxel_size or DEFAULT_VOXEL_SIZE),
            prototype_count=args.prototypes, subset_size=args.sff_subset,
            rng_seed=args.seed,
        )
        _emit(dsc_table_csv(table), args.out)
        return 0
    examples = list(subjects[0].truth.values())
    targets = [s.tractogram for s in subjects[1:]]
    matrix = run_agreement(
        examples, targets, kinds,
        prototype_count=args.prototypes, subset_size=args.sff_subset,
        rng_seed=args.seed,
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
    except (OSError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TractodistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
