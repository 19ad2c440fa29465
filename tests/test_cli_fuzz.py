"""Seeded mutation fuzz of the CLI's input files and global flags.

Every subcommand that reads TRGX, EMBD, bundle, result or synth spec JSON
is run on damaged copies of valid inputs. Whatever the damage, main must
return 0, 3 or 4 and print no traceback. Mutated global flags may also
give a usage error, exit 2.
"""

import json
import struct

import numpy as np
import pytest

from tractodist.cli import main
from tractodist.io import TRGX_MAGIC

SPEC = {
    "bundles": {
        "a": {"centerline": {"type": "arc", "center": [0, 0, 0], "radius": 30.0,
                             "theta0_deg": 0.0, "theta1_deg": 120.0, "axis": "z"},
              "streamline_count": 6, "radial_jitter_sigma": 1.0,
              "points_range": [8, 16], "rng_seed": 1},
        "b": {"centerline": {"type": "polyline",
                             "points": [[80, 0, 0], [90, 10, 0], [100, 0, 10]]},
              "streamline_count": 5, "radial_jitter_sigma": 1.0,
              "points_range": [8, 16], "rng_seed": 2},
    },
    "noise_streamlines": 3,
}

GLOBAL = ["--prototypes", "3"]
KIND = "mdf-12"

# Each command names its input files by role; the fuzz damages one of them.
COMMANDS = {
    "segment": ["segment", "--example", "{ex}", "--bundle", "{ex_a}",
                "--target", "{tg}", "--kind", KIND, "--out", "{out}"],
    "segment --embedding": ["segment", "--example", "{ex}", "--bundle", "{ex_a}",
                            "--target", "{tg}", "--embedding", "{embd}",
                            "--kind", KIND, "--out", "{out}"],
    "embed": ["embed", "{tg}", "--kind", KIND, "--out", "{out}"],
    "dsc": ["dsc", "{result}", "{tg_a}", "--tractogram", "{tg}"],
    "agreement": ["agreement", "--example", "{ex}", "--bundle", "{ex_a}",
                  "--bundle", "{ex_b}", "--target", "{tg}", "--kinds", f"mc,{KIND}",
                  "--out", "{out}"],
}
ROLES = {
    name: [part[1:-1] for part in argv if part.startswith("{") and part != "{out}"]
    for name, argv in COMMANDS.items()
}

SPECIAL_FLOATS = [np.inf, -np.inf, np.nan, 0.0, -5.0, 1e-30, 1e30, 1e38, 1e200, -1e200]
SPECIAL_JSON = [-1, 0, 10 ** 6, 10 ** 30, 1.5, True, None, "x", [], {}, [[0]]]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    spec = d / "spec.json"
    spec.write_text(json.dumps(SPEC))
    paths = {"out": str(d / "out")}
    for prefix, seed in (("ex", 1), ("tg", 2)):
        assert main(["--seed", str(seed), "synth", str(spec), "--out", str(d / prefix)]) == 0
        paths[prefix] = str(d / f"{prefix}.trgx")
        paths[f"{prefix}_a"] = str(d / f"{prefix}.a.json")
        paths[f"{prefix}_b"] = str(d / f"{prefix}.b.json")
    paths["embd"] = str(d / "tg.embd")
    paths["result"] = str(d / "result.json")
    assert main(GLOBAL + ["embed", paths["tg"], "--kind", KIND, "--out", paths["embd"]]) == 0
    assert main(GLOBAL + ["segment", "--example", paths["ex"], "--bundle", paths["ex_a"],
                          "--target", paths["tg"], "--kind", KIND,
                          "--out", paths["result"]]) == 0
    return paths


def mutate_bytes(rng, data: bytes, float_size: int) -> bytes:
    data = bytearray(data)
    op = rng.integers(4)
    if op == 0:
        data[rng.integers(len(data))] ^= 1 << int(rng.integers(8))
    elif op == 1:
        data = data[:rng.integers(len(data))]
    elif op == 2:
        data += bytes(rng.integers(0, 256, rng.integers(1, 13), dtype=np.uint8))
    else:
        at = rng.integers(len(data) - float_size + 1)
        with np.errstate(over="ignore"):  # 1e200 as float32 is inf
            value = np.asarray(SPECIAL_FLOATS[rng.integers(len(SPECIAL_FLOATS))],
                               dtype=f"<f{float_size}")
        data[at:at + float_size] = value.tobytes()
    return bytes(data)


def mutate_json(rng, text: str) -> bytes:
    doc = json.loads(text)
    op = rng.integers(4)
    if op == 0:
        key = list(doc)[rng.integers(len(doc))]
        doc[key] = SPECIAL_JSON[rng.integers(len(SPECIAL_JSON))]
    elif op == 1:
        key = "indices" if "indices" in doc else "predicted"
        if doc[key]:
            doc[key][rng.integers(len(doc[key]))] = SPECIAL_JSON[rng.integers(len(SPECIAL_JSON))]
    elif op == 2:
        del doc[list(doc)[rng.integers(len(doc))]]
    else:
        return mutate_bytes(rng, text.encode(), 4)
    return json.dumps(doc).encode()


def run_cli(capsys, argv, what, codes=(0, 3, 4)):
    try:
        code = main(GLOBAL + argv)
    except Exception as exc:  # the CLI contract: never an uncaught exception
        pytest.fail(f"{what}: main raised {exc!r}")
    err = capsys.readouterr().err
    assert code in codes, f"{what}: exit {code}\n{err}"
    assert "Traceback" not in err, f"{what}\n{err}"
    return code, err


def test_seeded_cli_fuzz(tmp_path, capsys, inputs):
    rng = np.random.default_rng(20171)
    original = {role: open(inputs[role], "rb").read() for role in inputs if role != "out"}
    codes = {0: 0, 3: 0, 4: 0}
    for case in range(600):
        command = list(COMMANDS)[case % len(COMMANDS)]
        role = ROLES[command][rng.integers(len(ROLES[command]))]
        path = inputs[role]
        if path.endswith(".json"):
            damaged = mutate_json(rng, original[role].decode())
        else:
            damaged = mutate_bytes(rng, original[role], 8 if role == "embd" else 4)
        mutated = tmp_path / f"case{case}{path[path.rindex('.'):]}"
        mutated.write_bytes(damaged)
        argv = [part.format(**{**inputs, role: str(mutated)}) for part in COMMANDS[command]]
        code, _ = run_cli(capsys, argv, f"case {case}, {command}, damaged {role}")
        codes[code] += 1
    # The damage reaches past the readers: some runs still succeed, most fail.
    assert codes[0] > 0 and codes[3] > 0


# synth's spec values. A large streamline or point count is a whole number
# that generate_subject's point cap rejects.
SYNTH_JSON = [-1, 0, -1e30, 1.5, float("nan"), True, None, "x", [], {}, [[0]], [3, 1e30],
              1e30, 2 ** 32 - 1, [3, 2 ** 32 - 1]]


def mutate_spec(rng, doc: dict) -> bytes:
    """One field of the spec, of a bundle or of a centerline replaced (half
    the cases) or deleted, or the text damaged."""
    doc = json.loads(json.dumps(doc))
    owners = [doc, *doc["bundles"].values(), *(b["centerline"] for b in doc["bundles"].values())]
    fields = [(owner, key) for owner in owners for key in owner]
    owner, key = fields[rng.integers(len(fields))]
    op = rng.integers(4)
    if op < 2:
        owner[key] = SYNTH_JSON[rng.integers(len(SYNTH_JSON))]
    elif op == 2:
        del owner[key]
    else:
        return mutate_bytes(rng, json.dumps(doc).encode(), 4)
    return json.dumps(doc).encode()


def test_seeded_synth_fuzz(tmp_path, capsys):
    rng = np.random.default_rng(20172)
    doc = {**SPEC, "displacement_sigma": 1.0}
    codes = {0: 0, 3: 0, 4: 0}
    for case in range(600):
        spec = tmp_path / f"case{case}.json"
        spec.write_bytes(mutate_spec(rng, doc))
        code, _ = run_cli(capsys, ["synth", str(spec), "--out", str(tmp_path / "s")],
                          f"case {case}, synth")
        codes[code] += 1
    assert codes[0] > 0 and codes[3] > 0


# Global flag values: zero, negatives, fractions, special float text, counts
# of 20+ digits (a prototype count that large reaches the SFF subset rule)
# and values that work.
FLAG_VALUES = ["0", "-1", "-7.5", "0.5", "1.5", "1e3", "inf", "-inf", "nan", "1e-320",
               "1e400", "", "x", "0x10", "1", "2", "3", "5", "17", "42",
               str(10 ** 20 + 7), str(-10 ** 25), str(10 ** 40), "9" * 30]
GLOBAL_FLAGS = ["--seed", "--sigma", "--prototypes", "--voxel-size", "--sff-subset"]
FLAG_COMMANDS = ["segment", "segment --embedding", "embed", "agreement"]


def test_seeded_global_flag_fuzz(tmp_path, capsys, inputs):
    rng = np.random.default_rng(20173)
    codes = {0: 0, 2: 0, 3: 0, 4: 0}
    for case in range(240):
        command = FLAG_COMMANDS[case % len(FLAG_COMMANDS)]
        flag = GLOBAL_FLAGS[rng.integers(len(GLOBAL_FLAGS))]
        value = FLAG_VALUES[rng.integers(len(FLAG_VALUES))]
        argv = [flag, value] + [part.format(**inputs) for part in COMMANDS[command]]
        code, _ = run_cli(capsys, argv, f"case {case}, {command} {flag} {value!r}",
                          codes=(0, 2, 3, 4))
        codes[code] += 1
    # Every outcome occurs: success, a refused flag, and a count too large
    # for the inputs (exit 4). No flag value is a data error.
    assert codes[0] > 0 and codes[2] > 0 and codes[4] > 0 and codes[3] == 0


def test_tiny_header_voxel_size_exits_3(tmp_path, capsys, inputs):
    data = bytearray(open(inputs["tg"], "rb").read())
    data[len(TRGX_MAGIC):len(TRGX_MAGIC) + 4] = struct.pack("<f", 1e-30)
    path = tmp_path / "tiny.trgx"
    path.write_bytes(data)
    argv = ["dsc", inputs["tg_a"], inputs["tg_b"], "--tractogram", str(path)]
    code, err = run_cli(capsys, argv, "voxel size 1e-30")
    assert code == 3 and "samples" in err


def test_huge_embedding_entry_exits_3(tmp_path, capsys, inputs):
    data = bytearray(open(inputs["embd"], "rb").read())
    # The first entry of the third row from the end: not one of the rows
    # that are recomputed against the target for this seed and size.
    at = len(data) - 8 * 3 * 3
    data[at:at + 8] = struct.pack("<d", 1e200)
    path = tmp_path / "huge.embd"
    path.write_bytes(data)
    argv = [part.format(**{**inputs, "embd": str(path)})
            for part in COMMANDS["segment --embedding"]]
    code, err = run_cli(capsys, argv, "embedding entry 1e200")
    assert code == 3 and "embedding entries" in err


@pytest.mark.parametrize("displacement", ["1e17", "1e300"])
def test_bench_dsc_huge_displacement_exits_0_or_3(capsys, displacement):
    # Offsets this large merge consecutive points of a streamline (1e17) or
    # all of them (1e300) when added to the base subject's coordinates.
    argv = ["bench", "dsc", "--subjects", "2", "--noise", "0",
            "--displacement", displacement, "--kinds", "var-42.0"]
    run_cli(capsys, argv, f"bench dsc --displacement {displacement}", codes=(0, 3))
