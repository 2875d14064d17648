"""Shape and consistency checks for `--timeline-out` artifacts.

Imported by ci/run_tier1.sh stages 6 and 9 (run from the repo root);
the shape contract is ci/schemas/timeline_log.schema.json.
"""
import json
import sys

TYPES = {"int": int, "str": str, "list": list, "dict": dict,
         "float": (int, float), "bool": bool}


def check(obj, spec, where):
    for key, type_name in spec.items():
        if key not in obj:
            sys.exit(f"{where}: missing key {key!r}")
        value = obj[key]
        if not isinstance(value, TYPES[type_name]) or (
                type_name in ("int", "float")
                and isinstance(value, bool)):
            sys.exit(f"{where}.{key} is not {type_name}")


def is_uint_pair(pair):
    return (isinstance(pair, list) and len(pair) == 2 and
            all(type(v) is int and v >= 0 for v in pair))


def validate_timeline(path, need_cov_map=False):
    """Header + delta samples + final; returns (final, hits) where
    hits is the per-block map rebuilt from the final record's cov_map
    (None when absent). need_cov_map requires a cov window in every
    record and the map in the final one."""
    with open("ci/schemas/timeline_log.schema.json") as f:
        schema = json.load(f)
    with open(path) as f:
        lines = [json.loads(line) for line in f]
    if len(lines) < 3:
        sys.exit(f"{path}: expected header + samples + final")
    header, samples, final = lines[0], lines[1:-1], lines[-1]
    check(header, schema["header"], f"{path}: header")
    if header["type"] != "timeline_header":
        sys.exit(f"{path}: first line is not timeline_header")
    if header["version"] != schema["version"]:
        sys.exit(f"{path}: version {header['version']} unsupported")
    if header["timing"]:
        sys.exit(f"{path}: baseline campaign must not record wall "
                 "clock (it would not be reproducible)")

    def check_sections(record, where):
        if "cov" in record:
            check(record["cov"], schema["cov"], f"{where}.cov")
        elif need_cov_map:
            sys.exit(f"{where}: no cov window")
        if "policy" in record:
            check(record["policy"], schema["policy"], f"{where}.policy")

    prev = -1
    for i, sample in enumerate(samples):
        check(sample, schema["sample"], f"{path}: sample[{i}]")
        if sample["type"] != "timeline_sample":
            sys.exit(f"{path}: line {i + 2} is not timeline_sample")
        if sample["execs"] <= prev:
            sys.exit(f"{path}: sample grid is not monotone")
        prev = sample["execs"]
        check_sections(sample, f"{path}: sample[{i}]")
    check(final, schema["final"], f"{path}: final")
    check_sections(final, f"{path}: final")
    if final["type"] != "timeline_final":
        sys.exit(f"{path}: last line is not timeline_final")
    # The final record is itself the last recorded sample, so its
    # cumulative count is one past the delta-encoded grid lines.
    if final["samples"] != len(samples) + 1:
        sys.exit(f"{path}: final sample count disagrees with the "
                 "recorded grid")
    if "gauges" in final:
        sys.exit(f"{path}: final record must not carry gauges")
    if "cov_map" not in final:
        if need_cov_map:
            sys.exit(f"{path}: final record has no cov_map")
        return final, None

    # The cov_map must be the map the final cov summary describes.
    cov_map = final["cov_map"]
    check(cov_map, schema["cov_map"], f"{path}: final.cov_map")
    num_blocks = cov_map["num_blocks"]
    for pair in cov_map["edges"]:
        if not is_uint_pair(pair) or max(pair) >= num_blocks:
            sys.exit(f"{path}: cov_map: malformed edge {pair!r}")
    hits = [0] * num_blocks
    prev = -1
    for pair in cov_map["block_hits"]:
        if not is_uint_pair(pair) or not prev < pair[0] < num_blocks \
                or pair[1] == 0:
            sys.exit(f"{path}: cov_map: block_hits pair {pair!r} is "
                     "malformed, out of order or zero")
        prev, hits[pair[0]] = pair
    reached = sum(1 for h in hits if h)
    if (reached, sum(hits)) != (final["cov"]["blocks_hit"],
                                final["cov"]["total_block_hits"]):
        sys.exit(f"{path}: cov_map gives {reached} reached blocks / "
                 f"{sum(hits)} hits, final cov says "
                 f"{final['cov']['blocks_hit']} / "
                 f"{final['cov']['total_block_hits']}")
    return final, hits
