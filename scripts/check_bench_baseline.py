#!/usr/bin/env python3
"""Compare a fresh bench run against the committed baseline.

Usage: check_bench_baseline.py CURRENT.json BASELINE.json [--strict]

Both files are cio-bench-v1 JSON as written by `bench/main.exe --json`.
Compares the `micro_ns_per_run` entries whose names start with
"cio/cionet" (the L2 datapath), "cio/aead" (the L5 record cipher),
"cio/chacha20" (its keystream alone) or "cio/tcp" (the in-TEE TCP/IP
byte path):
warns when a micro got more than 10% slower than the baseline (exit 1
with --strict), and checks the batching win — a burst
micro of depth d must cost less per frame than d times its single-slot
counterpart wherever both are present.

CI timing noise makes a hard gate on absolute numbers fragile; the
default mode therefore only warns on regressions but always fails on a
malformed file or an inverted batching result.
"""

import json
import os
import re
import sys

SLOWDOWN_TOLERANCE = 1.10
PREFIX = "cio/cionet"
TRACKED = (PREFIX, "cio/aead", "cio/chacha20", "cio/tcp")


def load(path, optional=False):
    """Parse a cio-bench-v1 file into {micro_name: ns_per_run}.

    A missing *optional* file (the committed baseline on a branch that
    has not generated one yet) returns None so the caller can skip the
    comparison with a warning instead of a traceback. Anything else that
    is wrong — unreadable file, malformed JSON, wrong schema — is still
    a hard error: a corrupt baseline should fail loudly, not silently
    pass the gate.
    """
    if optional and not os.path.exists(path):
        print(f"warning: {path}: baseline file not found; skipping comparison")
        return None
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    if doc.get("schema") != "cio-bench-v1":
        sys.exit(f"error: {path}: not a cio-bench-v1 file")
    micro = doc.get("micro_ns_per_run", {})
    if not isinstance(micro, dict):
        sys.exit(f"error: {path}: micro_ns_per_run is not an object")
    out = {}
    for k, v in micro.items():
        if not k.startswith(TRACKED):
            continue
        try:
            out[k] = float(v)
        except (TypeError, ValueError):
            print(f"warning: {path}: {k}: non-numeric value {v!r}; skipping")
    return out


def check_regressions(current, baseline):
    warnings = 0
    for name in sorted(baseline):
        if name not in current:
            print(f"warning: {name}: in baseline but missing from this run"
                  " (renamed or deleted micro?)")
            warnings += 1
            continue
        base, cur = baseline[name], current[name]
        if base <= 0:
            continue
        ratio = cur / base
        if ratio > SLOWDOWN_TOLERANCE:
            print(
                f"warning: {name}: {cur:.0f} ns/run vs baseline {base:.0f}"
                f" ({(ratio - 1) * 100:.1f}% slower)"
            )
            warnings += 1
        else:
            print(f"ok: {name}: {cur:.0f} ns/run (baseline {base:.0f})")
    for name in sorted(set(current) - set(baseline)):
        # A new micro is not a regression: it gets a baseline entry the
        # next time BENCH_baseline.json is regenerated.
        print(f"note: {name}: {current[name]:.0f} ns/run, new micro"
              " (not in baseline; comparison skipped)")
    return warnings


GATED_DEPTH = 16


def check_batching_wins(current):
    """Burst micros must beat single-slot per frame: the whole point of
    the batched datapath. cio/cionet-burst-d16-inline amortizes over 16
    frames of the same roundtrip that cio/cionet-inline does once. Only
    depth 16 — the sweet spot where the amortization curve has flattened
    (E21) — is a hard gate; deeper batches trade cache locality for
    little extra amortization and only warn."""
    errors = 0
    burst_re = re.compile(rf"^{re.escape(PREFIX)}-burst-d(\d+)-(\w+)$")
    for name, ns in sorted(current.items()):
        m = burst_re.match(name)
        if not m:
            continue
        depth, variant = int(m.group(1)), m.group(2)
        single = current.get(f"{PREFIX}-{variant}")
        if single is None or single <= 0:
            continue
        per_frame = ns / depth
        if per_frame >= single:
            gated = depth == GATED_DEPTH
            print(
                f"{'error' if gated else 'warning'}: {name}:"
                f" {per_frame:.0f} ns/frame at depth {depth}"
                f" is not below single-slot {single:.0f}"
            )
            errors += 1 if gated else 0
        else:
            print(
                f"ok: {name}: {per_frame:.0f} ns/frame < single-slot {single:.0f}"
            )
    return errors


def main(argv):
    strict = "--strict" in argv
    args = [a for a in argv if a != "--strict"]
    if len(args) != 2:
        sys.exit(__doc__.strip())
    current = load(args[0])
    baseline = load(args[1], optional=True)
    if not current:
        sys.exit(f"error: {args[0]}: no {' or '.join(TRACKED)} micros (run bench with micros enabled)")
    if baseline is None:
        # No baseline to compare against: still run the self-contained
        # batching check, which needs only the current run.
        errors = check_batching_wins(current)
        if errors:
            sys.exit(1)
        print("bench baseline check passed (no baseline file; comparison skipped)")
        return
    warnings = check_regressions(current, baseline)
    errors = check_batching_wins(current)
    if errors:
        sys.exit(1)
    if warnings:
        print(f"{warnings} regression warning(s) vs baseline")
        if strict:
            sys.exit(1)
    print("bench baseline check passed")


if __name__ == "__main__":
    main(sys.argv[1:])
