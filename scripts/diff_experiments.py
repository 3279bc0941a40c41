#!/usr/bin/env python3
"""Check that `cio_sim all` and `cio_sim campaign` print the same as at BASE_REF.

Usage: python3 scripts/diff_experiments.py BASE_REF

Exports BASE_REF (any commit-ish) into a temporary directory with
`git archive`, builds `bin/cio_sim.exe` there and in this tree, runs
`cio_sim all` and `cio_sim campaign` in both, and compares the outputs
line by line. The campaign text must match byte for byte.

Every line must be byte-identical, with one exception: the TCB
line counts, which refactors are expected to move. Those are the E6
profile lines (`core=N LoC` and `quarantined=N LoC`) and the last two
columns (coreTCB, quarantined) of the Figure 5 table. On those lines
the text around the numbers must still match, and each number may only
stay equal or go down.

Exits 0 when the outputs agree under that rule, 1 on any other
difference (printed), 2 on usage or build errors. Honours TMPDIR for
the scratch checkout.
"""

import os
import re
import subprocess
import sys
import tempfile

SECTION = re.compile(r"^=== (\S+):")
E6_LINE = re.compile(r"^(\s+\S+\s+core=)\s*(\d+)( LoC \([^)]*\))(?: \| quarantined=(\d+)( LoC .*))?$")
FIG5_ROW = re.compile(r"^(\s+\S+(?:\s+[\d.]+){3})\s+(\d+)\s+(\d+)$")


def fail(msg):
    print("diff_experiments: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{' '.join(cmd)} failed in {cwd} (exit {proc.returncode})")
    return proc.stdout


def outputs(root):
    """Build cio_sim in [root]; return the lines of `cio_sim all` and of `cio_sim campaign`."""
    run(["dune", "build", "--root", ".", "./bin/cio_sim.exe"], root)
    exe = os.path.join(root, "_build", "default", "bin", "cio_sim.exe")
    return (run([exe, "all", "--repo-root", "."], root).splitlines(),
            run([exe, "campaign"], root).splitlines())


def tcb_split(section, line):
    """(text with the LoC numbers masked, [numbers]) for a TCB line, else None."""
    if section == "e6":
        m = E6_LINE.match(line)
        if m:
            nums = [int(m.group(2))] + ([int(m.group(4))] if m.group(4) else [])
            return (m.group(1) + "#" + m.group(3) + (" | quarantined=#" + m.group(5) if m.group(4) else ""), nums)
    if section == "fig5":
        m = FIG5_ROW.match(line)
        if m:
            return (m.group(1) + " # #", [int(m.group(2)), int(m.group(3))])
    return None


def compare_exact(name, base, new):
    """Differences between two outputs that must be byte-identical."""
    problems = []
    if len(base) != len(new):
        problems.append(f"{name}: line count differs: {len(base)} at base, {len(new)} here")
    for i, (b, n) in enumerate(zip(base, new), start=1):
        if b != n:
            problems.append(f"{name} line {i}:\n  base: {b}\n  here: {n}")
    return problems


def compare(base, new):
    """Return (problems, tcb_changes) between two lists of output lines."""
    problems, changes = [], []
    if len(base) != len(new):
        problems.append(f"line count differs: {len(base)} at base, {len(new)} here")
    section = None
    for i, (b, n) in enumerate(zip(base, new), start=1):
        m = SECTION.match(b)
        if m:
            section = m.group(1)
        if b == n:
            continue
        sb, sn = tcb_split(section, b), tcb_split(section, n)
        if sb and sn and sb[0] == sn[0] and len(sb[1]) == len(sn[1]):
            for x, y in zip(sb[1], sn[1]):
                if y > x:
                    problems.append(f"line {i} ({section}): TCB LoC grew {x} -> {y}: {n.strip()}")
                elif y < x:
                    changes.append(f"line {i} ({section}): {x} -> {y}  {sb[0].strip()}")
            continue
        problems.append(f"line {i} ({section}):\n  base: {b}\n  here: {n}")
    return problems, changes


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    ref = argv[1]
    root = run(["git", "rev-parse", "--show-toplevel"], os.getcwd()).strip()
    sha = run(["git", "rev-parse", "--verify", ref + "^{commit}"], root).strip()
    with tempfile.TemporaryDirectory(prefix="cio-base-") as tmp:
        archive = subprocess.Popen(["git", "archive", sha], cwd=root, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            fail(f"git archive {sha} failed")
        base, base_campaign = outputs(tmp)
    new, new_campaign = outputs(root)
    problems, changes = compare(base, new)
    problems += compare_exact("campaign", base_campaign, new_campaign)
    print(f"cio_sim all: {len(new)} lines here vs {len(base)} at {ref} ({sha[:12]})")
    print(f"cio_sim campaign: {len(new_campaign)} lines here vs {len(base_campaign)} at {ref}")
    for c in changes:
        print("  TCB LoC down: " + c)
    if problems:
        print(f"FAIL: {len(problems)} difference(s) outside the allowed TCB decreases")
        for p in problems:
            print("  " + p)
        return 1
    print("ok: identical apart from " + (f"{len(changes)} lower TCB LoC figure(s)" if changes else "nothing"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
