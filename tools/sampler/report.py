#!/usr/bin/env python3
"""Prints where the samples of tools/sampler went, as inclusive shares.

    python3 tools/sampler/report.py [--under FUNC] [--fn SPEC]... [--top N]
                                    SAMPLES...

SAMPLES are files written by libbb_sampler.so (PREFIX.<pid>); their
addresses are symbolized with `addr2line -f -C -i`, so inlined calls count
as frames of their own. Only samples whose stack holds FUNC (default
bb::sim::Simulation::RunUntil) are counted. A function's inclusive share
is the fraction of those samples with it anywhere on the stack. A SPEC
names one function (`storage::MemKv::Put`, matched against the end of
the qualified name), every function of a scope (`GroupKv::`) or a call
path, caller first
(`BucketMerkleTree::ReplayPut>MemKv::Put`): the named functions appear
on the stack in that order, not necessarily adjacent. --top also prints
the N functions with the largest inclusive shares.
"""

import argparse
import collections
import subprocess
import sys


def parse(paths):
    """Returns [(mappings, [[address, ...], ...])] per file."""
    runs = []
    for path in paths:
        maps, stacks = [], []
        with open(path) as f:
            for line in f:
                if line.startswith("M "):
                    fields = line[2:].split()
                    if len(fields) < 6 or fields[5].startswith("["):
                        continue  # anonymous, [vdso], [heap], ...
                    lo, hi = (int(x, 16) for x in fields[0].split("-"))
                    maps.append((lo, hi, int(fields[2], 16), fields[5]))
                elif line.startswith("S"):
                    stacks.append([int(x, 16) for x in line[1:].split()])
        runs.append((maps, stacks))
    return runs


def is_exec_type(path, cache={}):
    """True for a fixed-address (non-PIE) executable, whose addresses
    addr2line takes as they are."""
    if path not in cache:
        try:
            with open(path, "rb") as f:
                header = f.read(18)
            cache[path] = header[:4] == b"\x7fELF" and header[16] == 2
        except OSError:
            cache[path] = False
    return cache[path]


def locate(maps, address):
    """(object path, address addr2line expects) or None."""
    for lo, hi, offset, path in maps:
        if lo <= address < hi:
            if is_exec_type(path):
                return path, address
            return path, address - lo + offset
    return None


def symbolize(wanted):
    """{(object, address): [function, ...]} with inlined callees first."""
    names = {}
    for obj, addresses in wanted.items():
        addresses = sorted(addresses)
        proc = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", obj],
            input="\n".join(f"{a:#x}" for a in addresses),
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"report.py: {obj} left unsymbolized: {proc.stderr}",
                  file=sys.stderr)
            continue
        current = None
        lines = proc.stdout.splitlines()
        # Per address: its "0x..." line, then (function, file:line) pairs.
        i = 0
        while i < len(lines):
            if lines[i].startswith("0x"):
                current = (obj, int(lines[i], 16))
                names[current] = []
                i += 1
                continue
            names[current].append(lines[i])
            i += 2
    return names


def base_name(function):
    """The qualified name without its parameter list, the last
    top-level parenthesized group."""
    depth, start, cut = 0, 0, len(function)
    for i, c in enumerate(function):
        if c in "<(":
            if depth == 0:
                start = i
            depth += 1
        elif c in ">)" and depth > 0:
            depth -= 1
            if depth == 0 and c == ")":
                cut = start
    return function[:cut]


def without_templates(function):
    """The name with every <...> argument list removed."""
    out, depth = [], 0
    for c in function:
        if c == "<":
            depth += 1
        elif c == ">" and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(c)
    return "".join(out)


def matches(function, want):
    if want.endswith("::"):  # any function of that class or namespace
        bare = without_templates(function)
        return bare.startswith(want) or "::" + want in bare
    return function == want or function.endswith("::" + want)


def on_path(stack, path):
    """True when the functions of `path` (caller first) appear on
    `stack` (innermost first) in that order."""
    k = len(path) - 1
    for function in stack:
        if matches(function, path[k]):
            k -= 1
            if k < 0:
                return True
    return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("samples", nargs="+")
    parser.add_argument("--under", default="bb::sim::Simulation::RunUntil")
    parser.add_argument("--fn", action="append", default=[])
    parser.add_argument("--top", type=int, default=0)
    args = parser.parse_args()

    runs = parse(args.samples)
    wanted = collections.defaultdict(set)
    for maps, stacks in runs:
        for stack in stacks:
            for depth, address in enumerate(stack):
                # Frame 0 is the interrupted instruction; the others are
                # return addresses, which point after their call.
                where = locate(maps, address - 1 if depth else address)
                if where is not None:
                    wanted[where[0]].add(where[1])
    names = symbolize(wanted)

    total = 0
    stacks = []
    for maps, raw in runs:
        for stack in raw:
            total += 1
            functions = []
            for depth, address in enumerate(stack):
                where = locate(maps, address - 1 if depth else address)
                if where is not None:
                    functions += [base_name(f) for f in names.get(where, [])]
            if any(matches(f, args.under) for f in functions):
                stacks.append(functions)

    print(f"{total} samples in {len(runs)} file(s), "
          f"{len(stacks)} under {args.under}")
    if not stacks:
        return 1
    for spec in args.fn:
        path = spec.split(">")
        hits = sum(1 for s in stacks if on_path(s, path))
        print(f"{100.0 * hits / len(stacks):6.1f}%  {hits:6d}  {spec}")
    if args.top:
        inclusive = collections.Counter()
        for s in stacks:
            inclusive.update(set(s))
        print(f"top {args.top} by inclusive share:")
        for function, hits in inclusive.most_common(args.top):
            print(f"{100.0 * hits / len(stacks):6.1f}%  {hits:6d}  "
                  f"{function[:120]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
