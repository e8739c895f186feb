#!/usr/bin/env python3
"""Renders the E18 results block of EXPERIMENTS.md from BENCH_SERVE.json.

    python3 scripts/e18_table.py [BENCH_SERVE.json] [--write EXPERIMENTS.md]

Prints the block. With --write, replaces the text between the
"<!-- E18 results: begin -->" and "<!-- E18 results: end -->" markers of
the given file instead, so the table never holds hand-copied numbers.
"""
import json
import sys

BEGIN = "<!-- E18 results: begin -->"
END = "<!-- E18 results: end -->"


def k(rate):
    return f"{rate / 1000:.0f}k"


def render(bench):
    file_cells = [c for c in bench["cells"] if c["mode"] == "file"]
    net_cells = [c for c in bench["cells"] if c["mode"] != "file"]
    shards = sorted({c["shards"] for c in file_cells})
    policies = list(dict.fromkeys(c["fsync"] for c in file_cells))
    offers = sorted({c["offers"] for c in file_cells})
    nproc = bench.get("nproc")
    cores = f"Measured on {nproc} cores" if nproc else "Core count not recorded"
    lines = [
        f"{cores}; every file-fed cell ran "
        f"{', '.join(map(str, offers))} offers, best of the cell's reps.",
        "",
        "| fsync | " + " | ".join(map(str, shards)) + " | p50/p95 µs @4 shards |",
        "|---" * (len(shards) + 2) + "|",
    ]
    for policy in policies:
        row = {c["shards"]: c for c in file_cells if c["fsync"] == policy}
        lat = row[4]["lat_us"] if 4 in row else None
        lat_s = f"{k(lat['p50'])} / {k(lat['p95'])}" if lat else "-"
        lines.append(f"| {policy} | "
                     + " | ".join(k(row[s]["offers_per_sec"]) if s in row
                                  else "-" for s in shards)
                     + f" | {lat_s} |")
    lines += [
        "",
        "Networked cells (loopback `NetListener`, fsync="
        f"{net_cells[0]['fsync'] if net_cells else '-'}, client-observed "
        "offer-to-ack latency):",
        "",
        "| mode | shards | conns | offers | offers/s | p50 / p99 µs |",
        "|---|---|---|---|---|---|",
    ]
    for c in net_cells:
        lat = c["client_lat_us"]
        lines.append(f"| {c['mode']} | {c['shards']} | {c['conns']} | "
                     f"{c['offers']} | {k(c['offers_per_sec'])} | "
                     f"{lat['p50']} / {lat['p99']} |")
    check = bench.get("net_check")
    if check:
        verdict = "within" if check["within_2x"] else "OUTSIDE"
        lines += ["", f"File-fed over networked throughput at {check['shards']} "
                  f"shards, both fsync=every: {check['file_over_net']:.2f}x "
                  f"({verdict} the 2x the bench asserts in full runs)."]
    return "\n".join(lines) + "\n"


def main(argv):
    args = [a for a in argv if a != "--write"]
    write = None
    if "--write" in argv:
        write = argv[argv.index("--write") + 1]
        args.remove(write)
    path = args[0] if args else "BENCH_SERVE.json"
    with open(path) as f:
        block = render(json.load(f))
    if write is None:
        sys.stdout.write(block)
        return 0
    with open(write) as f:
        text = f.read()
    head, sep, rest = text.partition(BEGIN)
    _, sep2, tail = rest.partition(END)
    if not sep or not sep2:
        sys.exit(f"{write}: E18 result markers not found")
    with open(write, "w") as f:
        f.write(head + BEGIN + "\n" + block + END + tail)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
