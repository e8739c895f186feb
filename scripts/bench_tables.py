#!/usr/bin/env python3
"""Renders the results blocks of EXPERIMENTS.md from the committed BENCH_*.json.

    python3 scripts/bench_tables.py [--write EXPERIMENTS.md]

E15 comes from BENCH_HOTPATH.json, E17 from BENCH_OPT.json and E18 from
BENCH_SERVE.json, all read from the repository root. Prints every block.
With --write, replaces the text between each block's
"<!-- E<n> results: begin -->" and "<!-- E<n> results: end -->" markers of
the given file instead, so no table holds hand-copied numbers.
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cores(bench):
    nproc = bench.get("nproc")
    return f"Measured on {nproc} cores" if nproc else "Core count not recorded"


def mega(v):
    return f"{v / 1e6:.2f}M"


def render_e15(bench):
    rows = {}
    for r in bench["throughput"]:
        rows.setdefault((r["algorithm"], r["n"]), {})[r["storage"]] = r
    lines = [
        f"{cores(bench)}.",
        "",
        "| algorithm | n | soa items/s | reference items/s | soa speedup | cost equal |",
        "|---|---|---|---|---|---|",
    ]
    for (algo, n), by in rows.items():
        soa, ref = by["soa"], by["reference"]
        lines.append(f"| {algo} | {n} | {mega(soa['items_per_sec'])} | "
                     f"{mega(ref['items_per_sec'])} | "
                     f"{soa['items_per_sec'] / ref['items_per_sec']:.2f}x | "
                     f"{'yes' if soa['cost'] == ref['cost'] else 'NO'} |")
    rss = bench.get("rss")
    if rss:
        mib = 1024.0 * 1024.0
        lines += [
            "",
            f"Streamed `.cdbpi` replay vs in-RAM instance (FirstFit/soa, "
            f"n = {rss['n']}, each in its own forked child):",
            "",
            "| input | peak RSS | seconds | cost equal |",
            "|---|---|---|---|",
            f"| in-RAM | {rss['in_ram_peak_rss_bytes'] / mib:.1f} MiB | "
            f"{rss['in_ram_seconds']:.2f} | — |",
            f"| streamed | {rss['streamed_peak_rss_bytes'] / mib:.1f} MiB | "
            f"{rss['streamed_seconds']:.2f} | "
            f"{'yes' if rss['costs_equal'] else 'NO'} |",
            "",
            f"Streamed peak RSS is {100 * rss['streamed_rss_fraction']:.1f}% "
            "of the in-RAM run.",
        ]
    sharded = bench.get("sharded")
    if sharded:
        lines += [
            "",
            f"Sharded driver ({sharded[0]['tasks']} independent runs, "
            f"{sharded[0]['total_items']} items in all):",
            "",
            "| threads | wall s |",
            "|---|---|",
        ]
        lines += [f"| {p['threads']} | {p['wall_seconds']:.2f} |"
                  for p in sharded]
    return "\n".join(lines) + "\n"


def render_e17(bench):
    lines = [
        f"{cores(bench)}; 8 solver threads; the bench fails unless the "
        "reference and pipeline costs are bit-identical on every row.",
        "",
        "| n | ref ms | pipeline ms | speedup | distinct | intervals | hit rate |",
        "|---|---|---|---|---|---|---|",
    ]
    for r in bench["records"]:
        lines.append(f"| {r['n']} | {r['wall_ms_reference']:.2f} | "
                     f"{r['wall_ms']:.2f} | {r['speedup']:.1f}x | "
                     f"{r['snapshots']} | {r['intervals']} | "
                     f"{r['cache_hit_rate']:.3f} |")
    lines += [
        "",
        "OPT_NR under the default node budget (every seed of each n):",
        "",
        "| n | certified | max ms | max nodes |",
        "|---|---|---|---|",
    ]
    by_n = {}
    for r in bench["opt_nr"]:
        by_n.setdefault(r["n"], []).append(r)
    for n, runs in by_n.items():
        lines.append(f"| {n} | {sum(r['certified'] for r in runs)}/{len(runs)} | "
                     f"{max(r['wall_ms'] for r in runs):.1f} | "
                     f"{max(r['nodes'] for r in runs)} |")
    lines += ["", f"certified_n_max = {bench['certified_n_max']}."]
    return "\n".join(lines) + "\n"


def k(rate):
    return f"{rate / 1000:.0f}k"


def render_e18(bench):
    file_cells = [c for c in bench["cells"] if c["mode"] == "file"]
    net_cells = [c for c in bench["cells"] if c["mode"] != "file"]
    shards = sorted({c["shards"] for c in file_cells})
    policies = list(dict.fromkeys(c["fsync"] for c in file_cells))
    offers = sorted({c["offers"] for c in file_cells})
    lines = [
        f"{cores(bench)}; every file-fed cell ran "
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


BLOCKS = (("E15", "BENCH_HOTPATH.json", render_e15),
          ("E17", "BENCH_OPT.json", render_e17),
          ("E18", "BENCH_SERVE.json", render_e18))


def main(argv):
    write = argv[argv.index("--write") + 1] if "--write" in argv else None
    blocks = []
    for name, path, render in BLOCKS:
        with open(os.path.join(ROOT, path)) as f:
            blocks.append((name, render(json.load(f))))
    if write is None:
        for name, block in blocks:
            sys.stdout.write(f"{name}:\n{block}\n")
        return 0
    with open(write) as f:
        text = f.read()
    for name, block in blocks:
        begin = f"<!-- {name} results: begin -->"
        end = f"<!-- {name} results: end -->"
        head, sep, rest = text.partition(begin)
        _, sep2, tail = rest.partition(end)
        if not sep or not sep2:
            sys.exit(f"{write}: {name} result markers not found")
        text = head + begin + "\n" + block + end + tail
    with open(write, "w") as f:
        f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
