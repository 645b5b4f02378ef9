#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: run every experiment and record paper-vs-measured.

Usage::

    python tools/generate_experiments_md.py [--n 256] [--trials 2] [--full] \
        [--jobs 4] [--cache-dir .repro-cache] \
        [--prune-cache] [--prune-cache-bytes N] [--prune-cache-days D]

The commentary blocks below interpret each experiment's measured shape against
the paper's claim; the tables themselves are regenerated from the current code
on every invocation so the document never drifts from the implementation.

``--jobs`` fans the trials of each experiment across worker processes and
``--cache-dir`` re-uses a content-addressed trial store, so regeneration after
a docs-only change costs seconds instead of minutes; both leave the tables
bit-identical to a serial cold run.  The generation-profile footer records the
per-experiment wall-clock and cache-hit counts of the run that produced the
document, keeping the perf trajectory visible in-repo.

``--prune-cache`` evicts old/excess trial-store entries after generation
(LRU by mtime — cache hits refresh an entry's mtime), so a long-lived store
stops growing without bound; ``--prune-cache-bytes`` / ``--prune-cache-days``
override the default budget (512 MiB / 30 days).
"""

from __future__ import annotations

import argparse
import sys
import time
from datetime import date


from repro.experiments import ExperimentSettings, render_result, render_table
from repro.experiments.faults import quarantine_note
from repro.experiments.registry import experiment_ids, run_experiment
from repro.experiments.runner import track_stats
from repro.observability import CliProgressRenderer, TraceCollector, observe

COMMENTARY = {
    "E1": (
        "Paper: Theorem 1 / Lemma 11 — Alice and each node pay Õ(T^(1/3) + 1) for k = 2.  "
        "Measured: costs rise strongly sublinearly in Carol's spend; the fitted node exponent sits "
        "above the asymptotic 1/3 (the 1/ε′ constants keep early rounds saturated at this n, and the "
        "discrete round structure makes the last sweep point jumpy) but far below the baselines' ≈ 1, "
        "and Alice's exponent is comparable — the load-balanced, resource-competitive shape the "
        "theorem predicts.  The gap to 1/3 closes as n (and hence the reachable T range) grows."
    ),
    "E2": (
        "Paper: at least (1-ε)n nodes are informed w.h.p.; an n-uniform Carol can strand a bounded "
        "fraction only by paying for it (§2.3).  Measured: with no attack or blanket blocking every "
        "node is informed; the splitter strands exactly its victim set, but doing so consumes "
        "essentially Carol's entire aggregate budget regardless of how few victims she picks.  With "
        "the laptop-scale ε′ = 1/64 the strandable fraction is larger than the paper's asymptotic ε "
        "(the threshold constants scale with ε′), which is the documented constant-level deviation."
    ),
    "E3": (
        "Paper: termination within O(n^{1+1/k}) slots, asymptotically optimal (Corollary 1).  "
        "Measured: against a full-budget jammer the slots-to-termination fit n^1.50 almost exactly "
        "(Carol's aggregate budget is Θ(n^{3/2}) and she can silence the channel no longer than "
        "that); unjammed runs finish in the fixed warm-up rounds, orders of magnitude sooner."
    ),
    "E4": (
        "Paper: the protocol is load balanced — Alice and each node pay asymptotically equal costs "
        "(§1, Lemma 11).  Measured: under jamming Alice pays a small fraction of a node's cost "
        "(nodes shoulder the listening), i.e. well within any polylog envelope, while the KSY-style "
        "baseline shows the pathology the paper criticises: receivers pay ~50× the sender."
    ),
    "E5": (
        "Paper: ε-Broadcast improves on the naive Θ(T) strategy and on KSY's receiver cost Θ(T) / "
        "sender cost T^0.62 (§1, §1.2).  Measured: node-cost exponents order as predicted "
        "(naive ≈ ksy ≈ 0.94 > balanced-backoff ≈ 0.53 > ε-broadcast ≈ 0.7 at this n, trending to "
        "1/3 with scale), and at the largest spend ε-Broadcast's receivers pay roughly half of "
        "naive's while its sender pays an order of magnitude less.  The balanced-backoff strawman "
        "wins on absolute constants at small n — the paper's advantage is asymptotic in T."
    ),
    "E6": (
        "Paper: general k trades a Θ(k) latency/cost factor for a better exponent 1/(k+1) (§3, "
        "§3.2).  Measured: every k delivers and every node pays less than Carol at the top of its "
        "sweep; the Figure-2 constants (∝ 1/ε′) keep benchmark-scale sweeps largely saturated, so "
        "the per-k exponents are noisy (k = 3 fits ≈ 0.48, k = 2's small reachable range fits high); "
        "the Θ(k) overhead is directly visible in the extra propagation steps per round."
    ),
    "E7": (
        "Paper: a reactive jammer defeats the plain protocol at cost comparable to Alice's, and the "
        "§4.1 decoy traffic restores resource competitiveness for f < 1/24 (Lemma 19).  Measured: "
        "against the plain protocol the reactive jammer suppresses delivery outright whenever her "
        "budget outlasts Alice's sends, while spending less than Alice; with decoys she must jam "
        "cover traffic too, her spend-per-round multiplies (carol/alice ≈ 2–5×), and delivery "
        "returns to 100%."
    ),
    "E8": (
        "Paper: a polynomial overestimate ν of n costs only an O(lg ν) factor (§4.2).  Measured: "
        "delivery is preserved for ν = 2n and ν = n², and the latency inflation matches the "
        "predicted (2 + lg ν)/3 factor exactly (4.0× and 6.7× at n = 256/512)."
    ),
    "E9": (
        "Paper: the protocol's per-slot independent randomness gives an adaptive scheduler no edge "
        "(§2).  Measured: at equal spend, targeted phase blocking is the most slot-efficient way to "
        "buy delay, oblivious strategies waste energy, spoofing only delays termination, and no "
        "non-reactive strategy dents delivery; only the reactive jammer (handled by E7's decoys) "
        "changes the picture."
    ),
    "E10": (
        "Paper: delaying termination past round i costs Carol Ω(2^{(b/2+1)i}) while Alice's extra "
        "cost grows as Õ(T^{a/(b/2+1)}) = Õ(T^{1/3}) (§2.2, Lemmas 4–7).  Measured: Alice's "
        "termination round grows by one per geometric increase in the spoofer's spend, her cost fits "
        "T^0.34 (prediction 1/3), and delivery is never affected — spoofing cannot forge silence."
    ),
    "E11": (
        "Paper: the motivating scenario is a dense sensor network over an area (§1), though the "
        "game itself is analysed on one shared channel.  This experiment extends the model: "
        "hop-by-hop relaying of ε-Broadcast over Gilbert random geometric graphs, swept across the "
        "connectivity radius r_c = √(ln n / (π n)) (arXiv:1312.4861), plus a scale-free "
        "heavy-tailed-radius variant (arXiv:1411.6824).  Measured: below r_c the graph fragments "
        "and delivery collapses to the Alice-component fraction (delivery_vs_reachable stays ≈ 1 — "
        "the protocol informs essentially everyone a radio path reaches); above r_c delivery "
        "saturates at 1; the scale-free topology's hubs keep it connected without a radius sweep; "
        "and a disk-jamming Carol — the geometric analogue of §2.3's n-uniform splitter — only "
        "delays her disk while her budget lasts.  The former quiet-rule misfires (near-threshold "
        "delivery_vs_reachable dipped to ~0.9 while the sub-threshold mean_node_cost blew up "
        "~6x) are fixed by the default degree-aware termination rule — per-node budgets from the "
        "three-hop neighbourhood size, E13 is the ablation.  Pipelined relays plus cap-aware "
        "schedule truncation (PR 6) removed the rule's former wall-clock price: sub-threshold "
        "runs now end as soon as every component has delivered or provably stalled, so the slots "
        "column stays orders of magnitude below the round cap while per-node energy stays "
        "collapsed."
    ),
    "E12": (
        "Paper: Carol is adaptive — she \"possesses full information on how nodes have behaved in "
        "the past\" (§1.1) — but the model is aspatial; this experiment extends PR 1's static disk "
        "jammer into a mobility subsystem (repro.adversary.mobility) where the victim set is a "
        "function of time, re-resolved against the topology every phase.  Measured, at equal spend "
        "caps and equal total disk area under a constant quiet-retry horizon (runs end while jamming "
        "still binds): oblivious mobility (patrol/orbit/random walk) trades denial depth for "
        "coverage — 2-4x more nodes covered than the static disk, but victims mostly catch up "
        "after the disk passes (high victim_delivery) — while the adaptive reactive disk, "
        "re-centring each phase on the densest cluster of active uninformed listeners, strands "
        "more victims per unit budget than the blind static disk and drives the network's "
        "delivery per unit adversary budget strictly below it: the knowledge-of-state pursuit "
        "adversary that no bind-once strategy can express."
    ),
    "E13": (
        "Paper: §2.2's termination rule equates a quiet request phase with global satisfaction — "
        "exact on one shared channel, wrong on a radio graph, where it misfires in both "
        "directions (the former E11 open item).  This ablation runs identical near- and "
        "sub-threshold Gilbert graphs under every termination policy: the paper rule pays the "
        "sub-threshold blowup (~15000 mean node cost, Alice-less components sustaining each "
        "other's nacks to the round cap — the one policy still exempt from PR 6's cap-aware "
        "truncation, because that blowup is the measured protocol behaviour) and still dips near the threshold (mass give-up at the "
        "earliest reliable round, ahead of the relay frontier); a uniform retry cap fixes the "
        "cost but strands whoever its budget binds on (it used to destroy near-threshold "
        "delivery outright; with pipelined relay rounds far fewer request phases elapse before "
        "the frontier arrives, so near the threshold it now binds only rarely, and below it the "
        "stranded nodes are those of Alice's own small components); a "
        "plain-degree (hops=1) budget fails both ways because sub- and super-critical degree "
        "distributions overlap; the default degree-aware rule — budgets from the three-hop "
        "neighbourhood size, unlimited patience where the ball clears the Gilbert connectivity "
        "scale ~ln n (arXiv:1312.4861) or contains Alice — lands sub-threshold cost within ~2x "
        "of the uniform cap while returning delivery_vs_reachable to ~1.  The residual sub-1 "
        "sliver is the locally-undecidable class (giant-component pendant chains vs large "
        "sub-critical fragments present identical local views), and scale-free graphs "
        "(arXiv:1411.6824) are why budgets must be per-node: hub and fringe neighbourhoods "
        "coexist in one graph."
    ),
    "E14": (
        "Paper: Theorem 1 is a *worst-case* statement — cost stays O(T^{1/(k+1)} + poly-log) "
        "against **every** adversary spending T — but the E-numbered experiments only sample "
        "hand-picked attacks.  The tournament closes the quantifier gap empirically: a "
        "round-robin grid of every roster adversary x every protocol variant x a topology "
        "grid straddling the Gilbert connectivity threshold, at matched fractions of Carol's "
        "aggregate budget, each cell fitted for its cost exponent rho (or a flagged sentinel "
        "where no slope exists: flat-cost attacks the protocol simply absorbs, "
        "degenerate-spend-range cells where the run ends before her cap binds).  On the "
        "shared channel the budget blocker is the only attack that moves eps-Broadcast's "
        "cost at all (rho ~ 0.4 over this profile's narrow spend window — three fractions "
        "of one budget, not E1's decade sweep; the full LEADERBOARD.md grid is the "
        "calibrated read), while sybil payloads and request spoofing land flat: the "
        "k-lottery and back-to-back verification neutralise them at every budget, which is "
        "the resource-competitive claim in its contrapositive form.  On the spatial graphs "
        "the ranking inverts — geometry-aware disks (the reactive chaser above all) dominate "
        "channel-wide attacks, and the worst observed adversary per protocol is identified "
        "by fitted exponent rather than by choosing it in advance.  A deterministic "
        "coordinate search over each adversary's declared parameter bounds (seeded by the "
        "hand-picked configuration, so never worse) closes the remaining within-family gap; "
        "its results and the per-protocol rankings are LEADERBOARD.md."
    ),
}

PREAMBLE = """# EXPERIMENTS — paper claims versus measured results

The paper is a theory paper with no numeric tables; every \"experiment\" below
regenerates one of its quantitative claims on the simulated network substrate
described in DESIGN.md.  Absolute numbers are not comparable to the paper
(there is nothing to compare against — the paper proves asymptotic bounds);
the reproduced quantities are the *shapes*: exponents, orderings, thresholds,
and crossovers.  Every table below is regenerated by
`pytest benchmarks/ --benchmark-only` (one benchmark per experiment) or by
rerunning `python tools/generate_experiments_md.py`.

Known, deliberate deviations at laptop scale (all discussed in DESIGN.md):

* ε′ defaults to 1/64 instead of the asymptotically tiny values the proofs
  renormalise away; this inflates constant factors, saturates probabilities in
  early rounds, and widens the strandable fraction in E2.
* Measured cost exponents therefore sit above the asymptotic 1/(k+1) while
  remaining far below every baseline; the trend toward the predicted value is
  visible as n (and the reachable adversary spend) grows.
"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--trials", type=int, default=2)
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--output", default="EXPERIMENTS.md")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes per experiment sweep (default: REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed trial store to reuse (default: REPRO_CACHE_DIR or off)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render a live per-experiment progress line on stderr (off by "
        "default; rendering goes to stderr only, so the generated document "
        "is byte-identical either way)",
    )
    parser.add_argument(
        "--prune-cache",
        action="store_true",
        help="after generation, evict trial-store entries beyond the byte/age "
        "budget (LRU by mtime; the store only grows otherwise)",
    )
    parser.add_argument(
        "--prune-cache-bytes",
        type=int,
        default=512 * 1024 * 1024,
        help="byte budget for --prune-cache (default: 512 MiB)",
    )
    parser.add_argument(
        "--prune-cache-days",
        type=float,
        default=30.0,
        help="age horizon in days for --prune-cache (default: 30)",
    )
    args = parser.parse_args()

    settings = ExperimentSettings(
        n=args.n,
        trials=args.trials,
        quick=not args.full,
        seed=2012,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )

    results = []
    profile_rows = []
    fault_notes = []
    all_ids = experiment_ids()
    try:
        for eid in all_ids:
            # Per-experiment counters and fault notes come from sinks opened
            # around this experiment only; registry experiments may run
            # several nested sweeps, and every one of them reports here.
            renderer = CliProgressRenderer(label=eid) if args.progress else None
            trace = TraceCollector()
            start = time.perf_counter()
            with observe(renderer), observe(trace), track_stats() as stats:
                result = run_experiment(eid, settings)
            elapsed = time.perf_counter() - start
            if renderer is not None:
                renderer.finish()
            results.append(result)
            note = quarantine_note(trace.events)
            if note is not None:
                fault_notes.append((eid, note))
            trials_total = stats.executed + stats.cache_hits
            profile_rows.append(
                {
                    "experiment": eid,
                    "seconds": elapsed,
                    "trials_executed": stats.executed,
                    "cache_hits": stats.cache_hits,
                    "trials_per_sec": trials_total / elapsed if elapsed > 0 else 0.0,
                    "hit_rate": stats.cache_hits / trials_total if trials_total else 0.0,
                }
            )
            print(
                f"{eid}: {elapsed:.2f}s ({stats.executed} trials executed, "
                f"{stats.cache_hits} cache hits)",
                file=sys.stderr,
            )
    except KeyboardInterrupt:
        # run_sweep has already torn its pool down and flushed every finished
        # trial to the cache; report where generation stopped and exit with
        # the conventional SIGINT status instead of a traceback.
        done = [str(row["experiment"]) for row in profile_rows]
        print(
            f"generation interrupted: {len(done)}/{len(all_ids)} experiments "
            f"complete ({', '.join(done) if done else 'none'}); finished trials "
            "are in the trial cache — rerun to resume warm",
            file=sys.stderr,
        )
        sys.exit(130)

    lines = [PREAMBLE]
    lines.append(
        f"Profile used for the tables below: n = {settings.n}, trials = {settings.trials}, "
        f"quick = {settings.quick}, generated on {date.today().isoformat()}.\n"
    )
    for result in results:
        lines.append(f"## {result.experiment_id} — {result.title}\n")
        commentary = COMMENTARY.get(result.experiment_id)
        if commentary:
            lines.append(commentary + "\n")
        lines.append("```text")
        lines.append(render_result(result))
        lines.append("```\n")

    # Generation profile: the perf trajectory of the harness itself, kept
    # in-repo so a regression in experiment wall-clock shows up in the diff.
    cache_state = settings.resolved_cache_dir or "disabled"
    total_seconds = sum(row["seconds"] for row in profile_rows)
    lines.append("## Generation profile\n")
    lines.append(
        f"Runner: jobs = {settings.resolved_jobs}, trial cache = {cache_state}; "
        f"total wall-clock {total_seconds:.2f}s.  `trials_executed` counts trials "
        "actually computed by this run; `cache_hits` counts trials served from the "
        "content-addressed store (a fully warm regeneration executes zero).  "
        "`trials_per_sec` is the experiment's completed work units (computed + "
        "served) per second of its wall-clock; `hit_rate` is the served "
        "fraction.\n"
    )
    lines.append("```text")
    lines.append(
        render_table(
            [
                "experiment",
                "seconds",
                "trials_executed",
                "cache_hits",
                "trials_per_sec",
                "hit_rate",
            ],
            profile_rows,
        )
    )
    lines.append("```\n")

    # Quarantined trials (lenient fault policy) are surfaced explicitly rather
    # than silently thinning the aggregates; with no failures this section is
    # absent and the document stays byte-identical to a fault-free run.
    if fault_notes:
        lines.append("### Fault report\n")
        lines.append(
            "Trials quarantined by the fault policy during this generation; the "
            "affected sweep points aggregate their surviving trials only.\n"
        )
        for eid, note in fault_notes:
            lines.append(f"* {eid}: {note}")
        lines.append("")

    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
    print(f"wrote {args.output}", file=sys.stderr)

    if args.prune_cache:
        store = settings.resolved_cache_dir
        if store is None:
            print("--prune-cache: no trial store configured, nothing to prune", file=sys.stderr)
        else:
            from repro.experiments.cache import TrialCache

            stats = TrialCache(store).prune(
                max_bytes=args.prune_cache_bytes, max_age_days=args.prune_cache_days
            )
            print(f"--prune-cache: {stats.describe()}", file=sys.stderr)


if __name__ == "__main__":
    main()
