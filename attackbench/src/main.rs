//! The DynUnlock attack benchmark.
//!
//! One process runs one workload as a closed loop with concurrency 1: it
//! builds every instance from the workload seed (set-up), attacks them
//! one at a time in rounds for about `--seconds` seconds (the untraced,
//! timed pass), checks every recovered seed from the outside, and with
//! `--trace 1` repeats one round with spans on (the traced pass). The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Metric
//! definitions are in `attackbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path attackbench/Cargo.toml -- \
//!     --workload table-sweep --seed 1 --seconds 10 --trace 0
//! ```

mod attack;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use attack::{AttackResult, Attacker, LayerCounts, Verdict};
use trace::Tracer;
use workload::{build_all, Instance, Workload};

/// Set-up is repeated at least this many times and for at least
/// [`SETUP_MIN_S`] seconds; `setup_s` is the median.
const SETUP_MIN_REPEATS: usize = 7;

/// Least total set-up time measured per run, in seconds.
const SETUP_MIN_S: f64 = 1.0;

/// Where traced passes write their spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_trace";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Linear-interpolation quantile of `values` (sorted or not).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Named metric values with their units.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn print(&self, heading: &str) {
        println!("{heading}");
        for (name, value, unit) in &self.0 {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN: a measurement that failed reads as null.
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// The largest instance flop count at which at least half of that
/// count's attacks unlock.
fn frontier_flops(instances: &[Instance], results: &[AttackResult]) -> f64 {
    let mut by_flops: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
    for r in results {
        let e = by_flops
            .entry(instances[r.instance].circuit.num_dffs())
            .or_default();
        e.1 += 1;
        if r.fingerprint.verdict == Verdict::Unlocked {
            e.0 += 1;
        }
    }
    by_flops
        .iter()
        .rev()
        .find(|(_, &(ok, all))| 2 * ok >= all)
        .map_or(0.0, |(&flops, _)| flops as f64)
}

/// Compares `results` against the reference fingerprints by instance;
/// returns one line per difference.
fn determinism_diffs(
    reference: &[AttackResult],
    results: &[AttackResult],
    what: &str,
) -> Vec<String> {
    results
        .iter()
        .filter(|r| r.fingerprint != reference[r.instance].fingerprint)
        .map(|r| {
            format!(
                "{what}: instance {} differs: {:?} vs {:?}",
                r.instance, r.fingerprint, reference[r.instance].fingerprint
            )
        })
        .collect()
}

fn print_descriptors(instances: &[Instance], results: &[AttackResult]) {
    println!(
        "{:>4} {:<7} {:>5} {:>6} {:>4} {:>6} {:>5} {:>7} {:>5} {:>8} {:>9} {:>9}  outcome",
        "id",
        "profile",
        "flops",
        "gates",
        "key",
        "kgates",
        "rank",
        "nullity",
        "DIPs",
        "queries",
        "conflicts",
        "attack_ms"
    );
    for r in results {
        let inst = &instances[r.instance];
        let opt = |v: Option<usize>| v.map_or("-".to_string(), |v| v.to_string());
        println!(
            "{:>4} {:<7} {:>5} {:>6} {:>4} {:>6} {:>5} {:>7} {:>5} {:>8} {:>9} {:>9.2}  {}",
            inst.id,
            inst.profile,
            inst.circuit.num_dffs(),
            inst.circuit.num_gates(),
            inst.spec.width(),
            inst.spec.gates().len(),
            opt(r.rank),
            opt(r.nullity),
            r.fingerprint.dips,
            r.fingerprint.oracle_queries,
            r.fingerprint.stats[2],
            r.attack_s * 1e3,
            r.fingerprint.verdict.label()
        );
    }
}

/// Attacks every instance once, untraced.
fn round(attacker: &Attacker<'_>, instances: &[Instance]) -> Vec<AttackResult> {
    instances.iter().map(|inst| attacker.run(inst)).collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("attackbench: {e}");
            eprintln!(
                "usage: attackbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(wl) = Workload::new(&args.workload, args.seed) else {
        eprintln!(
            "attackbench: unknown workload {:?} (expected one of {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    println!(
        "workload {} seed {} ({} instances, closed loop, concurrency 1)",
        wl.name,
        args.seed,
        wl.instances.len()
    );

    // Set-up: build every instance repeatedly, for at least a second in
    // all; report the median. The traced run does not report it.
    let mut setup_times = Vec::new();
    let instances = loop {
        let t0 = Instant::now();
        let built = std::hint::black_box(build_all(&wl, None));
        setup_times.push(t0.elapsed().as_secs_f64());
        if args.trace
            || (setup_times.len() >= SETUP_MIN_REPEATS
                && setup_times.iter().sum::<f64>() >= SETUP_MIN_S)
        {
            break built;
        }
    };

    // Timed pass: whole rounds over the instance set, about `seconds` long.
    let attacker = Attacker {
        workload: &wl,
        seed: args.seed,
        cfg: wl.robust_config(),
    };
    let t0 = Instant::now();
    let first = round(&attacker, &instances);
    let first_s = t0.elapsed().as_secs_f64();
    let rounds = ((args.seconds / first_s).round() as usize).max(1);
    let mut timed = first.clone();
    let mut diffs = Vec::new();
    for r in 1..rounds {
        let again = round(&attacker, &instances);
        diffs.extend(determinism_diffs(
            &first,
            &again,
            &format!("timed round {}", r + 1),
        ));
        timed.extend(again);
    }
    let measured_s = t0.elapsed().as_secs_f64();
    diffs.extend(compare_with_previous_run(wl.name, args.seed, &first));

    let attack_times: Vec<f64> = timed.iter().map(|r| r.attack_s).collect();
    let summed_s: f64 = attack_times.iter().sum();
    let unlocks = timed
        .iter()
        .filter(|r| r.fingerprint.verdict == Verdict::Unlocked)
        .count();
    let mut end_to_end = Metrics::default();
    end_to_end.push("attack_s.p50", quantile(&attack_times, 0.5), "s");
    end_to_end.push("attack_s.p75", quantile(&attack_times, 0.75), "s");
    end_to_end.push("unlocks_per_s", unlocks as f64 / summed_s, "1/s");
    end_to_end.push(
        "unlocked_frac",
        unlocks as f64 / timed.len() as f64,
        "ratio",
    );
    end_to_end.push(
        "frontier_flops",
        frontier_flops(&instances, &first),
        "flops",
    );
    end_to_end.push(
        "oracle_queries",
        first
            .iter()
            .map(|r| r.fingerprint.oracle_queries)
            .sum::<usize>() as f64,
        "count",
    );
    end_to_end.push("setup_s", quantile(&setup_times, 0.5), "s");
    println!(
        "set-up: {} build(s) of every instance, min {:.6} s, median {:.6} s, max {:.6} s",
        setup_times.len(),
        quantile(&setup_times, 0.0),
        quantile(&setup_times, 0.5),
        quantile(&setup_times, 1.0)
    );
    end_to_end.push("peak_rss_mb", peak_rss_mb(), "MB");

    println!("per-instance descriptors (first timed round):");
    print_descriptors(&instances, &first);
    println!(
        "timed pass: {rounds} round(s), {} attacks (attack_s.samples), {measured_s:.3} s measured, {summed_s:.3} s summed attack time",
        timed.len()
    );
    end_to_end.print("end-to-end metrics (untraced pass):");

    let mut all: Vec<&AttackResult> = timed.iter().collect();
    let mut per_layer = Metrics::default();
    let mut traced_results = Vec::new();
    if args.trace {
        let mut tracer = Tracer::new();
        let traced_instances = build_all(&wl, Some(&mut tracer));
        let mut counts = LayerCounts::default();
        for inst in &traced_instances {
            traced_results.push(attacker.run_traced(inst, &mut tracer, &mut counts));
        }
        diffs.extend(determinism_diffs(&first, &traced_results, "traced pass"));
        all.extend(traced_results.iter());
        per_layer = layer_metrics(&tracer, &counts, &traced_results, summed_s / rounds as f64);
        per_layer.print("per-layer metrics (traced pass, self time):");
        print_shares(&tracer);
        if let Err(e) = write_trace(&tracer, wl.name, args.seed) {
            eprintln!("attackbench: could not write the trace: {e}");
        }
    }

    let attempted = all.len();
    let failed = all
        .iter()
        .filter(|r| r.fingerprint.verdict.is_error())
        .count();
    let mismatches = all
        .iter()
        .filter(|r| matches!(r.fingerprint.verdict, Verdict::Mismatch(_)))
        .count();
    for d in &diffs {
        println!("DETERMINISM VIOLATION {d}");
    }
    let correct = mismatches == 0 && diffs.is_empty();
    println!(
        "checks: {mismatches} wrong seed(s) or certificate(s), {} determinism difference(s), {failed} failed of {attempted} attacks",
        diffs.len()
    );
    let metrics = if args.trace { &per_layer } else { &end_to_end };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The per-layer metrics of a traced pass.
fn layer_metrics(
    tracer: &Tracer,
    counts: &LayerCounts,
    results: &[AttackResult],
    untraced_round_s: f64,
) -> Metrics {
    let st = tracer.self_times();
    let s = |layer: &str| st.get(layer).copied().unwrap_or(0.0);
    let sum = |f: &dyn Fn(&AttackResult) -> u64| results.iter().map(f).sum::<u64>() as f64;
    let dips = sum(&|r| r.fingerprint.dips as u64);
    let queries = sum(&|r| r.fingerprint.oracle_queries as u64);
    let attack_total = tracer.total("attack");

    let mut m = Metrics::default();
    m.push("netlist.generate_s", s("netlist.generate"), "s");
    m.push("scanlock.lock_s", s("scanlock.lock"), "s");
    m.push(
        "dynunlock.model.session_masks_s",
        s("dynunlock.model.session_masks"),
        "s",
    );
    m.push(
        "cnf.encode_s",
        (s("cnf.encode") - s("dynunlock.model.session_masks")).max(0.0),
        "s",
    );
    m.push("sat.dip_solve_s", s("sat.dip_solve"), "s");
    m.push("sat.dip_solve_max_s", counts.dip_solve_max_s, "s");
    m.push("sat.converge_s", s("sat.converge"), "s");
    m.push("sat.exhausted_s", s("sat.exhausted"), "s");
    m.push("sat.conflicts.dip", counts.conflicts_dip as f64, "count");
    m.push(
        "sat.conflicts.converge",
        counts.conflicts_converge as f64,
        "count",
    );
    m.push(
        "sat.conflicts.exhausted",
        counts.conflicts_exhausted as f64,
        "count",
    );
    m.push(
        "sat.conflicts.report",
        counts.conflicts_report as f64,
        "count",
    );
    m.push("sat.decisions", counts.decisions as f64, "count");
    m.push("sat.propagations", counts.propagations as f64, "count");
    m.push(
        "sat.xor_propagations",
        counts.xor_propagations as f64,
        "count",
    );
    m.push("sat.restarts", counts.restarts as f64, "count");
    m.push("sat.learnt_clauses", counts.learnt_clauses as f64, "count");
    m.push(
        "sat.cap_exhaustions",
        counts.cap_exhaustions as f64,
        "count",
    );
    m.push("sim.oracle_s", s("sim.oracle"), "s");
    m.push("sim.oracle_calls", counts.oracle_calls as f64, "count");
    m.push("sim.oracle_faults", counts.oracle_faults as f64, "count");
    m.push("dynunlock.dip_iterations", dips, "count");
    m.push("dynunlock.retries", sum(&|r| r.retries), "count");
    m.push(
        "dynunlock.repaired_bits",
        sum(&|r| r.repaired_bits),
        "count",
    );
    m.push("dynunlock.useful_query_ratio", dips / queries, "ratio");
    m.push("dynunlock.verify_s", s("dynunlock.verify"), "s");
    m.push("dynunlock.report_s", s("dynunlock.report"), "s");
    m.push("dynunlock.checkpoint_s", s("dynunlock.checkpoint"), "s");
    m.push(
        "dynunlock.checkpoint_bytes",
        counts.checkpoint_bytes as f64,
        "bytes",
    );
    m.push("dynunlock.resume_s", s("dynunlock.resume"), "s");
    m.push("proofcheck.certify_s", s("proofcheck.certify"), "s");
    m.push(
        "proofcheck.proof_steps",
        sum(&|r| r.fingerprint.proof_steps),
        "count",
    );
    m.push(
        "proofcheck.proof_bytes",
        sum(&|r| r.proof_bytes as u64),
        "bytes",
    );
    m.push("proofcheck.recheck_s", s("proofcheck.recheck"), "s");
    m.push("bench.check_s", s("bench.check"), "s");
    m.push("trace.attack_s", attack_total, "s");
    m.push("trace.coverage", 1.0 - s("attack") / attack_total, "ratio");
    m.push(
        "trace.overhead",
        attack_total / untraced_round_s - 1.0,
        "ratio",
    );
    m
}

/// Prints each layer's share of the traced attack time, then the layers
/// timed outside the attack spans (set-up, the benchmark's own checks and
/// the session-mask replica).
fn print_shares(tracer: &Tracer) {
    let total = tracer.total("attack");
    let outside: std::collections::BTreeSet<&str> = tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_none() && s.layer != "attack")
        .map(|s| s.layer)
        .collect();
    let mut rows: Vec<(&str, f64)> = tracer.self_times().into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "layer shares of traced attack time ({total:.3} s; `attack` is time no layer span covers):"
    );
    for (layer, secs) in rows.iter().filter(|(l, _)| !outside.contains(l)) {
        println!("  {layer:<34} {:>7.2}%  {secs:.6} s", 100.0 * secs / total);
    }
    println!("outside the attack spans:");
    for (layer, secs) in rows.iter().filter(|(l, _)| outside.contains(l)) {
        println!("  {layer:<34} {secs:>16.6} s");
    }
}

/// FNV-1a hash of this program's executable, naming the build whose
/// counters a file holds; `None` if the executable cannot be read.
fn build_id() -> Option<u64> {
    let bytes = std::fs::read(std::env::current_exe().ok()?).ok()?;
    Some(bytes.iter().fold(0xCBF2_9CE4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    }))
}

/// Compares this run's exact counters with those a previous run of the
/// same build, workload and seed left in this directory, then records
/// them. Runs of another build (another version of the code) are never
/// compared: a change that alters the counts is not a determinism fault.
/// Returns one line per difference.
fn compare_with_previous_run(workload: &str, seed: u64, results: &[AttackResult]) -> Vec<String> {
    let Some(build) = build_id() else {
        eprintln!("attackbench: could not read the executable; no previous-run comparison");
        return Vec::new();
    };
    let path = format!("{TRACE_DIR}/{workload}-seed{seed}-build{build:016x}.counters");
    let mut now = String::new();
    for r in results {
        let _ = writeln!(now, "{} {:?}", r.instance, r.fingerprint);
    }
    if let Ok(before) = std::fs::read_to_string(&path) {
        return before
            .lines()
            .zip(now.lines())
            .filter(|(a, b)| a != b)
            .map(|(a, b)| format!("previous run of this seed: {a} vs {b}"))
            .chain((before.lines().count() != now.lines().count()).then(|| {
                "previous run of this seed attacked a different instance count".to_string()
            }))
            .collect();
    }
    // Write then rename, so that a concurrent run never reads a partial file.
    let tmp = format!("{path}.{}", std::process::id());
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&tmp, now))
        .and_then(|()| std::fs::rename(&tmp, &path));
    if let Err(e) = written {
        eprintln!("attackbench: could not record counters: {e}");
    }
    Vec::new()
}

fn write_trace(tracer: &Tracer, workload: &str, seed: u64) -> std::io::Result<()> {
    std::fs::create_dir_all(TRACE_DIR)?;
    let path = format!("{TRACE_DIR}/{workload}-seed{seed}.jsonl");
    std::fs::write(&path, tracer.to_jsonl())?;
    println!("trace: {} spans written to {path}", tracer.spans().len());
    Ok(())
}
