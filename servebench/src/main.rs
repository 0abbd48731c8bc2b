//! Serving benchmark for the SYNERGY reproduction.
//!
//! ```text
//! servebench --workload <fabric_serve|admit_churn|software_mixed> --seed <n>
//!            --seconds <s> --trace <0|1>
//! servebench --self-test
//! servebench --probe-table
//! servebench --fuzz-pool <count>
//! ```
//!
//! A run repeats whole *episodes* of the workload until `--seconds` have
//! passed (and every sub-seed has run): each episode builds its fleet from
//! one of four sub-seeds of `--seed`, serves it for a fixed number of rounds,
//! checks every output, and runs a checkpoint drill. Episodes of one
//! sub-seed must produce identical virtual (deterministic) reports; a drift
//! is a determinism failure.
//!
//! `--trace 0` reports the end-to-end host metrics. `--trace 1` traces every
//! episode and reports the per-layer metrics: spans
//! around the benchmark's own calls into each layer, per-call costs from a
//! layer probe, and a ledger of the program's wall by layer. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod bench;
mod common;
mod fleet;
mod probe;
mod reference;
mod software;

use bench::{episode_seed, Ctx, E2e, SUBSEEDS};
use common::{fnv1a, fnv1a_bytes};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Environment knobs that change the measured program.
const KNOBS: [&str; 5] = [
    "SYNERGY_OPT",
    "SYNERGY_OPT_PASSES",
    "SYNERGY_OPT_IFCONVERT_MAX",
    "SYNERGY_COMPILED_TIER",
    "SYNERGY_TELEMETRY",
];

/// Results, spans and ledgers, relative to the repository root.
const OUT_DIR: &str = "servebench/out";

const WORKLOADS: [&str; 3] = ["fabric_serve", "admit_churn", "software_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
    probe_table: bool,
    fuzz_pool: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
        probe_table: false,
        fuzz_pool: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{} needs a value", flag));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {}", e))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {}", e))?,
            "--trace" => a.trace = value()? == "1",
            "--self-test" => a.self_test = true,
            "--probe-table" => a.probe_table = true,
            "--fuzz-pool" => {
                a.fuzz_pool = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--fuzz-pool: {}", e))?,
                )
            }
            other => return Err(format!("unknown argument '{}'", other)),
        }
    }
    if !a.self_test
        && !a.probe_table
        && a.fuzz_pool.is_none()
        && !WORKLOADS.contains(&a.workload.as_str())
    {
        return Err(format!("--workload must be one of {:?}", WORKLOADS));
    }
    Ok(a)
}

/// Runs whole episodes until `seconds` have passed (and at least
/// `min_episodes` have run). Episode `n` uses sub-seed `n % SUBSEEDS`.
/// Every episode of a traced run is traced.
fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    tamper: bool,
    scale: f64,
    min_episodes: u32,
) -> Ctx {
    let mut ctx = Ctx::new(trace, tamper);
    let fabric = fleet::CpShape::fabric_serve(scale);
    let churn = fleet::CpShape::admit_churn(scale);
    let soft = software::SwShape::software_mixed(scale);
    if workload == "software_mixed" {
        ctx.round_threads = soft.workers;
    }
    let start = Instant::now();
    loop {
        ctx.sub = ctx.episodes as usize % SUBSEEDS;
        let seed = episode_seed(seed, ctx.sub);
        common::reset_peak_rss();
        let t = Instant::now();
        match workload {
            "fabric_serve" => fleet::episode(&mut ctx, &fabric, seed),
            "admit_churn" => fleet::episode(&mut ctx, &churn, seed),
            _ => software::episode(&mut ctx, &soft, seed),
        }
        ctx.end_episode(t.elapsed().as_secs_f64());
        if ctx.ops.failed > 0
            || (ctx.episodes >= min_episodes && start.elapsed() >= Duration::from_secs_f64(seconds))
        {
            break;
        }
    }
    ctx
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

fn tail(name: &'static str, s: &common::Samples, ceiling: f64, unit: &'static str) -> Metric {
    let (p, v) = s.tail(ceiling);
    Metric {
        name,
        value: v,
        unit,
        note: format!("p{} of {} samples", p, s.len()),
    }
}

/// Tail percentiles (rounds, admissions) per workload: the highest that
/// keeps ten samples beyond it even in a run that gets through only 60% of
/// the samples a 30-second run gets on a 2-core host. `admit_churn` stops
/// admissions at p90: 3–4% of its admissions form a second population near
/// twice the median, whose share moves with the seed, and p95–p99 fall on
/// its edge or inside it (p99 spread 0.33 over ten seeds). `software_mixed`
/// takes its round tail over its 4 × 14 round slots, which keep ten beyond
/// p75.
fn tail_ceilings(workload: &str) -> (f64, f64) {
    match workload {
        "fabric_serve" => (75.0, 90.0),
        "admit_churn" => (90.0, 90.0),
        _ => (75.0, 99.0),
    }
}

/// Whether a workload's round tail is taken over round slots, each the
/// median wall of its repeats in the run (see [`E2e::slot_medians`]), rather
/// than over single rounds. `software_mixed` repeats each sub-seed's rounds
/// about ten times in a run, and its rounds differ little in work, so the
/// tail of single rounds follows how often the host preempts a round: on a
/// 2-core host a bursty CPU neighbour moved it by 19% and the slot tail by
/// 1%, and ten-run sets on a shared host spread 0.24–0.29. The fleet
/// workloads get too few repeats of a slot for a median to filter anything,
/// and their slow rounds (recoveries) are in the work itself.
fn round_tail_by_slot(workload: &str) -> bool {
    workload == "software_mixed"
}

/// The end-to-end time metrics of `e`.
fn times(e: &E2e, workload: &str) -> Vec<Metric> {
    let (round_tail, admit_tail) = tail_ceilings(workload);
    let n = |s: &common::Samples| format!("median of {} samples", s.len());
    let round_tail = if round_tail_by_slot(workload) {
        let slots = e.slot_medians();
        let (p, v) = slots.tail(round_tail);
        Metric {
            name: "round_ms_tail",
            value: v,
            unit: "ms",
            note: format!(
                "p{} of {} round slots, each the median of its repeats",
                p,
                slots.len()
            ),
        }
    } else {
        tail("round_ms_tail", &e.round_ms, round_tail, "ms")
    };
    let mut out = vec![
        m("setup_s", e.setup_s.median(), "s"),
        m(
            "host_us_per_tenant_round",
            e.host_us_per_tenant_round(),
            "us",
        ),
        m("round_ms_p50", e.round_ms.median(), "ms"),
        round_tail,
        m("admit_us_p50", e.admit_us.median(), "us"),
        tail("admit_us_tail", &e.admit_us, admit_tail, "us"),
        m("fleet_checkpoint_ms_p50", e.checkpoint_ms.median(), "ms"),
        m("fleet_restore_ms_p50", e.restore_ms.median(), "ms"),
        m("migrate_ms_p50", e.migrate_ms.median(), "ms"),
    ];
    out[0].note = n(&e.setup_s);
    out[1].note = format!(
        "{} rounds, {} tenant-rounds",
        e.round_ms.len(),
        e.tenant_rounds
    );
    out[2].note = n(&e.round_ms);
    out[4].note = n(&e.admit_us);
    out[6].note = n(&e.checkpoint_ms);
    out[7].note = n(&e.restore_ms);
    out[8].note = n(&e.migrate_ms);
    out
}

/// Times at the nominal host speed, each noted with its wall-clock value.
fn end_to_end(ctx: &Ctx, workload: &str) -> Vec<Metric> {
    let mut out = times(&ctx.e2e, workload);
    for (x, w) in out.iter_mut().zip(times(&ctx.wall, workload)) {
        x.note = format!("{}; wall-clock {:.4}", x.note, w.value);
    }
    let mut rss = m("peak_rss_mb", ctx.peak_rss_mb.median(), "MB");
    rss.note = format!("median of {} per-episode peaks", ctx.peak_rss_mb.len());
    out.push(rss);
    out
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn per_layer(ctx: &Ctx) -> Vec<Metric> {
    let a = &ctx.acc;
    let ctl = |f: fn(&common::ControlTotals) -> f64| -> f64 {
        ratio(a.control.iter().map(f).sum(), a.control.len() as f64)
    };
    let migrations: f64 = a.control.iter().map(|c| c.migrations).sum();
    let failures: f64 = a.control.iter().map(|c| c.migration_failures).sum();
    let tracing_s = ctx.trace_s + ctx.tracer.cost_s;
    let est = "probe per-call cost, mean over admissions (estimate)";
    let mut out = vec![
        m("vlog.compile_us", a.probe_mean("vlog.compile_us"), "us"),
        m("codegen.lower_us", a.probe_mean("codegen.lower_us"), "us"),
        m(
            "codegen.translate_us",
            a.probe_mean("codegen.translate_us"),
            "us",
        ),
        m("opt.optimize_us", a.probe_mean("opt.optimize_us"), "us"),
        m("opt.rewrites", a.probe_mean("opt.rewrites"), "count"),
        m(
            "transform.transform_us",
            a.probe_mean("transform.transform_us"),
            "us",
        ),
        m("fpga.synth_us", a.probe_mean("fpga.synth_us"), "us"),
        m(
            "fpga.bitstream_hit_ratio",
            ratio(a.bitstream_hits, a.bitstream_hits + a.bitstream_misses),
            "ratio",
        ),
        m(
            "runtime.tick_ns.hardware",
            ratio(a.hw_host_ns, a.hw_ticks),
            "ns",
        ),
        m(
            "runtime.tick_ns.compiled",
            ratio(a.compiled_host_ns, a.compiled_ticks),
            "ns",
        ),
        m("runtime.with_policy_us", a.with_policy_us.mean(), "us"),
        m("runtime.ckpt_encode_us", a.encode_us.mean(), "us"),
        m("runtime.ckpt_decode_us", a.decode_us.mean(), "us"),
        m("runtime.ckpt_bytes", a.ckpt_bytes.mean(), "B"),
        m("hv.deploy_us", a.probe_mean("hv.deploy_us"), "us"),
        m(
            "hv.admission_cache_hit_ratio",
            ratio(a.deploy_hits, a.deploy_hits + a.deploy_misses),
            "ratio",
        ),
        m("hv.run_round_ms", a.run_round_ms.mean(), "ms"),
        m("hv.sched_busy_ratio", ratio(a.busy.0, a.busy.1), "ratio"),
        m(
            "hv.pool_steals",
            ratio(a.pool_steals, a.pool_rounds),
            "count",
        ),
        m("hv.pool_parks", ratio(a.pool_parks, a.pool_rounds), "count"),
        m(
            "hv.checkpoint_fleet_us_per_tenant",
            a.checkpoint_us_per_tenant.mean(),
            "us",
        ),
        m(
            "hv.restore_fleet_us_per_tenant",
            a.restore_us_per_tenant.mean(),
            "us",
        ),
        m("control.admit_us", a.admit_us.mean(), "us"),
        m("control.depart_us", a.depart_us.mean(), "us"),
        m("control.step_self_ms", a.step_self_ms.mean(), "ms"),
        m("control.recover_ms", a.recover_ms.mean(), "ms"),
        m("control.recoveries", ctl(|c| c.recoveries), "count"),
        m(
            "control.replayed_rounds",
            ctl(|c| c.replayed_rounds),
            "count",
        ),
        m("control.checkpoints", ctl(|c| c.checkpoints), "count"),
        m("control.migrations", ctl(|c| c.migrations), "count"),
        // 0 when no rebalancing migration was attempted.
        m(
            "control.migration_success_ratio",
            ratio(migrations, migrations + failures),
            "ratio",
        ),
        m(
            "ledger.attributed_frac",
            ctx.ledger.attributed_frac(),
            "ratio",
        ),
        // Tracing work over the rest of the traced run's wall.
        m(
            "trace.overhead_frac",
            ratio(tracing_s, ctx.wall_s - tracing_s),
            "ratio",
        ),
    ];
    for (i, x) in out.iter_mut().enumerate() {
        if i < 7 || x.name == "hv.deploy_us" {
            x.note = est.into();
        }
    }
    out
}

fn provenance() -> String {
    let cmd = |prog: &str, args: &[&str]| -> String {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "{{\"host_cores\": {}, \"git_revision\": \"{}\", \"rustc\": \"{}\"}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cmd("git", &["rev-parse", "HEAD"]),
        cmd("rustc", &["-V"]),
    )
}

fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn ledger_text(ctx: &Ctx) -> String {
    let l = &ctx.ledger;
    let mut s = String::new();
    let total = l.program_s.max(1e-12);
    let _ = writeln!(
        s,
        "ledger (traced episodes): {:.3} s inside the program",
        l.program_s
    );
    for (layer, v) in &l.layers {
        let _ = writeln!(
            s,
            "  {:<28} {:>9.3} s  {:>6.2}%  measured",
            layer,
            v,
            100.0 * v / total
        );
    }
    for (layer, v) in &l.derived {
        let _ = writeln!(
            s,
            "  {:<28} {:>9.3} s  {:>6.2}%  derived (call wall − tenant time in it)",
            layer,
            v,
            100.0 * v / total
        );
    }
    for (layer, v) in &l.estimated {
        let _ = writeln!(
            s,
            "  {:<28} {:>9.3} s  {:>6.2}%  estimate (probe cost × calls)",
            layer,
            v,
            100.0 * v / total
        );
    }
    let residue = (l.program_s - l.attributed_s()).max(0.0);
    let _ = writeln!(
        s,
        "  {:<28} {:>9.3} s  {:>6.2}%",
        "unattributed residue",
        residue,
        100.0 * residue / total
    );
    let derived: f64 = l.derived.values().sum();
    let _ = writeln!(
        s,
        "attributed {:.2}% (measured + derived + estimate); without derived rows {:.2}%",
        100.0 * l.attributed_frac(),
        100.0 * ((l.attributed_s() - derived) / total).min(1.0)
    );
    s
}

fn spans_json(ctx: &Ctx) -> String {
    let mut s = String::from("[\n");
    for (i, sp) in ctx.tracer.spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "{}  {{\"id\": {}, \"name\": \"{}\", \"op\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            if i > 0 { ",\n" } else { "" },
            i,
            sp.name,
            sp.op,
            parent,
            sp.start_ns,
            sp.end_ns
        );
    }
    s.push_str("\n]\n");
    s
}

fn main() {
    std::process::exit(match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("servebench: {}", e);
            2
        }
    });
}

fn real_main() -> Result<i32, String> {
    let set: Vec<&str> = KNOBS
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run: {:?} change the measured program; unset them",
            set
        ));
    }
    let args = parse_args()?;
    if args.probe_table {
        print!("{}", probe::table()?);
        return Ok(0);
    }
    if args.self_test {
        return Ok(self_test());
    }
    if let Some(count) = args.fuzz_pool {
        print!("{}", software::fuzz_pool(count));
        return Ok(0);
    }

    let mut ctx = run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        false,
        1.0,
        SUBSEEDS as u32,
    );
    let virt = ctx
        .virt
        .iter()
        .flatten()
        .map(|v| v.render())
        .collect::<Vec<_>>()
        .join(" || ");
    check_against_earlier_runs(&mut ctx, &args.workload, args.seed, &virt);
    let metrics = if args.trace {
        per_layer(&ctx)
    } else {
        end_to_end(&ctx, &args.workload)
    };
    let prov = provenance();
    println!(
        "servebench {} seed {} trace {} | provenance {}",
        args.workload, args.seed, args.trace as u8, prov
    );
    println!(
        "{} episodes, {}; reference work median {:.4} ms of {} samples (nominal {} ms)",
        ctx.episodes,
        if args.trace { "traced" } else { "untraced" },
        ctx.reference_ms.median(),
        ctx.reference_ms.len(),
        reference::NOMINAL_MS
    );
    if ctx.round_threads > 1 {
        println!(
            "reference work on a round's {} threads: median {:.4} ms (rescales round times)",
            ctx.round_threads,
            ctx.round_reference_ms.median()
        );
    }
    for x in &metrics {
        println!(
            "  {:<36} {:>14.4} {:<6} {}",
            x.name, x.value, x.unit, x.note
        );
    }
    for v in virt.split(" || ") {
        println!("  {}", v);
    }
    if args.trace {
        print!("{}", ledger_text(&ctx));
    }
    for f in &ctx.ops.failures {
        println!("FAILED: {}", f);
    }
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ctx.ops.failed == 0,
        ctx.ops.attempted.max(1),
        ctx.ops.failed,
        metrics_json(&metrics)
    );
    let stem = format!(
        "{}/{}-seed{}-trace{}",
        OUT_DIR, args.workload, args.seed, args.trace as u8
    );
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"provenance\": {}, \"virtual\": \"{}\", \"virtual_digest\": \"{:016x}\", \"result\": {}}}\n",
        args.workload,
        args.seed,
        prov,
        virt,
        fnv1a(&virt),
        result
    );
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|_| std::fs::write(format!("{}.json", stem), record))
        .and_then(|_| {
            if args.trace {
                std::fs::write(format!("{}.spans.json", stem), spans_json(&ctx))?;
                std::fs::write(format!("{}.ledger.txt", stem), ledger_text(&ctx))?;
            }
            Ok(())
        });
    if let Err(e) = written {
        eprintln!("servebench: could not write {}: {}", stem, e);
    }
    println!("{}", result);
    Ok(if ctx.ops.failed == 0 { 0 } else { 1 })
}

/// Cross-run determinism: every run appends `<binary> <workload> <seed>
/// <virtual digest>` to a ledger under the output directory, and a run of the
/// same benchmark binary on the same workload and seed must find the same
/// digest there. Keying on the binary's bytes keeps a rebuilt program from
/// being compared with its predecessor.
fn check_against_earlier_runs(ctx: &mut Ctx, workload: &str, seed: u64, virt: &str) {
    let path = format!("{}/virtual-reports.txt", OUT_DIR);
    let binary = std::env::current_exe()
        .and_then(std::fs::read)
        .map(|bytes| fnv1a_bytes(&bytes))
        .unwrap_or(0);
    let key = format!("{:016x} {} {}", binary, workload, seed);
    let digest = format!("{:016x}", fnv1a(virt));
    let earlier = std::fs::read_to_string(&path).unwrap_or_default();
    match earlier
        .lines()
        .find_map(|l| l.strip_prefix(key.as_str())?.strip_prefix(' '))
    {
        Some(previous) => ctx.ops.check(previous.trim() == digest, || {
            format!(
                "determinism: virtual report digest {} differs from an earlier run's {}",
                digest,
                previous.trim()
            )
        }),
        None => {
            let line = format!("{} {}\n", key, digest);
            let appended = std::fs::create_dir_all(OUT_DIR).and_then(|_| {
                use std::io::Write;
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)?
                    .write_all(line.as_bytes())
            });
            if let Err(e) = appended {
                eprintln!("servebench: could not record {}: {}", path, e);
            }
        }
    }
}

/// Runs every workload at tiny scale twice: as is (every check must pass)
/// and with a deliberately wrong expected value (a check must trip).
fn self_test() -> i32 {
    let mut ok = true;
    for w in WORKLOADS {
        let clean = run(w, 7, 0.0, true, false, 0.4, SUBSEEDS as u32 + 1);
        let tampered = run(w, 7, 0.0, false, true, 0.4, 1);
        let pass = clean.ops.failed == 0 && tampered.ops.failed > 0;
        println!(
            "self-test {:<15} clean: {} failed of {} | wrong expectation: {} failed -> {}",
            w,
            clean.ops.failed,
            clean.ops.attempted,
            tampered.ops.failed,
            if pass { "ok" } else { "BROKEN" }
        );
        for f in clean
            .ops
            .failures
            .iter()
            .chain(tampered.ops.failures.iter().take(1))
        {
            println!("    {}", f);
        }
        ok &= pass;
    }
    if ok {
        0
    } else {
        1
    }
}
