//! Shared machinery: programs, timing samples, operation accounting, spans,
//! the per-layer accumulators, and registry-delta helpers.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::{Duration, Instant};
use synergy::{Cluster, Namespace, Registry};

/// The serving tenant: a 3-op counter whose state proves every tick it lived
/// (`acc == 3 × ticks`).
pub const WORKER_SOURCE: &str = r#"
    module Worker(input wire clock, output wire [31:0] out);
        reg [31:0] acc = 0;
        always @(posedge clock) acc <= acc + 3;
        assign out = acc;
    endmodule
"#;

/// One tenant program plus the input stream it reads, if any.
#[derive(Debug, Clone)]
pub struct Program {
    pub name: String,
    pub source: String,
    pub top: String,
    pub clock: String,
    pub input: Option<(String, Vec<u64>)>,
}

impl Program {
    pub fn worker() -> Program {
        Program {
            name: "Worker".into(),
            source: WORKER_SOURCE.into(),
            top: "Worker".into(),
            clock: "clock".into(),
            input: None,
        }
    }

    /// A Table-1 workload; streaming ones get `stream_len` input words.
    pub fn table1(name: &str, stream_len: usize) -> Program {
        let b = synergy::workloads::by_name(name).expect("Table-1 workload exists");
        let input = b
            .input_path
            .clone()
            .map(|p| (p, synergy::workloads::input_data(&b.name, stream_len)));
        Program {
            name: b.name,
            source: b.source,
            top: b.top,
            clock: b.clock,
            input,
        }
    }

    /// A seed-generated design from the repository's fuzz generator.
    pub fn fuzz(seed: u64, stream_len: usize) -> Program {
        let d = synergy::workloads::generate_fuzz_design(seed);
        let input = d
            .input_path
            .clone()
            .map(|p| (p, synergy::workloads::fuzz_input_data(seed, stream_len)));
        Program {
            name: format!("fuzz{}", seed),
            source: d.source,
            top: d.top,
            clock: d.clock,
            input,
        }
    }

    /// Builds a runtime for this program with its input stream attached.
    pub fn runtime(
        &self,
        name: &str,
        policy: synergy::EnginePolicy,
    ) -> Result<synergy::Runtime, synergy::VlogError> {
        let mut rt =
            synergy::Runtime::with_policy(name, &self.source, &self.top, &self.clock, policy)?;
        if let Some((path, data)) = &self.input {
            rt.add_file(path.clone(), data.clone());
        }
        Ok(rt)
    }
}

/// xorshift* generator: the same seed gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Runs `f` and returns its result with the wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Host-time samples of one measured call, in the unit they are reported in.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    pub fn median(&self) -> f64 {
        quantile(&self.sorted(), 0.5)
    }

    /// The highest of p50/p75/p90/p95/p99/p99.9, up to `ceiling`, that has
    /// at least ten samples beyond it: `(percentile, value)`. The ceiling
    /// keeps one workload's tail on one percentile from run to run.
    pub fn tail(&self, ceiling: f64) -> (f64, f64) {
        let v = self.sorted();
        let n = v.len() as f64;
        let mut best = 50.0;
        for p in [75.0, 90.0, 95.0, 99.0, 99.9] {
            if p <= ceiling && n * (1.0 - p / 100.0) >= 10.0 {
                best = p;
            }
        }
        (best, quantile(&v, best / 100.0))
    }
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Every public-API call is an operation; an `Err`, a lost tenant, or a
/// check mismatch counts it as failed. Injected faults are not failures.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one call and unwraps its result, recording an `Err`.
    pub fn call<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{}: {}", what, e));
                None
            }
        }
    }

    /// Counts one infallible call.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// An output check attached to the operations already counted: a
    /// mismatch marks one of them failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(msg);
        }
    }
}

/// One benchmark-side span around a call into the program.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Operation id shared by the spans of one operation (one admission,
    /// one round, one drill).
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder; spans are written out when the run ends.
pub struct Tracer {
    pub on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    next_op: u64,
    /// Host time spent recording spans, in s.
    pub cost_s: f64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            next_op: 0,
            cost_s: 0.0,
        }
    }

    pub fn new_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Records a span that started at `start` and ends now; returns its
    /// index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = Instant::now();
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        let end_ns = now.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        self.cost_s += now.elapsed().as_secs_f64();
        Some(self.spans.len() - 1)
    }

    /// Opens a parent span whose end is filled in by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64) -> Option<usize> {
        let now = Instant::now();
        self.record(name, op, None, now)
    }

    pub fn close(&mut self, idx: Option<usize>) {
        if let Some(i) = idx {
            self.spans[i].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }
}

/// Host seconds attributed to named layers in traced episodes. `program_s`
/// is the wall spent inside calls into the program; whatever of it no layer
/// claims is the residue.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub program_s: f64,
    pub layers: BTreeMap<&'static str, f64>,
    /// Residuals: a measured call's wall minus the tenant time counted
    /// inside it. Everything in the call that is not tenant ticks lands
    /// here, so these rows are attributed by construction.
    pub derived: BTreeMap<&'static str, f64>,
    /// Layers whose share is a probe estimate (per-call cost × call count).
    pub estimated: BTreeMap<&'static str, f64>,
}

impl Ledger {
    pub fn measured(&mut self, layer: &'static str, s: f64) {
        *self.layers.entry(layer).or_default() += s;
    }

    pub fn derived(&mut self, layer: &'static str, s: f64) {
        *self.derived.entry(layer).or_default() += s;
    }

    pub fn estimate(&mut self, layer: &'static str, s: f64) {
        *self.estimated.entry(layer).or_default() += s;
    }

    /// Credits an estimated decomposition of a span of `span_s` seconds,
    /// scaled down if the estimates overshoot the span they explain.
    pub fn decompose(&mut self, span_s: f64, parts: &[(&'static str, f64)]) {
        let total: f64 = parts.iter().map(|p| p.1).sum();
        let scale = if total > span_s && total > 0.0 {
            span_s / total
        } else {
            1.0
        };
        for (layer, s) in parts {
            self.estimate(layer, s * scale);
        }
    }

    pub fn attributed_s(&self) -> f64 {
        self.layers.values().sum::<f64>()
            + self.derived.values().sum::<f64>()
            + self.estimated.values().sum::<f64>()
    }

    pub fn attributed_frac(&self) -> f64 {
        if self.program_s <= 0.0 {
            0.0
        } else {
            (self.attributed_s() / self.program_s).min(1.0)
        }
    }
}

/// Per-layer accumulators filled in traced episodes.
#[derive(Debug, Default, Clone)]
pub struct LayerAcc {
    pub hw_host_ns: f64,
    pub hw_ticks: f64,
    pub compiled_host_ns: f64,
    pub compiled_ticks: f64,
    pub with_policy_us: Samples,
    pub encode_us: Samples,
    pub decode_us: Samples,
    pub ckpt_bytes: Samples,
    pub run_round_ms: Samples,
    /// (Σ tenant job host ns, workers × round wall ns) per round call.
    pub busy: (f64, f64),
    pub pool_steals: f64,
    pub pool_parks: f64,
    pub pool_rounds: f64,
    pub checkpoint_us_per_tenant: Samples,
    pub restore_us_per_tenant: Samples,
    pub admit_us: Samples,
    pub depart_us: Samples,
    pub step_self_ms: Samples,
    pub recover_ms: Samples,
    pub deploy_hits: f64,
    pub deploy_misses: f64,
    pub bitstream_hits: f64,
    pub bitstream_misses: f64,
    pub control: Vec<ControlTotals>,
    /// Per-call probe costs weighted by admissions: (Σ value, admissions).
    pub probe: BTreeMap<&'static str, (f64, f64)>,
}

impl LayerAcc {
    pub fn probe_add(&mut self, key: &'static str, v: f64) {
        let e = self.probe.entry(key).or_default();
        e.0 += v;
        e.1 += 1.0;
    }

    pub fn probe_mean(&self, key: &str) -> f64 {
        match self.probe.get(key) {
            Some((s, n)) if *n > 0.0 => s / n,
            _ => 0.0,
        }
    }
}

/// Virtual control-plane counts of one traced episode.
#[derive(Debug, Clone, Default)]
pub struct ControlTotals {
    pub recoveries: f64,
    pub replayed_rounds: f64,
    pub checkpoints: f64,
    pub migrations: f64,
    pub migration_failures: f64,
}

/// Host ns and ticks one tenant accrued, keyed by (node, app id).
pub type TenantCounters = BTreeMap<(String, String), (u64, u64)>;

pub fn label<'a>(labels: &'a [(&'static str, String)], key: &str) -> Option<&'a str> {
    labels
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.as_str())
}

/// Reads every tenant's NonDet `hv_host_round_ns_total` and Det
/// `runtime_ticks_total` out of a fleet registry.
pub fn tenant_counters(reg: &Registry) -> TenantCounters {
    let mut out = TenantCounters::new();
    for (k, v) in reg.iter(Namespace::NonDet) {
        if k.name != "hv_host_round_ns_total" {
            continue;
        }
        let node = label(&k.labels, "node").unwrap_or("");
        if let (Some(app), synergy::telemetry::MetricValue::Counter(c)) =
            (label(&k.labels, "app"), v)
        {
            out.entry((node.to_string(), app.to_string()))
                .or_default()
                .0 += c;
        }
    }
    for (k, v) in reg.iter(Namespace::Det) {
        if k.name != "runtime_ticks_total" {
            continue;
        }
        // Tenant labels read `<app id>:<name>`.
        let node = label(&k.labels, "node").unwrap_or("");
        if let (Some(tenant), synergy::telemetry::MetricValue::Counter(c)) =
            (label(&k.labels, "tenant"), v)
        {
            let app = tenant.split(':').next().unwrap_or("").to_string();
            out.entry((node.to_string(), app)).or_default().1 += c;
        }
    }
    out
}

/// Splits the per-tenant counter deltas across one round call by engine
/// kind: `deployed(node, app)` says whether the tenant ran on fabric.
/// Returns the total tenant host ns of the call.
pub fn credit_ticks(
    before: &TenantCounters,
    after: &TenantCounters,
    deployed: impl Fn(&str, &str) -> bool,
    acc: &mut LayerAcc,
) -> f64 {
    let mut total = 0.0;
    for (key, &(ns, ticks)) in after {
        let (ns0, ticks0) = before.get(key).copied().unwrap_or((0, 0));
        let dns = ns.saturating_sub(ns0) as f64;
        total += dns;
        // A tenant first seen after the call is new (its counters start at
        // zero); one whose tick counter went backwards was rebuilt mid-call
        // and only its host time counts.
        if ticks < ticks0 {
            continue;
        }
        let dt = (ticks - ticks0) as f64;
        if deployed(&key.0, &key.1) {
            acc.hw_host_ns += dns;
            acc.hw_ticks += dt;
        } else {
            acc.compiled_host_ns += dns;
            acc.compiled_ticks += dt;
        }
    }
    total
}

/// FNV-1a: a stable digest for the virtual report.
pub fn fnv1a(text: &str) -> u64 {
    fnv1a_bytes(text.as_bytes())
}

pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Virtual (deterministic) figures of one episode. Two episodes with the same
/// seed must produce identical reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualReport {
    pub rounds: usize,
    pub p50_round_ticks: u64,
    pub p99_round_ticks: u64,
    pub migrations: u64,
    pub recoveries: u64,
    pub replayed_rounds: u64,
    pub survivors: usize,
    pub expected: usize,
    pub det_digest: u64,
}

impl VirtualReport {
    pub fn new(mut round_ticks: Vec<u64>, cluster: &Cluster) -> Self {
        round_ticks.sort_unstable();
        let pct = |p: f64| -> u64 {
            if round_ticks.is_empty() {
                return 0;
            }
            round_ticks[((round_ticks.len() - 1) as f64 * p).round() as usize]
        };
        VirtualReport {
            rounds: round_ticks.len(),
            p50_round_ticks: pct(0.5),
            p99_round_ticks: pct(0.99),
            migrations: 0,
            recoveries: 0,
            replayed_rounds: 0,
            survivors: 0,
            expected: 0,
            det_digest: fnv1a(&cluster.metrics().det_text()),
        }
    }

    pub fn survival(&self) -> f64 {
        if self.expected == 0 {
            1.0
        } else {
            self.survivors as f64 / self.expected as f64
        }
    }

    pub fn render(&self) -> String {
        format!(
            "virtual: rounds {} | round ticks p50 {} p99 {} | migrations {} | recoveries {} ({} rounds replayed) | survival {:.4} ({}/{}) | det digest {:016x}",
            self.rounds,
            self.p50_round_ticks,
            self.p99_round_ticks,
            self.migrations,
            self.recoveries,
            self.replayed_rounds,
            self.survival(),
            self.survivors,
            self.expected,
            self.det_digest
        )
    }
}

/// Resets this process's peak resident set to its current one (Linux
/// `clear_refs`), so the next [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (VmHWM) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
