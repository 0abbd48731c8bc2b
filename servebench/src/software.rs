//! The bypass workload (`software_mixed`): a `Cluster` of software nodes fed
//! through `Runtime::with_policy` + `Hypervisor::connect`, every tenant a
//! distinct program on the regalloc tier, scheduled in parallel.

use crate::bench::{drill, Ctx};
use crate::common::{credit_ticks, tenant_counters, timed, Program, Rng, VirtualReport};
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use synergy::{AppId, Cluster, Device, DomainId, EnginePolicy, NodeId, SchedPolicy};

pub const ROUND_TICK_CAP: u64 = 512;

/// Fuzz-generator seeds whose designs run 0.8–2.5 µs per tick on the
/// regalloc tier, split by whether the design reads an input stream: the
/// output of `servebench --fuzz-pool 48` on a 2-core x86-64 host. An
/// episode keeps half its generated tenants from each list and replaces a
/// departing design with one of its own kind, drawing each list in a seeded
/// order. The seed thus changes which design arrives when and where, not
/// the episode's work. Unfiltered designs span 10 ns to 10 ms per tick, and
/// each stream adds ~120 KB to its node's checkpoint image.
const STREAM_POOL: [u64; 48] = [
    36, 41, 50, 57, 60, 66, 67, 69, 71, 100, 107, 109, 115, 126, 133, 136, 184, 189, 199, 206, 214,
    233, 234, 270, 283, 290, 300, 314, 322, 328, 329, 330, 357, 360, 361, 367, 379, 393, 399, 444,
    447, 457, 458, 460, 477, 489, 493, 499,
];
const PLAIN_POOL: [u64; 48] = [
    2, 3, 4, 6, 9, 10, 16, 17, 22, 28, 29, 31, 33, 37, 51, 54, 55, 61, 62, 64, 68, 73, 80, 82, 84,
    85, 88, 90, 93, 108, 111, 113, 122, 124, 129, 130, 131, 132, 134, 137, 139, 144, 146, 148, 155,
    156, 158, 160,
];

pub struct SwShape {
    pub nodes: usize,
    /// Fuzz-generated tenants beside the six Table-1 programs.
    pub fuzz: usize,
    /// Generated tenants replaced by never-seen designs each round.
    pub churn: usize,
    pub rounds: u64,
    pub workers: usize,
}

impl SwShape {
    pub fn software_mixed(scale: f64) -> Self {
        SwShape {
            nodes: 2,
            fuzz: (24.0 * scale).round().max(2.0) as usize,
            churn: 3,
            rounds: (14.0 * scale).round().max(4.0) as u64,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Input words per stream: enough for every tick of the episode (`nw`
    /// reads two words a tick).
    fn stream_len(&self) -> usize {
        (2 * ROUND_TICK_CAP * (self.rounds + 1)) as usize + 64
    }
}

struct Tenant {
    node: NodeId,
    app: AppId,
    program: Program,
}

fn admit(
    ctx: &mut Ctx,
    cluster: &mut Cluster,
    node: NodeId,
    program: Program,
    domain: u64,
) -> Option<Tenant> {
    let traced = ctx.traced;
    let cost = if traced {
        Some(ctx.cost(&program, false))
    } else {
        None
    };
    let op = ctx.tracer.new_op();
    let t = Instant::now();
    let rt = program.runtime(&program.name, EnginePolicy::Compiled);
    let wp = t.elapsed();
    ctx.tracer.record("runtime.with_policy", op, None, t);
    let rt = ctx.ops.call("with_policy", rt)?;
    let hv = ctx.ops.call("try_node_mut", cluster.try_node_mut(node))?;
    let t1 = Instant::now();
    let app = hv.connect(rt, DomainId(domain), false);
    let cn = t1.elapsed();
    ctx.tracer.record("hv.connect", op, None, t1);
    ctx.ops.ok();
    let total = t.elapsed();
    ctx.e2e().admit_us.push(total.as_secs_f64() * 1e6);
    if let Some(c) = cost {
        let start = Instant::now();
        ctx.acc.with_policy_us.push(wp.as_secs_f64() * 1e6);
        ctx.note_admission(&c, false);
        ctx.ledger.program_s += (wp + cn).as_secs_f64();
        ctx.ledger.measured("hv.connect", cn.as_secs_f64());
        ctx.ledger.decompose(
            wp.as_secs_f64(),
            &[
                ("vlog", c.vlog_us * 1e-6),
                ("codegen", (c.lower_us + c.translate_us) * 1e-6),
                ("opt", c.opt_us * 1e-6),
            ],
        );
        ctx.tracing_since(start);
    }
    Some(Tenant { node, app, program })
}

/// Re-runs `t`'s program standalone on the regalloc tier for the ticks it
/// lived and checks the two states are identical.
fn check_standalone(ctx: &mut Ctx, cluster: &Cluster, t: &Tenant) {
    let Ok(rt) = cluster.try_node(t.node).and_then(|h| h.app(t.app)) else {
        ctx.ops
            .check(false, || format!("tenant {} missing", t.program.name));
        return;
    };
    let ticks = rt.ticks() + ctx.tamper as u64;
    let state = rt.peek_state();
    let reference = t
        .program
        .runtime("reference", EnginePolicy::Compiled)
        .and_then(|mut r| {
            r.run_ticks(ticks)?;
            Ok(r.peek_state())
        });
    ctx.ops.check(
        matches!(&reference, Ok(s) if s.values == state.values),
        || {
            format!(
                "{}: fleet state differs from a standalone run of {} ticks",
                t.program.name, ticks
            )
        },
    );
}

pub fn episode(ctx: &mut Ctx, shape: &SwShape, seed: u64) {
    let traced = ctx.traced;
    let op = ctx.tracer.new_op();
    let ep_span = ctx.tracer.open("episode", op);
    let t0 = Instant::now();
    let mut cluster = Cluster::new();
    cluster.set_engine_policy(EnginePolicy::Compiled);
    cluster.set_sched_policy(SchedPolicy::Parallel {
        workers: shape.workers,
    });
    cluster.set_round_tick_cap(ROUND_TICK_CAP);
    let nodes: Vec<NodeId> = (0..shape.nodes)
        .map(|_| cluster.add_node(Device::f1()))
        .collect();
    let len = shape.stream_len();
    let mut rng = Rng::new(seed);
    // Seeded shuffles of the two pools; the episode takes designs in order,
    // streaming ones at even indices. `kind(t)` is a tenant's pool.
    let mut designs = [&STREAM_POOL[..], &PLAIN_POOL[..]].map(|pool| {
        let mut pool = pool.to_vec();
        for i in (1..pool.len()).rev() {
            pool.swap(i, rng.below(i as u64 + 1) as usize);
        }
        pool.into_iter()
    });
    let kind = |t: &Tenant| t.program.input.is_none() as usize;
    let mut domain = 0u64;
    let mut table1 = Vec::new();
    let mut fuzz: VecDeque<Tenant> = VecDeque::new();
    for (i, b) in synergy::workloads::all().iter().enumerate() {
        domain += 1;
        let node = nodes[i % nodes.len()];
        if let Some(t) = admit(
            ctx,
            &mut cluster,
            node,
            Program::table1(&b.name, len),
            domain,
        ) {
            table1.push(t);
        }
    }
    for i in 0..shape.fuzz {
        let Some(design) = designs[i % 2].next() else {
            break;
        };
        domain += 1;
        // Each node gets as many streaming designs as plain ones.
        let node = nodes[(i / 2) % nodes.len()];
        if let Some(t) = admit(ctx, &mut cluster, node, Program::fuzz(design, len), domain) {
            fuzz.push_back(t);
        }
    }
    ctx.e2e().setup_s.push(t0.elapsed().as_secs_f64());

    let mut round_ticks = Vec::new();
    let mut retired = 0u32;
    for round in 0..shape.rounds {
        // Churn: the oldest generated tenants leave (every fourth checked
        // against a standalone run first) and never-seen designs of the same
        // kind take their places.
        for _ in 0..if round > 0 { shape.churn } else { 0 } {
            let Some(old) = fuzz.pop_front() else {
                break;
            };
            let Some(design) = designs[kind(&old)].next() else {
                break;
            };
            retired += 1;
            if retired.is_multiple_of(4) {
                check_standalone(ctx, &cluster, &old);
            }
            let op = ctx.tracer.new_op();
            let t = Instant::now();
            let r = cluster
                .try_node_mut(old.node)
                .and_then(|h| h.disconnect(old.app));
            let d = t.elapsed();
            ctx.tracer.record("hv.disconnect", op, ep_span, t);
            ctx.ops.call("disconnect", r);
            if traced {
                ctx.ledger.program_s += d.as_secs_f64();
                ctx.ledger.measured("hv.disconnect", d.as_secs_f64());
            }
            domain += 1;
            if let Some(t) = admit(
                ctx,
                &mut cluster,
                old.node,
                Program::fuzz(design, len),
                domain,
            ) {
                fuzz.push_back(t);
            }
        }
        let resident = (table1.len() + fuzz.len()) as f64;
        let op = ctx.tracer.new_op();
        let mut round_s = 0.0;
        let mut worst = 0;
        for &id in &nodes {
            let start = Instant::now();
            let before = if traced {
                cluster
                    .try_node(id)
                    .ok()
                    .map(|h| (tenant_counters(&h.metrics()), h.pool_stats()))
            } else {
                None
            };
            ctx.tracing_since(start);
            let Some(hv) = ctx.ops.call("try_node_mut", cluster.try_node_mut(id)) else {
                continue;
            };
            let t = Instant::now();
            let r = hv.run_round(1.0);
            let d = t.elapsed();
            ctx.tracer.record("hv.run_round", op, ep_span, t);
            ctx.ops.call("run_round", r);
            round_s += d.as_secs_f64();
            worst = worst.max(hv.last_round_ticks());
            if let Some((c0, p0)) = before {
                let start = Instant::now();
                let hv = cluster.try_node(id).expect("node exists");
                let c1 = tenant_counters(&hv.metrics());
                let host_ns = credit_ticks(&c0, &c1, |_, _| false, &mut ctx.acc);
                let s = d.as_secs_f64();
                ctx.ledger.program_s += s;
                // Tenant jobs overlap on the workers: they cover host/workers
                // of the round's wall; the rest (plan, fan-out, join, idle
                // workers) is the scheduler's own time.
                let covered = (host_ns * 1e-9 / shape.workers as f64).min(s);
                ctx.ledger.measured("runtime.tick.compiled", covered);
                ctx.ledger.derived("hv.run_round_self", s - covered);
                ctx.acc.run_round_ms.push(s * 1e3);
                ctx.acc.busy.0 += host_ns;
                ctx.acc.busy.1 += shape.workers as f64 * s * 1e9;
                if let (Some(p0), Some(p1)) = (p0, hv.pool_stats()) {
                    ctx.acc.pool_steals += p1.steals.saturating_sub(p0.steals) as f64;
                    ctx.acc.pool_parks += p1.parks.saturating_sub(p0.parks) as f64;
                }
                ctx.acc.pool_rounds += 1.0;
                ctx.tracing_since(start);
            }
        }
        round_ticks.push(worst);
        let e = ctx.e2e();
        e.round_ms.push(round_s * 1e3);
        e.tenant_rounds += resident;
        ctx.sample_reference();
    }

    // End of episode: the drill (generated designs may be outside the
    // transform's envelope, and `live_migrate` deploys on the target, so
    // only Table-1 tenants migrate), then no quarantine, nobody lost, and
    // sampled tenants match a standalone compiled-tier re-run.
    drill(ctx, &cluster, |name| !name.starts_with("fuzz"));
    let mut survivors = 0;
    for &id in &nodes {
        if let Ok(hv) = cluster.try_node(id) {
            survivors += hv.tenant_count();
            ctx.ops.check(hv.quarantined().is_empty(), || {
                format!("node {}: quarantined {:?}", id.0, hv.quarantined())
            });
        }
    }
    let sample = rng.below(table1.len() as u64) as usize;
    check_standalone(ctx, &cluster, &table1[sample]);
    if let Some(t) = fuzz.back() {
        check_standalone(ctx, &cluster, t);
    }
    let mut v = VirtualReport::new(round_ticks, &cluster);
    v.survivors = survivors;
    v.expected = table1.len() + fuzz.len();
    ctx.virtual_report(v);
    ctx.tracer.close(ep_span);
}

/// `--fuzz-pool <count>`: the first `count` generator seeds of each kind
/// (reading an input stream, or not) whose designs run 0.8–2.5 µs per tick
/// on the regalloc tier (best of three 256-tick batches after a 16-tick
/// warm-up), printed as the [`STREAM_POOL`] and [`PLAIN_POOL`] arrays. The
/// selection is host-timed, so run it on a quiet host and commit its output.
pub fn fuzz_pool(count: usize) -> String {
    let mut pools = [Vec::new(), Vec::new()];
    for seed in 0..20_000u64 {
        if pools.iter().all(|p| p.len() >= count) {
            break;
        }
        let program = Program::fuzz(seed, 1 << 12);
        let pool = &mut pools[program.input.is_none() as usize];
        if pool.len() >= count {
            continue;
        }
        let Ok(mut rt) = program.runtime("pool", EnginePolicy::Compiled) else {
            continue;
        };
        let (warm, d) = timed(|| rt.run_ticks(16));
        if warm.is_err() || d > Duration::from_millis(1) {
            continue;
        }
        let mut best = f64::MAX;
        for _ in 0..3 {
            let (r, d) = timed(|| rt.run_ticks(256));
            if r.is_err() {
                best = f64::MAX;
                break;
            }
            best = best.min(d.as_secs_f64() * 1e9 / 256.0);
        }
        if (800.0..=2500.0).contains(&best) {
            pool.push(seed);
        }
    }
    let mut out = String::new();
    for (name, pool) in ["STREAM_POOL", "PLAIN_POOL"].iter().zip(&pools) {
        let body: Vec<String> = pool.iter().map(|s| s.to_string()).collect();
        out.push_str(&format!(
            "const {}: [u64; {}] = [{}];\n",
            name,
            pool.len(),
            body.join(", ")
        ));
    }
    out
}
