//! Control-plane workloads (`fabric_serve`, `admit_churn`): a `ControlPlane`
//! fleet under `EnginePolicy::Auto`, seeded churn, and a seeded `FaultPlan`.

use crate::bench::{drill, Ctx};
use crate::common::{
    credit_ticks, label, tenant_counters, ControlTotals, Program, Rng, TenantCounters,
    VirtualReport,
};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;
use synergy::{
    ControlConfig, ControlPlane, Device, EnginePolicy, ExecMode, FaultKind, FaultPlan, Registry,
    TenantSpec,
};

/// How tenants come and go. Both keep the fleet's size and program mix the
/// same from round to round, so seeds move *which* tenants churn and where
/// faults land, not how much work an episode is.
pub enum Churn {
    /// From round 1 on, `per_round` seeded picks among the older half of the
    /// fleet depart, each replaced by a new tenant of the same program.
    Replace { per_round: usize },
    /// `arrivals` tenants arrive every round and each departs `lifetime`
    /// rounds later.
    Waves { arrivals: usize, lifetime: u64 },
}

/// The shape of one control-plane episode.
pub struct CpShape {
    pub devices: Vec<Device>,
    /// Tenants cycle over these programs.
    pub programs: Vec<Program>,
    pub initial: usize,
    pub rounds: u64,
    pub churn: Churn,
    pub round_tick_cap: u64,
    pub checkpoint_interval: u64,
    /// Rounds between checkpoint drills (one more runs at the end).
    pub drill_every: u64,
    /// Software tenants per node; with the watermarks (permille of it) this
    /// makes the rebalancer re-pack a node revived empty after a kill.
    pub capacity: usize,
    pub watermarks: (u32, u32),
    /// Node kills at seeded rounds, each one round past a checkpoint (so
    /// recovery replays exactly one round).
    pub kills: usize,
}

impl CpShape {
    /// The `cluster_serving` shape at benchmark scale: heterogeneous nodes,
    /// four programs, the default tick cap and checkpoint cadence, one
    /// seeded kill after which the rebalancer re-packs the revived node.
    pub fn fabric_serve(scale: f64) -> Self {
        CpShape {
            devices: vec![Device::de10(), Device::de10(), Device::f1()],
            programs: vec![
                Program::worker(),
                Program::table1("bitcoin", 0),
                Program::table1("mips32", 0),
                Program::table1("df", 0),
            ],
            initial: (16.0 * scale).round().max(4.0) as usize,
            rounds: (12.0 * scale).round().max(6.0) as u64,
            churn: Churn::Replace { per_round: 1 },
            round_tick_cap: ControlConfig::default().round_tick_cap,
            checkpoint_interval: ControlConfig::default().checkpoint_interval,
            drill_every: 3,
            capacity: 8,
            watermarks: (500, 300),
            kills: 1,
        }
    }

    /// Build and teardown: one `Worker` program, tenants living two rounds,
    /// a small tick cap, frequent checkpoints, recurring kills.
    pub fn admit_churn(scale: f64) -> Self {
        CpShape {
            devices: vec![Device::de10(), Device::f1()],
            programs: vec![Program::worker()],
            initial: (40.0 * scale).round().max(2.0) as usize,
            rounds: (16.0 * scale).round().max(6.0) as u64,
            churn: Churn::Waves {
                arrivals: (40.0 * scale).round().max(2.0) as usize,
                lifetime: 2,
            },
            round_tick_cap: 2,
            checkpoint_interval: 2,
            drill_every: 8,
            capacity: 200,
            watermarks: (350, 250),
            kills: 3,
        }
    }

    fn fault_plan(&self, seed: u64) -> FaultPlan {
        let mut rng = Rng::new(seed ^ 0x6b11);
        let mut plan = FaultPlan::none();
        let candidates: Vec<u64> = (1..)
            .map(|c| c * self.checkpoint_interval + 1)
            .take_while(|&r| r < self.rounds)
            .collect();
        let chunk = (candidates.len() / self.kills.max(1)).max(1);
        for (k, slice) in candidates.chunks(chunk).take(self.kills).enumerate() {
            let round = slice[rng.below(slice.len() as u64) as usize];
            // Kills walk the nodes in order: which node dies changes the
            // work recovery does, so it stays the same for every seed.
            plan.push(round, FaultKind::KillNode(k % self.devices.len()));
        }
        plan
    }
}

struct Alive {
    name: String,
    program: usize,
    born: u64,
}

/// Checks a `Worker` tenant's invariant: `acc == 3 × ticks lived`.
fn check_worker(ctx: &mut Ctx, cp: &ControlPlane, name: &str) {
    let per_tick = if ctx.tamper { 4 } else { 3 };
    let state = cp.find_tenant(name).and_then(|(node, app)| {
        let rt = cp.cluster().try_node(node).ok()?.app(app).ok()?;
        Some((rt.get_bits("acc").ok()?.to_u64(), rt.ticks()))
    });
    let ok = matches!(state, Some((acc, ticks)) if acc == (per_tick * ticks) & 0xffff_ffff);
    ctx.ops.check(ok, || {
        format!(
            "worker {}: acc/ticks = {:?}, want acc == {} × ticks",
            name, state, per_tick
        )
    });
}

/// Admission and deploy counters per node, for deltas across node resets.
#[derive(Default)]
struct AdmissionTracker {
    last: BTreeMap<(String, String), u64>,
}

impl AdmissionTracker {
    /// Folds the registry's `hv_admissions_total{cache}` into hit/miss
    /// deltas. A counter that went backwards belongs to a node that was
    /// reset; it counts from zero.
    fn advance(&mut self, reg: &Registry, ctx: &mut Ctx) {
        let mut now = BTreeMap::new();
        for (k, v) in reg.iter(synergy::Namespace::Det) {
            if k.name != "hv_admissions_total" {
                continue;
            }
            let get = |key| label(&k.labels, key).unwrap_or("").to_string();
            if let synergy::telemetry::MetricValue::Counter(c) = v {
                now.insert((get("node"), get("cache")), *c);
            }
        }
        for (key, &c) in &now {
            let prev = self.last.get(key).copied().unwrap_or(0);
            let d = if c < prev { c } else { c - prev } as f64;
            if key.1 == "hit" {
                ctx.acc.deploy_hits += d;
            } else {
                ctx.acc.deploy_misses += d;
            }
        }
        self.last = now;
    }
}

pub fn episode(ctx: &mut Ctx, shape: &CpShape, seed: u64) {
    let costs: Vec<_> = if ctx.traced {
        shape.programs.iter().map(|p| ctx.cost(p, true)).collect()
    } else {
        Vec::new()
    };
    let traced = ctx.traced;
    let episode_op = ctx.tracer.new_op();
    let ep_span = ctx.tracer.open("episode", episode_op);
    let t0 = Instant::now();
    let mut cp = ControlPlane::new(ControlConfig {
        round_tick_cap: shape.round_tick_cap,
        checkpoint_interval: shape.checkpoint_interval,
        software_capacity: Some(shape.capacity),
        high_watermark: shape.watermarks.0,
        low_watermark: shape.watermarks.1,
        ..ControlConfig::default()
    });
    cp.set_engine_policy(EnginePolicy::Auto);
    for d in &shape.devices {
        cp.add_node(d.clone());
    }
    cp.set_fault_plan(shape.fault_plan(seed));
    let mut rng = Rng::new(seed);
    let mut alive: VecDeque<Alive> = VecDeque::new();
    let mut next = 0usize;
    let mut admissions = AdmissionTracker::default();
    let mut counters: Option<TenantCounters> = None;

    let mut admit = |ctx: &mut Ctx,
                     cp: &mut ControlPlane,
                     alive: &mut VecDeque<Alive>,
                     round: u64,
                     program: usize| {
        let p = &shape.programs[program];
        let name = format!("{}-{:05}", p.name, next);
        let spec = TenantSpec {
            name: name.clone(),
            source: p.source.clone(),
            top: p.top.clone(),
            clock: p.clock.clone(),
            domain: next as u64 + 1,
            io_bound: false,
        };
        next += 1;
        let op = ctx.tracer.new_op();
        let misses0 = cp.cluster().cache().stats().misses;
        let t = Instant::now();
        let placed = cp.admit(spec);
        let d = t.elapsed();
        ctx.tracer.record("control.admit", op, ep_span, t);
        ctx.e2e().admit_us.push(d.as_secs_f64() * 1e6);
        let Some((node, app)) = ctx.ops.call("admit", placed) else {
            return;
        };
        alive.push_back(Alive {
            name,
            program,
            born: round,
        });
        if traced {
            let start = Instant::now();
            let deployed = matches!(
                cp.cluster()
                    .try_node(node)
                    .and_then(|h| h.app(app))
                    .map(|rt| rt.mode()),
                Ok(ExecMode::Hardware(_))
            );
            let missed = cp.cluster().cache().stats().misses > misses0;
            let c = &costs[program];
            ctx.acc.admit_us.push(d.as_secs_f64() * 1e6);
            ctx.note_admission(c, deployed);
            ctx.ledger.program_s += d.as_secs_f64();
            let mut parts = vec![
                ("vlog", c.vlog_us * 1e-6),
                ("codegen", (c.lower_us + c.translate_us) * 1e-6),
                ("opt", c.opt_us * 1e-6),
            ];
            if deployed {
                parts.push(("transform", c.transform_us * 1e-6));
                parts.push(("hv.deploy", (c.deploy_us - c.transform_us).max(0.0) * 1e-6));
                if missed {
                    parts.push(("fpga", c.synth_us * 1e-6));
                }
            }
            ctx.ledger.decompose(d.as_secs_f64(), &parts);
            ctx.tracing_since(start);
        }
    };

    for i in 0..shape.initial {
        admit(ctx, &mut cp, &mut alive, 0, i % shape.programs.len());
    }
    let setup = t0.elapsed();
    ctx.e2e().setup_s.push(setup.as_secs_f64());

    let mut round_ticks = Vec::new();
    for round in 0..shape.rounds {
        let mut gone: Vec<Alive> = Vec::new();
        match shape.churn {
            Churn::Replace { per_round } if round > 0 => {
                for _ in 0..per_round.min(alive.len()) {
                    let i = rng.below(alive.len() as u64 / 2 + 1) as usize;
                    gone.extend(alive.remove(i));
                }
            }
            Churn::Replace { .. } => {}
            Churn::Waves { arrivals, lifetime } => {
                while alive.front().is_some_and(|a| round >= a.born + lifetime) {
                    gone.extend(alive.pop_front());
                }
                if round > 0 {
                    for i in 0..arrivals {
                        admit(ctx, &mut cp, &mut alive, round, i % shape.programs.len());
                    }
                }
            }
        }
        for a in gone {
            if shape.programs[a.program].name == "Worker" {
                check_worker(ctx, &cp, &a.name);
            }
            let op = ctx.tracer.new_op();
            let t = Instant::now();
            let r = cp.depart(&a.name);
            let d = t.elapsed();
            ctx.tracer.record("control.depart", op, ep_span, t);
            ctx.ops.call("depart", r);
            if traced {
                ctx.acc.depart_us.push(d.as_secs_f64() * 1e6);
                ctx.ledger.program_s += d.as_secs_f64();
                ctx.ledger.measured("control.depart", d.as_secs_f64());
            }
            if matches!(shape.churn, Churn::Replace { .. }) {
                admit(ctx, &mut cp, &mut alive, round, a.program);
            }
        }

        let tenants = cp.tenants();
        let resident = tenants.len() as f64;
        let deployed: BTreeMap<(String, String), bool> = tenants
            .iter()
            .map(|t| ((t.node.0.to_string(), t.app.0.to_string()), t.deployed))
            .collect();
        if traced {
            let start = Instant::now();
            let reg = cp.cluster().metrics();
            admissions.advance(&reg, ctx);
            counters = Some(tenant_counters(&reg));
            ctx.tracing_since(start);
        }
        let recoveries = cp.recoveries().len();
        let op = ctx.tracer.new_op();
        let t = Instant::now();
        let r = cp.step();
        let d = t.elapsed();
        ctx.tracer.record("control.step", op, ep_span, t);
        ctx.ops.call("step", r);
        let e = ctx.e2e();
        e.round_ms.push(d.as_secs_f64() * 1e3);
        e.tenant_rounds += resident;
        ctx.sample_reference();
        round_ticks.push(
            cp.cluster()
                .node_ids()
                .into_iter()
                .filter_map(|id| cp.cluster().try_node(id).ok().map(|h| h.last_round_ticks()))
                .max()
                .unwrap_or(0),
        );
        if traced {
            let start = Instant::now();
            let reg = cp.cluster().metrics();
            admissions.advance(&reg, ctx);
            let after = tenant_counters(&reg);
            let step_s = d.as_secs_f64();
            ctx.ledger.program_s += step_s;
            if cp.recoveries().len() > recoveries {
                // A node reset zeroes its counters: the whole step is recovery.
                ctx.acc.recover_ms.push(step_s * 1e3);
                ctx.ledger.measured("control.recover", step_s);
            } else {
                let before = counters.take().unwrap_or_default();
                let (hw0, sw0) = (ctx.acc.hw_host_ns, ctx.acc.compiled_host_ns);
                let host_ns = credit_ticks(
                    &before,
                    &after,
                    |node, app| {
                        deployed
                            .get(&(node.to_string(), app.to_string()))
                            .copied()
                            .unwrap_or(false)
                    },
                    &mut ctx.acc,
                );
                let hw = (ctx.acc.hw_host_ns - hw0) * 1e-9;
                let sw = (ctx.acc.compiled_host_ns - sw0) * 1e-9;
                ctx.ledger.measured("runtime.tick.hardware", hw);
                ctx.ledger.measured("runtime.tick.compiled", sw);
                let self_s = (step_s - host_ns * 1e-9).max(0.0);
                ctx.ledger.derived("control.step_self", self_s);
                ctx.acc.step_self_ms.push(self_s * 1e3);
                ctx.acc.busy.0 += host_ns;
                ctx.acc.busy.1 += step_s * 1e9;
            }
            ctx.tracing_since(start);
        }
        if (round + 1) % shape.drill_every == 0 && round + 1 < shape.rounds {
            drill(ctx, cp.cluster(), |_| true);
        }
    }

    // End of episode: every survivor is checked, then a last drill.
    let tenants = cp.tenants();
    for t in &tenants {
        ctx.ops
            .check(!t.quarantined, || format!("tenant {} quarantined", t.name));
    }
    for a in &alive {
        if shape.programs[a.program].name == "Worker" {
            check_worker(ctx, &cp, &a.name);
        }
    }
    ctx.ops.check(cp.lost_tenants().is_empty(), || {
        format!("control plane lost tenants: {:?}", cp.lost_tenants())
    });
    drill(ctx, cp.cluster(), |_| true);

    let mut v = VirtualReport::new(round_ticks, cp.cluster());
    v.migrations = cp.migrations();
    v.recoveries = cp.recoveries().len() as u64;
    v.replayed_rounds = cp.recoveries().iter().map(|r| r.replayed_rounds).sum();
    v.survivors = tenants.len();
    v.expected = alive.len();
    if traced {
        let stats = cp.cluster().cache().stats();
        ctx.acc.bitstream_hits += stats.hits as f64;
        ctx.acc.bitstream_misses += stats.misses as f64;
        ctx.acc.control.push(ControlTotals {
            recoveries: v.recoveries as f64,
            replayed_rounds: v.replayed_rounds as f64,
            checkpoints: cp.events().iter().filter(|e| e.tag == "checkpoint").count() as f64,
            migrations: cp.migrations() as f64,
            migration_failures: cp.migration_failures() as f64,
        });
    }
    ctx.virtual_report(v);
    ctx.tracer.close(ep_span);
}
