//! The measuring context shared by the workloads, and the checkpoint drill
//! every workload runs: `checkpoint_fleet`, `restore_fleet` into a fresh
//! node, and one `Cluster::live_migrate` off the restored node.

use crate::common::{
    peak_rss_mb, timed, LayerAcc, Ledger, Ops, Program, Samples, Tracer, VirtualReport,
};
use crate::probe::{probe, ProgramCost};
use crate::reference::{reference_ms, NOMINAL_MS};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use synergy::runtime::StateSnapshot;
use synergy::{AppId, Cluster, DomainId, Hypervisor, Runtime};

/// A run cycles its episodes through this many sub-seeds of `--seed`, so
/// its figures average over several inputs rather than hang on one.
pub const SUBSEEDS: usize = 4;

/// The input seed of sub-seed `sub` of a run's `seed`.
pub fn episode_seed(seed: u64, sub: usize) -> u64 {
    seed.wrapping_mul(SUBSEEDS as u64).wrapping_add(sub as u64)
}

/// End-to-end host figures of a run or of one episode.
#[derive(Debug, Default, Clone)]
pub struct E2e {
    pub setup_s: Samples,
    pub round_ms: Samples,
    /// Σ tenants resident over every measured round.
    pub tenant_rounds: f64,
    pub admit_us: Samples,
    pub checkpoint_ms: Samples,
    pub restore_ms: Samples,
    pub migrate_ms: Samples,
    /// Round walls by *slot* — (sub-seed, round index) — across the run's
    /// episodes. Episodes of one sub-seed repeat the same rounds, so a
    /// slot's samples differ only by host noise.
    pub round_slots: BTreeMap<(usize, usize), Samples>,
}

impl E2e {
    /// Appends the samples of `other`, an episode of sub-seed `sub`, with
    /// round times multiplied by `round` and every other time by `call`.
    fn merge(&mut self, other: &E2e, call: f64, round: f64, sub: usize) {
        for (i, v) in other.round_ms.0.iter().enumerate() {
            self.round_slots
                .entry((sub, i))
                .or_default()
                .push(v * round);
        }
        self.round_ms
            .0
            .extend(other.round_ms.0.iter().map(|v| v * round));
        let pairs = [
            (&mut self.setup_s, &other.setup_s),
            (&mut self.admit_us, &other.admit_us),
            (&mut self.checkpoint_ms, &other.checkpoint_ms),
            (&mut self.restore_ms, &other.restore_ms),
            (&mut self.migrate_ms, &other.migrate_ms),
        ];
        for (to, from) in pairs {
            to.0.extend(from.0.iter().map(|v| v * call));
        }
        self.tenant_rounds += other.tenant_rounds;
    }

    /// The median wall of each round slot: the run's rounds with the
    /// host's round-to-round jitter filtered out.
    pub fn slot_medians(&self) -> Samples {
        Samples(self.round_slots.values().map(Samples::median).collect())
    }

    pub fn host_us_per_tenant_round(&self) -> f64 {
        if self.tenant_rounds <= 0.0 {
            0.0
        } else {
            self.round_ms.sum() * 1e3 / self.tenant_rounds
        }
    }
}

pub struct Ctx {
    /// Whether the run is traced (every episode of a traced run is).
    pub traced: bool,
    /// Self-test: feed the output checks a deliberately wrong expectation.
    pub tamper: bool,
    pub ops: Ops,
    pub tracer: Tracer,
    /// The run's end-to-end figures at the nominal host speed (see
    /// [`crate::reference`]).
    pub e2e: E2e,
    /// The same figures as measured, in wall-clock time.
    pub wall: E2e,
    /// The current episode's wall-clock figures, and its reference samples
    /// on one thread and on a round's threads.
    episode: E2e,
    episode_refs: Samples,
    episode_round_refs: Samples,
    /// Threads a round runs on: the workers of a parallel round. Round
    /// times are rescaled by the reference on this many threads, every
    /// other time by the reference on one thread, because a busy neighbour
    /// slows parallel work more than work on one thread.
    pub round_threads: usize,
    /// Every one-thread reference sample of the run, in ms.
    pub reference_ms: Samples,
    /// Every reference sample on a round's threads, when that is more than
    /// one, in ms.
    pub round_reference_ms: Samples,
    /// Peak resident set of each episode, in MB.
    pub peak_rss_mb: Samples,
    pub acc: LayerAcc,
    pub ledger: Ledger,
    /// The sub-seed of the current episode (see [`SUBSEEDS`]).
    pub sub: usize,
    /// The first virtual report of each sub-seed; later episodes of the
    /// sub-seed must match it.
    pub virt: [Option<VirtualReport>; SUBSEEDS],
    pub episodes: u32,
    /// Wall of the run's episodes, in s.
    pub wall_s: f64,
    /// Host time traced episodes spend on tracing work: registry snapshots
    /// around round calls, span records, the layer probe and codec timing.
    pub trace_s: f64,
    costs: BTreeMap<String, ProgramCost>,
}

impl Ctx {
    pub fn new(trace: bool, tamper: bool) -> Self {
        Ctx {
            traced: trace,
            tamper,
            ops: Ops::default(),
            tracer: Tracer::new(trace),
            e2e: E2e::default(),
            wall: E2e::default(),
            episode: E2e::default(),
            episode_refs: Samples::default(),
            episode_round_refs: Samples::default(),
            round_threads: 1,
            reference_ms: Samples::default(),
            round_reference_ms: Samples::default(),
            peak_rss_mb: Samples::default(),
            acc: LayerAcc::default(),
            ledger: Ledger::default(),
            sub: 0,
            virt: Default::default(),
            episodes: 0,
            wall_s: 0.0,
            trace_s: 0.0,
            costs: BTreeMap::new(),
        }
    }

    /// The current episode's end-to-end figures, in wall-clock time.
    pub fn e2e(&mut self) -> &mut E2e {
        &mut self.episode
    }

    /// Times the reference work once, outside every measured call: on one
    /// thread and, if a round runs on more, on a round's threads.
    pub fn sample_reference(&mut self) {
        self.episode_refs.push(reference_ms(1));
        if self.round_threads > 1 {
            self.episode_round_refs
                .push(reference_ms(self.round_threads));
        }
    }

    /// Closes an episode: its figures join the run's, rescaled by the
    /// episode's median reference walls.
    pub fn end_episode(&mut self, wall_s: f64) {
        let call = NOMINAL_MS / self.episode_refs.median();
        let round = if self.round_threads > 1 {
            NOMINAL_MS / self.episode_round_refs.median()
        } else {
            call
        };
        let ep = std::mem::take(&mut self.episode);
        self.e2e.merge(&ep, call, round, self.sub);
        self.wall.merge(&ep, 1.0, 1.0, self.sub);
        self.reference_ms
            .0
            .append(&mut std::mem::take(&mut self.episode_refs).0);
        self.round_reference_ms
            .0
            .append(&mut std::mem::take(&mut self.episode_round_refs).0);
        self.episodes += 1;
        self.wall_s += wall_s;
        self.peak_rss_mb.push(peak_rss_mb());
    }

    /// Charges the time since `start` to tracing, in a traced episode.
    pub fn tracing_since(&mut self, start: Instant) {
        if self.traced {
            self.trace_s += start.elapsed().as_secs_f64();
        }
    }

    /// Probe costs of `prog`, measured once per run (traced episodes only).
    pub fn cost(&mut self, prog: &Program, hardware: bool) -> ProgramCost {
        if let Some(c) = self.costs.get(&prog.name) {
            return c.clone();
        }
        let start = Instant::now();
        let c = match probe(prog, hardware, 3) {
            Ok(c) => c,
            Err(e) => {
                self.ops.check(false, || format!("layer probe: {}", e));
                ProgramCost::default()
            }
        };
        self.costs.insert(prog.name.clone(), c.clone());
        self.tracing_since(start);
        c
    }

    /// Adds the per-call probe costs of one admission of `c` to the
    /// per-layer means.
    pub fn note_admission(&mut self, c: &ProgramCost, hardware: bool) {
        let a = &mut self.acc;
        a.probe_add("vlog.compile_us", c.vlog_us);
        a.probe_add("codegen.lower_us", c.lower_us);
        a.probe_add("codegen.translate_us", c.translate_us);
        a.probe_add("opt.optimize_us", c.opt_us);
        a.probe_add("opt.rewrites", c.opt_rewrites);
        if hardware {
            a.probe_add("transform.transform_us", c.transform_us);
            a.probe_add("fpga.synth_us", c.synth_us);
            a.probe_add("hv.deploy_us", c.deploy_us);
        }
    }

    /// Records the virtual report of an episode, failing on any drift from
    /// the first episode's (same seed, so it must repeat exactly).
    pub fn virtual_report(&mut self, v: VirtualReport) {
        self.ops.check(v.survivors == v.expected, || {
            format!("tenants lost: {}", v.render())
        });
        match &self.virt[self.sub] {
            None => self.virt[self.sub] = Some(v),
            Some(first) => {
                let first = first.render();
                self.ops.check(*first == v.render(), || {
                    format!(
                        "determinism: virtual report drifted\n  first: {}\n  now:   {}",
                        first,
                        v.render()
                    )
                });
            }
        }
    }
}

fn states(hv: &Hypervisor) -> BTreeMap<String, StateSnapshot> {
    hv.apps()
        .into_iter()
        .filter_map(|id| hv.app(id).ok())
        .map(|rt| (rt.name().to_string(), rt.peek_state()))
        .collect()
}

/// Checkpoints every node of `cluster`, restores each image into a fresh
/// node of a side cluster (checking every tenant's state bit for bit), and
/// live-migrates one tenant of each program off the restored node. The source fleet
/// is only read. `live_migrate` deploys the tenant on the target node, so
/// only tenants whose name `migratable` accepts are candidates.
pub fn drill(ctx: &mut Ctx, cluster: &Cluster, migratable: fn(&str) -> bool) {
    for id in cluster.node_ids() {
        let Some(node) = ctx.ops.call("try_node", cluster.try_node(id)) else {
            continue;
        };
        let tenants = node.tenant_count();
        if tenants == 0 {
            continue;
        }
        let op = ctx.tracer.new_op();
        let t = Instant::now();
        let bytes = node.checkpoint_fleet();
        let ck = t.elapsed();
        ctx.ops.ok();
        ctx.tracer.record("hv.checkpoint_fleet", op, None, t);

        let mut side = Cluster::new();
        let a = side.add_node(node.device().clone());
        let b = side.add_node(node.device().clone());
        let t = Instant::now();
        let restored = side.try_node_mut(a).and_then(|h| h.restore_fleet(&bytes));
        let rs = t.elapsed();
        ctx.tracer.record("hv.restore_fleet", op, None, t);
        let Some(ids) = ctx.ops.call("restore_fleet", restored) else {
            continue;
        };
        let source = states(node);
        let copy = states(side.try_node(a).expect("side node exists"));
        ctx.ops.check(source == copy, || {
            format!(
                "restore_fleet: node {} restored state differs from source",
                id.0
            )
        });

        // One live migration per program on the node (its oldest tenant),
        // so the drill's cost does not hang on a seeded pick.
        let side_a = side.try_node(a).expect("side node exists");
        let mut picks: BTreeMap<String, AppId> = BTreeMap::new();
        for &app in &ids {
            if let Ok(rt) = side_a.app(app) {
                let program = rt.name().split('-').next().unwrap_or("").to_string();
                if migratable(rt.name()) {
                    picks.entry(program).or_insert(app);
                }
            }
        }
        let mut mg = Duration::ZERO;
        for pick in picks.into_values() {
            let before = side
                .try_node(a)
                .and_then(|h| h.app(pick))
                .map(|rt| (rt.name().to_string(), rt.peek_state()));
            let t = Instant::now();
            let moved = side.live_migrate(a, pick, b, DomainId(1 << 40 | pick.0), false);
            let d = t.elapsed();
            mg += d;
            ctx.tracer.record("cluster.live_migrate", op, None, t);
            ctx.e2e().migrate_ms.push(d.as_secs_f64() * 1e3);
            if let (Some((new_id, _)), Ok((name, state))) =
                (ctx.ops.call("live_migrate", moved), before)
            {
                let after = side
                    .try_node(b)
                    .and_then(|h| h.app(new_id))
                    .map(|rt| (rt.name().to_string(), rt.peek_state()));
                let same = matches!(&after, Ok((n, s)) if *n == name && *s == state);
                ctx.ops.check(same, || {
                    format!("live_migrate: tenant {} changed state in flight", name)
                });
            }
        }

        let e = ctx.e2e();
        e.checkpoint_ms.push(ck.as_secs_f64() * 1e3);
        e.restore_ms.push(rs.as_secs_f64() * 1e3);
        if ctx.traced {
            let start = Instant::now();
            let n = tenants as f64;
            ctx.acc
                .checkpoint_us_per_tenant
                .push(ck.as_secs_f64() * 1e6 / n);
            ctx.acc
                .restore_us_per_tenant
                .push(rs.as_secs_f64() * 1e6 / n);
            ctx.ledger.program_s += (ck + rs + mg).as_secs_f64();
            ctx.ledger.measured("hv.checkpoint_fleet", ck.as_secs_f64());
            ctx.ledger.measured("hv.restore_fleet", rs.as_secs_f64());
            ctx.ledger.measured("hv.live_migrate", mg.as_secs_f64());
            // Tenant codec costs, on the side fleet's throwaway copies.
            let side_a = side.try_node(a).expect("side node exists");
            for app in side_a.apps() {
                let Ok(rt) = side_a.app(app) else { continue };
                let (bytes, enc) = timed(|| rt.save_checkpoint());
                let (back, dec) = timed(|| Runtime::restore_checkpoint(&bytes));
                ctx.ops.call("restore_checkpoint", back);
                ctx.acc.encode_us.push(enc.as_secs_f64() * 1e6);
                ctx.acc.decode_us.push(dec.as_secs_f64() * 1e6);
                ctx.acc.ckpt_bytes.push(bytes.len() as f64);
            }
            ctx.tracing_since(start);
        }
    }
}
