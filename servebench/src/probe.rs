//! Layer probe: times the public entry point of each layer on one program,
//! outside any fleet. The traced run multiplies these per-call costs by the
//! call counts it observed (an estimate, labelled as one); `--probe-table`
//! prints them for the six Table-1 programs plus `Worker`.

use crate::common::{timed, Program};
use std::time::Duration;
use synergy::{
    BitstreamCache, CompiledSim, Device, DomainId, EnginePolicy, Hypervisor, SynthOptions,
    TransformOptions,
};

/// Per-call host costs of one program's layers.
#[derive(Debug, Clone, Default)]
pub struct ProgramCost {
    pub vlog_us: f64,
    pub lower_us: f64,
    pub opt_us: f64,
    pub opt_rewrites: f64,
    pub translate_us: f64,
    pub with_policy_us: f64,
    pub transform_us: f64,
    pub synth_us: f64,
    /// `Hypervisor::deploy` with the bitstream already cached.
    pub deploy_us: f64,
    pub tick_ns_hardware: f64,
    pub tick_ns_compiled: f64,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median over `reps` runs of `f`.
fn median_us(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..reps).map(|_| f()).collect();
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// Measures every layer's entry point on `prog`. `hardware` adds the fabric
/// layers (transform, synth, deploy, hardware ticks). Errors name the layer.
pub fn probe(prog: &Program, hardware: bool, reps: usize) -> Result<ProgramCost, String> {
    let err = |layer: &'static str| {
        move |e: synergy::VlogError| format!("{} {}: {}", prog.name, layer, e)
    };
    let design = synergy::vlog::compile(&prog.source, &prog.top).map_err(err("vlog"))?;
    let lowered = synergy::codegen::compile(&design).map_err(err("codegen"))?;
    let mut c = ProgramCost {
        vlog_us: median_us(reps, || {
            us(timed(|| synergy::vlog::compile(&prog.source, &prog.top)).1)
        }),
        lower_us: median_us(reps, || us(timed(|| synergy::codegen::compile(&design)).1)),
        ..ProgramCost::default()
    };
    let mut optimized = lowered.clone();
    c.opt_rewrites = synergy::opt::optimize(&mut optimized).total_rewrites() as f64;
    c.opt_us = median_us(reps, || {
        let mut p = lowered.clone();
        us(timed(|| synergy::opt::optimize(&mut p)).1)
    });
    c.translate_us = median_us(reps, || {
        let p = optimized.clone();
        us(timed(|| CompiledSim::new(p)).1)
    });
    c.with_policy_us = median_us(reps, || {
        us(timed(|| prog.runtime("probe", EnginePolicy::Compiled)).1)
    });
    let ticks = 2048;
    let mut rt = prog
        .runtime("probe", EnginePolicy::Compiled)
        .map_err(err("runtime"))?;
    let (r, d) = timed(|| rt.run_ticks(ticks));
    r.map_err(err("compiled ticks"))?;
    c.tick_ns_compiled = d.as_secs_f64() * 1e9 / ticks as f64;

    if hardware {
        let device = Device::de10();
        c.transform_us = median_us(reps, || {
            us(timed(|| synergy::transform_design(&design, TransformOptions::default())).1)
        });
        let t = synergy::transform_design(&design, TransformOptions::default())
            .map_err(err("transform"))?;
        let options = SynthOptions::synergy(
            &device,
            t.state.captured_bits() as u64,
            t.state.vars.len() as u64,
        );
        c.synth_us = median_us(reps, || {
            let cache = BitstreamCache::new();
            us(timed(|| cache.compile(&t.source, &t.elab, &device, options)).1)
        });
        let mut hv = Hypervisor::new(device);
        hv.set_engine_policy(EnginePolicy::Auto);
        let mut deploys = Vec::new();
        let mut last = None;
        for i in 0..reps + 1 {
            let rt = prog
                .runtime(&format!("probe{}", i), EnginePolicy::Auto)
                .map_err(err("runtime"))?;
            let id = hv.connect(rt, DomainId(i as u64 + 1), false);
            let (r, d) = timed(|| hv.deploy(id));
            r.map_err(|e| format!("{} deploy: {}", prog.name, e))?;
            // The first deploy misses the bitstream cache; the rest hit it,
            // as repeated admissions of one program do.
            if i > 0 {
                deploys.push(us(d));
            }
            last = Some(id);
            if i < reps {
                hv.disconnect(id)
                    .map_err(|e| format!("{} disconnect: {}", prog.name, e))?;
            }
        }
        deploys.sort_by(|a, b| a.total_cmp(b));
        c.deploy_us = deploys[deploys.len() / 2];
        let id = last.expect("at least one deploy");
        let hw_ticks = 64;
        let rt = hv.app_mut(id).map_err(|e| e.to_string())?;
        let (r, d) = timed(|| rt.run_ticks(hw_ticks));
        r.map_err(err("hardware ticks"))?;
        c.tick_ns_hardware = d.as_secs_f64() * 1e9 / hw_ticks as f64;
    }
    Ok(c)
}

/// The committed per-layer table: the six Table-1 programs plus `Worker`.
pub fn table() -> Result<String, String> {
    let mut programs = vec![Program::worker()];
    for b in synergy::workloads::all() {
        programs.push(Program::table1(&b.name, 1 << 12));
    }
    let mut out = String::from(
        "| program | vlog::compile µs | codegen::compile µs | opt::optimize µs | opt rewrites | CompiledSim::new µs | Runtime::with_policy µs | transform µs | BitstreamCache::compile µs | Hypervisor::deploy µs (cached) | hardware ns/tick | regalloc ns/tick | hardware ÷ regalloc |\n|---|---|---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    for p in &programs {
        let c = probe(p, true, 7)?;
        out.push_str(&format!(
            "| {} | {:.1} | {:.1} | {:.1} | {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.0} | {:.0} | {:.0}× |\n",
            p.name,
            c.vlog_us,
            c.lower_us,
            c.opt_us,
            c.opt_rewrites,
            c.translate_us,
            c.with_policy_us,
            c.transform_us,
            c.synth_us,
            c.deploy_us,
            c.tick_ns_hardware,
            c.tick_ns_compiled,
            c.tick_ns_hardware / c.tick_ns_compiled.max(1e-9),
        ));
    }
    Ok(out)
}
