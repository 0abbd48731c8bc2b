//! The word-level executor for register-allocated programs: the runtime of
//! the compiled engine.
//!
//! State layout (see also the crate docs):
//!
//! * `net_w: Vec<u64>` — scalar nets at most 64 bits wide, untagged, masked
//!   to their declared width; `net_b: Vec<Val>` holds the (rare) wider nets
//!   at the same indices.
//! * `mems` — one flat `Vec<u64>` per memory whose element width fits a
//!   word, `Vec<Val>` otherwise.
//! * `words: Vec<u64>` / `bigs: Vec<Val>` — the register arenas, sized to
//!   the largest allocation any translated program needs and shared by all
//!   of them (registers are dead across program boundaries).
//!
//! Combinational re-evaluation is driven by a **level-bucketed worklist**:
//! marking a node dirty pushes its position into the bucket for its
//! topological level, and `propagate` drains buckets in ascending level
//! order. A node's stores only ever mark strictly deeper levels (or itself,
//! which the post-execution dirty-clear absorbs), so one sweep reaches the
//! fixpoint while touching exactly the dirty cone — never the whole node
//! array.
//!
//! Scheduling semantics (evaluate/update fixpoint, edge detection, settle
//! caps, error strings) mirror the reference interpreter exactly; the
//! differential and fuzz suites hold the two to bit-identical snapshots.

use crate::ir::{mask, CompiledProgram, Op, SlotRef, Val, MAX_LOOP_ITERS};
use crate::regalloc::{translate_body, translate_expr, translate_stmt, Class, WOp, WordProg};
use std::collections::BTreeMap;
use synergy_interp::{StateSnapshot, SystemEnv, Value};
use synergy_vlog::ast::Edge;
use synergy_vlog::{Bits, VlogError, VlogResult};

/// Upper bound on evaluate-loop iterations, mirroring the interpreter.
const MAX_PROPAGATION_ITERS: usize = 10_000;

/// Upper bound on evaluate/update rounds per settle, mirroring the
/// interpreter's cap (same limit, same error text) so self-triggering
/// designs fail identically on both engines.
const MAX_SETTLE_ITERS: usize = 1_000;

/// A no-op environment for guard evaluation and post-restore propagation,
/// mirroring the interpreter's `NullEnv`.
struct NoopEnv;

impl SystemEnv for NoopEnv {
    fn print(&mut self, _text: &str) {}
    fn fopen(&mut self, _path: &str) -> u32 {
        0
    }
    fn fread(&mut self, _fd: u32, _width: usize) -> Option<Bits> {
        None
    }
    fn feof(&mut self, _fd: u32) -> bool {
        true
    }
    fn fclose(&mut self, _fd: u32) {}
    fn random(&mut self) -> u32 {
        0
    }
}

/// An edge guard: the common whole-net case reads one word directly; the
/// general case runs a translated expression program.
#[derive(Clone)]
enum WGuard {
    /// Guard expression is a bare read of a word-sized net.
    NetW { net: u32, w: u32 },
    /// General guard program; `result` holds the value.
    Prog(WordProg),
}

/// One translated `always` block.
#[derive(Clone)]
struct WAlways {
    guards: Vec<(Edge, WGuard)>,
    star: Vec<SlotRef>,
    body: WordProg,
}

/// A non-blocking latch site: the ubiquitous whole-word-net store runs
/// inline in `update` without dispatching a program.
#[derive(Clone)]
enum WNbSite {
    /// `net <= value`: resize to the net width, compare, mark.
    WordNet {
        net: u32,
        mask: u64,
    },
    Prog(WordProg),
}

/// A combinational node: single-copy shapes run inline in `propagate`.
#[derive(Clone)]
enum WComb {
    /// `assign dst = src` (width-matched or truncating copy).
    CopyNet {
        src: u32,
        dst: u32,
        mask: u64,
    },
    /// `assign dst = src[hi:lo]`.
    SliceNet {
        src: u32,
        hi: u32,
        lo: u32,
        dst: u32,
        mask: u64,
    },
    Prog(WordProg),
}

/// The translated programs plus static scheduling tables.
#[derive(Clone)]
struct WordProgs {
    comb: Vec<WComb>,
    /// Worklist bucket (level - 1) per comb position.
    comb_bucket: Vec<u32>,
    /// Number of level buckets.
    n_levels: usize,
    always: Vec<WAlways>,
    initials: Vec<WordProg>,
    nb_sites: Vec<WNbSite>,
    /// CSR-flattened `net_deps` + `net_driver`: the comb positions to mark
    /// when net `i` changes live at `net_dep_flat[net_dep_off[i]..net_dep_off[i + 1]]`.
    net_dep_off: Vec<u32>,
    net_dep_flat: Vec<u32>,
    /// Same for memories (`mem_deps` + `mem_driver`).
    mem_dep_off: Vec<u32>,
    mem_dep_flat: Vec<u32>,
    /// Nets/memories some guard or `@*` sensitivity list reads: only writes
    /// to these can change edge-detection outcomes.
    guard_nets: Vec<bool>,
    guard_mems: Vec<bool>,
}

/// Records which nets/memories `op` reads (conservatively including store
/// targets, which is harmless for the guard-visibility filter).
fn note_slot_reads(op: &mut WOp, nets: &mut [bool], mems: &mut [bool]) {
    match op {
        WOp::LoadNetW { net, .. }
        | WOp::LoadNetB { net, .. }
        | WOp::NetBinImmW { net, .. }
        | WOp::BinNetW { net, .. }
        | WOp::NetBinW { net, .. }
        | WOp::NetSliceW { net, .. }
        | WOp::BitSelNetW { net, .. }
        | WOp::NetBitConstW { net, .. }
        | WOp::JzNetBinImm { net, .. }
        | WOp::JnzNetBinImm { net, .. }
        | WOp::JzNetBit { net, .. }
        | WOp::JnzNetBit { net, .. }
        | WOp::JzNet { net, .. }
        | WOp::JnzNet { net, .. }
        | WOp::NbNet { net, .. }
        | WOp::NbNetBinImm { net, .. }
        | WOp::FeofNet { net, .. }
        | WOp::FreadNet { net, .. }
        | WOp::StoreNetW { net, .. }
        | WOp::StoreNetImm { net, .. }
        | WOp::StoreNetB { net, .. }
        | WOp::StoreBitW { net, .. }
        | WOp::StoreBitConstW { net, .. }
        | WOp::StoreBitB { net, .. }
        | WOp::StoreSlice { net, .. }
        | WOp::BinStoreNet { net, .. }
        | WOp::BinImmStoreNet { net, .. }
        | WOp::NetBinImmStoreNet { net, .. } => nets[*net as usize] = true,
        WOp::NetBinNetW { neta, netb, .. } | WOp::NetBinNetStoreNet { neta, netb, .. } => {
            nets[*neta as usize] = true;
            nets[*netb as usize] = true;
        }
        WOp::LoadMem0W { mem, .. }
        | WOp::LoadMem0B { mem, .. }
        | WOp::LoadMemW { mem, .. }
        | WOp::LoadMemB { mem, .. }
        | WOp::LoadMemConstW { mem, .. }
        | WOp::LoadMemConstB { mem, .. }
        | WOp::StoreMemW { mem, .. }
        | WOp::StoreMemB { mem, .. }
        | WOp::StoreMemConstW { mem, .. }
        | WOp::StoreMemConstImm { mem, .. }
        | WOp::StoreMemConstB { mem, .. } => mems[*mem as usize] = true,
        _ => {}
    }
}

/// Recognises latch-site and comb-node shapes that run inline.
fn classify_nb(p: WordProg) -> WNbSite {
    if let [WOp::LoadValueReg { dst: a }, WOp::BigToWord { dst: b, src }, WOp::StoreNetW { net, src: c, mask }] =
        p.ops[..]
    {
        if a == src && b == c {
            return WNbSite::WordNet { net, mask };
        }
    }
    WNbSite::Prog(p)
}

fn classify_comb(p: WordProg) -> WComb {
    match p.ops[..] {
        [WOp::LoadNetW { dst: a, net: src }, WOp::StoreNetW {
            net: dst,
            src: b,
            mask,
        }] if a == b => WComb::CopyNet { src, dst, mask },
        [WOp::NetSliceW {
            dst: a,
            net: src,
            hi,
            lo,
        }, WOp::StoreNetW {
            net: dst,
            src: b,
            mask,
        }] if a == b => WComb::SliceNet {
            src,
            hi,
            lo,
            dst,
            mask,
        },
        _ => WComb::Prog(p),
    }
}

/// Flattens per-slot dependency lists (readers plus the optional driver)
/// into one contiguous CSR table.
fn flatten_deps(deps: &[Vec<u32>], drivers: &[Option<u32>]) -> (Vec<u32>, Vec<u32>) {
    let mut off = Vec::with_capacity(deps.len() + 1);
    let mut flat = Vec::new();
    off.push(0);
    for (d, drv) in deps.iter().zip(drivers) {
        flat.extend_from_slice(d);
        if let Some(p) = drv {
            flat.push(*p);
        }
        off.push(flat.len() as u32);
    }
    (off, flat)
}

/// One memory: word-specialized when its element width fits a machine word,
/// `Val`-backed otherwise.
#[derive(Clone)]
struct WMem {
    width: u32,
    msk: u64,
    small: bool,
    w: Vec<u64>,
    b: Vec<Val>,
}

/// A previously observed guard/sensitivity value. The variant is fixed per
/// guard by its static class, so comparisons never cross variants after
/// initialization; equality mirrors `Val` equality (value and width).
#[derive(Clone, PartialEq)]
enum PrevVal {
    W(u64, u32),
    B(Val),
}

impl PrevVal {
    fn bit0(&self) -> bool {
        match self {
            PrevVal::W(v, _) => v & 1 == 1,
            PrevVal::B(v) => v.bit(0),
        }
    }
}

/// Mutable execution state of the regalloc tier.
#[derive(Clone)]
struct WState {
    net_w: Vec<u64>,
    net_b: Vec<Val>,
    mems: Vec<WMem>,
    words: Vec<u64>,
    bigs: Vec<Val>,
    loops: Vec<u64>,
    value_reg: Val,
    print_buf: String,
    nb: Vec<(u32, Val)>,
    comb_dirty: Vec<bool>,
    pending: Vec<Vec<u32>>,
    pending_count: usize,
    guard_prev: Vec<Vec<PrevVal>>,
    triggered_scratch: Vec<u32>,
    /// Bumped whenever any net or memory value changes. Guards read only
    /// nets/memories, so edge detection can be skipped entirely while this
    /// matches `guard_epoch` (the value at the last detection pass).
    write_epoch: u64,
    guard_epoch: u64,
    effects: Vec<synergy_interp::TaskEffect>,
    time: u64,
    finished: Option<u32>,
    initials_run: bool,
    /// Telemetry counters and settle-cap fault detail. Observability only:
    /// never part of `save_state`/`restore_state` or any wire format.
    settle_iters: u64,
    worklist_drains: u64,
    guard_epoch_skips: u64,
    fault: Option<String>,
}

/// The regalloc-tier machine: translated programs plus execution state.
#[derive(Clone)]
pub(crate) struct WordMachine {
    wp: WordProgs,
    st: WState,
}

fn guard_of(code: &[Op], prog: &CompiledProgram) -> Result<WGuard, String> {
    if let [Op::PushNet(i)] = code {
        let w = prog.nets[*i as usize].width;
        if w <= 64 {
            return Ok(WGuard::NetW { net: *i, w });
        }
    }
    Ok(WGuard::Prog(translate_expr(code, prog)?))
}

fn init_prev(class: Class) -> PrevVal {
    match class {
        Class::Word(_) => PrevVal::W(0, 1),
        Class::Big => PrevVal::B(Val::zero(1)),
    }
}

impl WordMachine {
    /// Renders every translated program (debug aid for fusion coverage).
    pub(crate) fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let prog = |name: &str, p: &WordProg| {
            let mut s = String::new();
            let _ = writeln!(s, "== {} (words {}, bigs {})", name, p.n_words, p.n_bigs);
            for (i, op) in p.ops.iter().enumerate() {
                let _ = writeln!(s, "{:4}  {:?}", i, op);
            }
            s
        };
        for (i, a) in self.wp.always.iter().enumerate() {
            for (j, (e, g)) in a.guards.iter().enumerate() {
                match g {
                    WGuard::NetW { net, w } => {
                        out.push_str(&format!(
                            "== always{} guard{} {:?}: NetW net={} w={}\n",
                            i, j, e, net, w
                        ));
                    }
                    WGuard::Prog(pg) => {
                        out.push_str(&prog(&format!("always{} guard{} {:?}", i, j, e), pg))
                    }
                }
            }
            out.push_str(&prog(&format!("always{} body", i), &a.body));
        }
        for (i, c) in self.wp.comb.iter().enumerate() {
            match c {
                WComb::CopyNet { src, dst, mask } => out.push_str(&format!(
                    "== comb{}: CopyNet src={} dst={} mask={:#x}\n",
                    i, src, dst, mask
                )),
                WComb::SliceNet {
                    src, hi, lo, dst, ..
                } => out.push_str(&format!(
                    "== comb{}: SliceNet src={}[{}:{}] dst={}\n",
                    i, src, hi, lo, dst
                )),
                WComb::Prog(p) => out.push_str(&prog(&format!("comb{}", i), p)),
            }
        }
        for (i, c) in self.wp.nb_sites.iter().enumerate() {
            match c {
                WNbSite::WordNet { net, mask } => out.push_str(&format!(
                    "== nb{}: WordNet net={} mask={:#x}\n",
                    i, net, mask
                )),
                WNbSite::Prog(p) => out.push_str(&prog(&format!("nb{}", i), p)),
            }
        }
        for (i, c) in self.wp.initials.iter().enumerate() {
            out.push_str(&prog(&format!("initial{}", i), c));
        }
        out
    }

    /// Translates every program of a lowered design and builds fresh
    /// execution state (registers at declared reset values).
    pub(crate) fn compile(prog: &CompiledProgram) -> Result<WordMachine, String> {
        let comb = prog
            .comb
            .iter()
            .map(|n| translate_stmt(&n.code, prog).map(classify_comb))
            .collect::<Result<Vec<_>, _>>()?;
        let comb_bucket: Vec<u32> = prog
            .comb
            .iter()
            .map(|n| n.level.saturating_sub(1))
            .collect();
        let n_levels = comb_bucket
            .iter()
            .map(|&b| b as usize + 1)
            .max()
            .unwrap_or(0);
        let mut always = Vec::with_capacity(prog.always.len());
        for ap in &prog.always {
            let mut guards = Vec::with_capacity(ap.guards.len());
            for (edge, code) in &ap.guards {
                guards.push((*edge, guard_of(code, prog)?));
            }
            always.push(WAlways {
                guards,
                star: ap.star.clone(),
                body: translate_body(&ap.body, prog)?,
            });
        }
        let initials = prog
            .initials
            .iter()
            .map(|c| translate_stmt(c, prog))
            .collect::<Result<Vec<_>, _>>()?;
        let nb_sites = prog
            .nb_sites
            .iter()
            .map(|c| translate_stmt(c, prog).map(classify_nb))
            .collect::<Result<Vec<_>, _>>()?;

        let mut max_words = 0u32;
        let mut max_bigs = 0u32;
        {
            let mut note = |p: &WordProg| {
                max_words = max_words.max(p.n_words);
                max_bigs = max_bigs.max(p.n_bigs);
            };
            for c in &comb {
                if let WComb::Prog(p) = c {
                    note(p);
                }
            }
            initials.iter().for_each(&mut note);
            for s in &nb_sites {
                if let WNbSite::Prog(p) = s {
                    note(p);
                }
            }
            for a in &always {
                note(&a.body);
                for (_, g) in &a.guards {
                    if let WGuard::Prog(p) = g {
                        note(p);
                    }
                }
            }
        }

        let net_w: Vec<u64> = prog
            .nets
            .iter()
            .map(|n| match &n.init {
                Some(b) if n.width <= 64 => b.to_u64() & mask(n.width),
                _ => 0,
            })
            .collect();
        let net_b: Vec<Val> = prog
            .nets
            .iter()
            .map(|n| {
                if n.width > 64 {
                    match &n.init {
                        Some(b) => Val::from_bits(b),
                        None => Val::zero(n.width as usize),
                    }
                } else {
                    Val::Small(0, 1)
                }
            })
            .collect();
        let mems = prog
            .mems
            .iter()
            .map(|m| {
                let small = m.width <= 64;
                WMem {
                    width: m.width,
                    msk: mask(m.width.min(64)),
                    small,
                    w: if small {
                        vec![0; m.depth as usize]
                    } else {
                        Vec::new()
                    },
                    b: if small {
                        Vec::new()
                    } else {
                        vec![Val::zero(m.width as usize); m.depth as usize]
                    },
                }
            })
            .collect();
        let guard_prev = always
            .iter()
            .map(|a| {
                if a.guards.is_empty() {
                    a.star
                        .iter()
                        .map(|s| match s {
                            SlotRef::Net(i) => {
                                init_prev(class_of_width(prog.nets[*i as usize].width))
                            }
                            SlotRef::Mem(i) => {
                                init_prev(class_of_width(prog.mems[*i as usize].width))
                            }
                        })
                        .collect()
                } else {
                    a.guards
                        .iter()
                        .map(|(_, g)| match g {
                            WGuard::NetW { .. } => PrevVal::W(0, 1),
                            WGuard::Prog(p) => {
                                init_prev(p.result.map(|(c, _)| c).unwrap_or(Class::Word(1)))
                            }
                        })
                        .collect()
                }
            })
            .collect();

        let n_comb = comb.len();
        let mut st = WState {
            net_w,
            net_b,
            mems,
            words: vec![0; max_words as usize],
            bigs: vec![Val::zero(1); max_bigs as usize],
            loops: vec![0; prog.n_loops as usize],
            value_reg: Val::zero(1),
            print_buf: String::new(),
            nb: Vec::new(),
            comb_dirty: vec![false; n_comb],
            pending: vec![Vec::new(); n_levels],
            pending_count: 0,
            guard_prev,
            triggered_scratch: Vec::new(),
            write_epoch: 0,
            guard_epoch: u64::MAX,
            effects: Vec::new(),
            time: 0,
            finished: None,
            initials_run: false,
            settle_iters: 0,
            worklist_drains: 0,
            guard_epoch_skips: 0,
            fault: None,
        };
        let (net_dep_off, net_dep_flat) = flatten_deps(&prog.net_deps, &prog.net_driver);
        let (mem_dep_off, mem_dep_flat) = flatten_deps(&prog.mem_deps, &prog.mem_driver);
        let mut guard_nets = vec![false; prog.nets.len()];
        let mut guard_mems = vec![false; prog.mems.len()];
        for a in &always {
            for s in &a.star {
                match s {
                    SlotRef::Net(i) => guard_nets[*i as usize] = true,
                    SlotRef::Mem(i) => guard_mems[*i as usize] = true,
                }
            }
            for (_, g) in &a.guards {
                match g {
                    WGuard::NetW { net, .. } => guard_nets[*net as usize] = true,
                    WGuard::Prog(p) => {
                        for op in &p.ops {
                            let mut op = op.clone();
                            note_slot_reads(&mut op, &mut guard_nets, &mut guard_mems);
                        }
                    }
                }
            }
        }
        let wp = WordProgs {
            comb,
            comb_bucket,
            n_levels,
            always,
            initials,
            nb_sites,
            net_dep_off,
            net_dep_flat,
            mem_dep_off,
            mem_dep_flat,
            guard_nets,
            guard_mems,
        };
        for pos in 0..n_comb {
            mark_comb(&wp, &mut st, pos as u32);
        }
        Ok(WordMachine { wp, st })
    }

    pub(crate) fn time(&self) -> u64 {
        self.st.time
    }

    pub(crate) fn finished(&self) -> Option<u32> {
        self.st.finished
    }

    pub(crate) fn take_effects(&mut self) -> Vec<synergy_interp::TaskEffect> {
        std::mem::take(&mut self.st.effects)
    }

    pub(crate) fn there_are_updates(&self) -> bool {
        !self.st.nb.is_empty()
    }

    pub(crate) fn value_of(&self, prog: &CompiledProgram, slot: SlotRef) -> Value {
        match slot {
            SlotRef::Net(i) => Value::Scalar(self.net_bits(prog, i)),
            SlotRef::Mem(i) => {
                let m = &self.st.mems[i as usize];
                Value::Memory(if m.small {
                    m.w.iter()
                        .map(|&v| Bits::from_u64(m.width as usize, v))
                        .collect()
                } else {
                    m.b.iter().map(Val::to_bits).collect()
                })
            }
        }
    }

    pub(crate) fn bits_of(&self, prog: &CompiledProgram, slot: SlotRef) -> Bits {
        match slot {
            SlotRef::Net(i) => self.net_bits(prog, i),
            SlotRef::Mem(i) => {
                let m = &self.st.mems[i as usize];
                if m.small {
                    Bits::from_u64(m.width as usize, m.w[0])
                } else {
                    m.b[0].to_bits()
                }
            }
        }
    }

    fn net_bits(&self, prog: &CompiledProgram, i: u32) -> Bits {
        if prog.nets[i as usize].width <= 64 {
            Bits::from_u64(
                prog.nets[i as usize].width as usize,
                self.st.net_w[i as usize],
            )
        } else {
            self.st.net_b[i as usize].to_bits()
        }
    }

    /// Writes a scalar net by id and re-wakes its readers (the clock-toggle
    /// fast path; mirrors the interpreter's unconditional re-evaluation).
    pub(crate) fn set_net(&mut self, prog: &CompiledProgram, id: u32, value: &Bits) {
        let width = prog.nets[id as usize].width;
        if width <= 64 {
            self.st.net_w[id as usize] = value.to_u64() & mask(width);
        } else {
            self.st.net_b[id as usize] = Val::from_bits(&value.resize(width as usize));
        }
        mark_net(&self.wp, &mut self.st, id);
    }

    /// Runs `initial` blocks if they have not run yet.
    pub(crate) fn run_initials(
        &mut self,
        prog: &CompiledProgram,
        env: &mut dyn SystemEnv,
    ) -> VlogResult<()> {
        if self.st.initials_run {
            return Ok(());
        }
        self.st.initials_run = true;
        for i in 0..self.wp.initials.len() {
            wexec(prog, &self.wp, &mut self.st, &self.wp.initials[i].ops, env)?;
        }
        Ok(())
    }

    /// Whether `initial` blocks have already executed.
    pub(crate) fn initials_run(&self) -> bool {
        self.st.initials_run
    }

    /// Marks `initial` blocks as executed without running them (state
    /// restore; see `CompiledSim::mark_initials_run`).
    pub(crate) fn mark_initials_run(&mut self) {
        self.st.initials_run = true;
    }

    /// Static three-address instruction count across all translated programs
    /// (see `CompiledSim::word_op_count`).
    pub(crate) fn static_op_count(&self) -> usize {
        let comb: usize = self
            .wp
            .comb
            .iter()
            .map(|c| match c {
                WComb::Prog(p) => p.ops.len(),
                _ => 1,
            })
            .sum();
        let always: usize = self
            .wp
            .always
            .iter()
            .map(|a| {
                a.body.ops.len()
                    + a.guards
                        .iter()
                        .map(|(_, g)| match g {
                            WGuard::NetW { .. } => 1,
                            WGuard::Prog(p) => p.ops.len(),
                        })
                        .sum::<usize>()
            })
            .sum();
        let nb: usize = self
            .wp
            .nb_sites
            .iter()
            .map(|s| match s {
                WNbSite::WordNet { .. } => 1,
                WNbSite::Prog(p) => p.ops.len(),
            })
            .sum();
        let initials: usize = self.wp.initials.iter().map(|p| p.ops.len()).sum();
        comb + always + nb + initials
    }

    /// Cumulative telemetry counters (see `CompiledSim::exec_counters`).
    pub(crate) fn exec_counters(&self) -> crate::exec::ExecCounters {
        crate::exec::ExecCounters {
            settle_iters: self.st.settle_iters,
            worklist_drains: self.st.worklist_drains,
            guard_epoch_skips: self.st.guard_epoch_skips,
            arena_regs: (self.st.net_w.len() + self.st.words.len() + self.st.bigs.len()) as u64,
        }
    }

    /// Settle-cap fault detail (see `CompiledSim::fault_detail`).
    pub(crate) fn fault_detail(&self) -> Option<&str> {
        self.st.fault.as_deref()
    }

    /// Re-evaluates dirty combinational cones, draining the level-bucketed
    /// worklist in ascending level order.
    fn propagate(&mut self, prog: &CompiledProgram, env: &mut dyn SystemEnv) -> VlogResult<()> {
        if self.st.pending_count == 0 {
            return Ok(());
        }
        for lvl in 0..self.wp.n_levels {
            while let Some(pos) = self.st.pending[lvl].pop() {
                self.st.pending_count -= 1;
                self.st.worklist_drains += 1;
                match &self.wp.comb[pos as usize] {
                    WComb::CopyNet { src, dst, mask } => {
                        let new = self.st.net_w[*src as usize] & mask;
                        if self.st.net_w[*dst as usize] != new {
                            self.st.net_w[*dst as usize] = new;
                            mark_net(&self.wp, &mut self.st, *dst);
                        }
                    }
                    WComb::SliceNet {
                        src,
                        hi,
                        lo,
                        dst,
                        mask,
                    } => {
                        let v = self.st.net_w[*src as usize];
                        let shifted = if *lo >= 64 { 0 } else { v >> lo };
                        let new = shifted & crate::ir::mask(hi - lo + 1) & mask;
                        if self.st.net_w[*dst as usize] != new {
                            self.st.net_w[*dst as usize] = new;
                            mark_net(&self.wp, &mut self.st, *dst);
                        }
                    }
                    WComb::Prog(p) => {
                        if let Err(e) = wexec(prog, &self.wp, &mut self.st, &p.ops, env) {
                            // Keep the worklist invariant (dirty nodes stay
                            // queued).
                            self.st.pending[lvl].push(pos);
                            self.st.pending_count += 1;
                            return Err(e);
                        }
                    }
                }
                // Clear after executing: the node's own store re-marks it (as
                // the target's driver), and that self-mark is satisfied.
                self.st.comb_dirty[pos as usize] = false;
            }
            if self.st.pending_count == 0 {
                break;
            }
        }
        Ok(())
    }

    /// Determines which always blocks fire, updating stored guard values —
    /// the same edge-detection algorithm as the interpreter.
    fn collect_triggered(
        &mut self,
        prog: &CompiledProgram,
        triggered: &mut Vec<u32>,
    ) -> VlogResult<()> {
        triggered.clear();
        // No net or memory changed since the last pass: every guard would
        // re-read the same values, fire nothing, and store back the same
        // previous values — skip the whole scan.
        if self.st.write_epoch == self.st.guard_epoch {
            self.st.guard_epoch_skips += 1;
            return Ok(());
        }
        self.st.guard_epoch = self.st.write_epoch;
        for idx in 0..self.wp.always.len() {
            let ap = &self.wp.always[idx];
            if ap.guards.is_empty() {
                let mut fired = false;
                for (eidx, s) in ap.star.iter().enumerate() {
                    let prev = &self.st.guard_prev[idx][eidx];
                    let changed = match (s, prev) {
                        (SlotRef::Net(i), PrevVal::W(pv, pw)) => {
                            let w = prog.nets[*i as usize].width;
                            *pv != self.st.net_w[*i as usize] || *pw != w
                        }
                        (SlotRef::Net(i), PrevVal::B(p)) => *p != self.st.net_b[*i as usize],
                        (SlotRef::Mem(i), PrevVal::W(pv, pw)) => {
                            let m = &self.st.mems[*i as usize];
                            *pv != m.w[0] || *pw != m.width
                        }
                        (SlotRef::Mem(i), PrevVal::B(p)) => *p != self.st.mems[*i as usize].b[0],
                    };
                    if changed {
                        fired = true;
                        self.st.guard_prev[idx][eidx] = match s {
                            SlotRef::Net(i) => {
                                let w = prog.nets[*i as usize].width;
                                if w <= 64 {
                                    PrevVal::W(self.st.net_w[*i as usize], w)
                                } else {
                                    PrevVal::B(self.st.net_b[*i as usize].clone())
                                }
                            }
                            SlotRef::Mem(i) => {
                                let m = &self.st.mems[*i as usize];
                                if m.small {
                                    PrevVal::W(m.w[0], m.width)
                                } else {
                                    PrevVal::B(m.b[0].clone())
                                }
                            }
                        };
                    }
                }
                if fired {
                    triggered.push(idx as u32);
                }
                continue;
            }
            let mut fired = false;
            for eidx in 0..self.wp.always[idx].guards.len() {
                let current = match &self.wp.always[idx].guards[eidx].1 {
                    WGuard::NetW { net, w } => PrevVal::W(self.st.net_w[*net as usize], *w),
                    WGuard::Prog(p) => {
                        match wexec(prog, &self.wp, &mut self.st, &p.ops, &mut NoopEnv) {
                            Ok(()) => match p.result {
                                Some((Class::Word(w), r)) => {
                                    PrevVal::W(self.st.words[r as usize], w)
                                }
                                Some((Class::Big, r)) => {
                                    PrevVal::B(self.st.bigs[r as usize].clone())
                                }
                                None => PrevVal::W(0, 1),
                            },
                            Err(_) => PrevVal::W(0, 1),
                        }
                    }
                };
                let edge = self.wp.always[idx].guards[eidx].0;
                let prev = &mut self.st.guard_prev[idx][eidx];
                fired |= match edge {
                    Edge::Pos => !prev.bit0() && current.bit0(),
                    Edge::Neg => prev.bit0() && !current.bit0(),
                    Edge::Any => *prev != current,
                };
                *prev = current;
            }
            if fired {
                triggered.push(idx as u32);
            }
        }
        Ok(())
    }

    /// Runs evaluation events to a fixed point (the `evaluate` ABI request).
    pub(crate) fn evaluate(
        &mut self,
        prog: &CompiledProgram,
        env: &mut dyn SystemEnv,
    ) -> VlogResult<()> {
        self.run_initials(prog, env)?;
        let mut triggered = std::mem::take(&mut self.st.triggered_scratch);
        let result = (|| -> VlogResult<()> {
            let mut iterations = 0usize;
            loop {
                self.propagate(prog, env)?;
                self.collect_triggered(prog, &mut triggered)?;
                if triggered.is_empty() {
                    return Ok(());
                }
                for &idx in triggered.iter() {
                    if self.st.finished.is_some() {
                        return Ok(());
                    }
                    wexec(
                        prog,
                        &self.wp,
                        &mut self.st,
                        &self.wp.always[idx as usize].body.ops,
                        env,
                    )?;
                    self.propagate(prog, env)?;
                }
                iterations += 1;
                if iterations > MAX_PROPAGATION_ITERS {
                    return Err(VlogError::Elaborate(
                        "always blocks did not stabilise (oscillating design?)".into(),
                    ));
                }
            }
        })();
        self.st.triggered_scratch = triggered;
        result
    }

    /// Latches pending non-blocking assignments (the `update` ABI request).
    /// Returns `true` if any were pending.
    pub(crate) fn update(
        &mut self,
        prog: &CompiledProgram,
        env: &mut dyn SystemEnv,
    ) -> VlogResult<bool> {
        if self.st.nb.is_empty() {
            return Ok(false);
        }
        let mut pending = std::mem::take(&mut self.st.nb);
        for (site, value) in pending.drain(..) {
            match &self.wp.nb_sites[site as usize] {
                WNbSite::WordNet { net, mask } => {
                    // `value_reg` stays untouched: every reader latches its
                    // own value first (Fread, or a `Prog` site below).
                    let new = value.to_u64() & mask;
                    if self.st.net_w[*net as usize] != new {
                        self.st.net_w[*net as usize] = new;
                        mark_net(&self.wp, &mut self.st, *net);
                    }
                }
                WNbSite::Prog(p) => {
                    self.st.value_reg = value;
                    wexec(prog, &self.wp, &mut self.st, &p.ops, env)?;
                }
            }
        }
        // Hand the drained buffer's capacity back so steady-state ticks stay
        // allocation-free.
        if self.st.nb.is_empty() {
            std::mem::swap(&mut pending, &mut self.st.nb);
        }
        Ok(true)
    }

    /// Runs evaluate/update until no more updates are pending.
    pub(crate) fn settle(
        &mut self,
        prog: &CompiledProgram,
        env: &mut dyn SystemEnv,
    ) -> VlogResult<()> {
        for iter in 0..MAX_SETTLE_ITERS {
            self.evaluate(prog, env)?;
            self.st.settle_iters += 1;
            if iter + 1 == MAX_SETTLE_ITERS && !self.st.nb.is_empty() {
                self.st.fault =
                    Some(synergy_interp::fault_from_targets(self.st.nb.iter().map(
                        |(site, _)| prog.nb_site_names[*site as usize].as_str(),
                    )));
            }
            if !self.update(prog, env)? {
                return Ok(());
            }
        }
        Err(VlogError::Elaborate(
            "non-blocking updates did not converge (self-triggering design?)".into(),
        ))
    }

    /// Advances one full virtual clock cycle on a pre-resolved clock net.
    pub(crate) fn tick_net(
        &mut self,
        prog: &CompiledProgram,
        clock: u32,
        env: &mut dyn SystemEnv,
    ) -> VlogResult<()> {
        self.toggle_clock(prog, clock, 1);
        self.settle(prog, env)?;
        self.toggle_clock(prog, clock, 0);
        self.settle(prog, env)?;
        self.st.time += 1;
        Ok(())
    }

    /// Clock-edge delivery without building a `Bits`: the hot half of
    /// `set_net` for a 0/1 value.
    fn toggle_clock(&mut self, prog: &CompiledProgram, id: u32, value: u64) {
        let width = prog.nets[id as usize].width;
        if width <= 64 {
            self.st.net_w[id as usize] = value & mask(width);
        } else {
            self.st.net_b[id as usize] =
                Val::from_bits(&Bits::from_u64(1, value).resize(width as usize));
        }
        mark_net(&self.wp, &mut self.st, id);
    }

    /// Captures the architectural state in the interpreter's snapshot shape.
    pub(crate) fn save_state(&self, prog: &CompiledProgram) -> StateSnapshot {
        let mut values = BTreeMap::new();
        for (name, slot) in &prog.slots {
            let is_register = match slot {
                SlotRef::Net(i) => prog.nets[*i as usize].is_register,
                SlotRef::Mem(i) => prog.mems[*i as usize].is_register,
            };
            if is_register {
                values.insert(name.clone(), self.value_of(prog, *slot));
            }
        }
        StateSnapshot {
            values,
            time: self.st.time,
        }
    }

    /// Restores a previously captured snapshot and re-propagates.
    pub(crate) fn restore_state(&mut self, prog: &CompiledProgram, snapshot: &StateSnapshot) {
        for (name, value) in &snapshot.values {
            match (prog.slot(name), value) {
                (Some(SlotRef::Net(i)), Value::Scalar(b)) => {
                    let width = prog.nets[i as usize].width;
                    if width <= 64 {
                        self.st.net_w[i as usize] = b.to_u64() & mask(width);
                    } else {
                        self.st.net_b[i as usize] = Val::from_bits(b);
                    }
                }
                (Some(SlotRef::Mem(i)), Value::Memory(elems)) => {
                    let m = &mut self.st.mems[i as usize];
                    if m.small {
                        m.w = elems.iter().map(|b| b.to_u64() & m.msk).collect();
                    } else {
                        m.b = elems.iter().map(Val::from_bits).collect();
                    }
                }
                _ => {}
            }
        }
        self.st.time = snapshot.time;
        self.st.write_epoch = self.st.write_epoch.wrapping_add(1);
        for pos in 0..self.wp.comb.len() {
            mark_comb(&self.wp, &mut self.st, pos as u32);
        }
        let _ = self.propagate(prog, &mut NoopEnv);
        self.prime_guards(prog);
    }

    /// Re-seeds edge detection from the current (just-restored) values so the
    /// next evaluate sees no edges — the same restore semantics as the
    /// interpreter's `prime_guards`.
    fn prime_guards(&mut self, prog: &CompiledProgram) {
        for idx in 0..self.wp.always.len() {
            let ap = &self.wp.always[idx];
            if ap.guards.is_empty() {
                let current: Vec<PrevVal> = ap
                    .star
                    .iter()
                    .map(|s| match s {
                        SlotRef::Net(i) => {
                            let w = prog.nets[*i as usize].width;
                            if w <= 64 {
                                PrevVal::W(self.st.net_w[*i as usize], w)
                            } else {
                                PrevVal::B(self.st.net_b[*i as usize].clone())
                            }
                        }
                        SlotRef::Mem(i) => {
                            let m = &self.st.mems[*i as usize];
                            if m.small {
                                PrevVal::W(m.w[0], m.width)
                            } else {
                                PrevVal::B(m.b[0].clone())
                            }
                        }
                    })
                    .collect();
                self.st.guard_prev[idx] = current;
                continue;
            }
            for eidx in 0..self.wp.always[idx].guards.len() {
                let current = match &self.wp.always[idx].guards[eidx].1 {
                    WGuard::NetW { net, w } => PrevVal::W(self.st.net_w[*net as usize], *w),
                    WGuard::Prog(p) => {
                        match wexec(prog, &self.wp, &mut self.st, &p.ops, &mut NoopEnv) {
                            Ok(()) => match p.result {
                                Some((Class::Word(w), r)) => {
                                    PrevVal::W(self.st.words[r as usize], w)
                                }
                                Some((Class::Big, r)) => {
                                    PrevVal::B(self.st.bigs[r as usize].clone())
                                }
                                None => PrevVal::W(0, 1),
                            },
                            Err(_) => PrevVal::W(0, 1),
                        }
                    }
                };
                self.st.guard_prev[idx][eidx] = current;
            }
        }
    }
}

fn class_of_width(w: u32) -> Class {
    if w <= 64 {
        Class::Word(w)
    } else {
        Class::Big
    }
}

#[inline]
fn mark_comb(wp: &WordProgs, st: &mut WState, pos: u32) {
    if !st.comb_dirty[pos as usize] {
        st.comb_dirty[pos as usize] = true;
        st.pending[wp.comb_bucket[pos as usize] as usize].push(pos);
        st.pending_count += 1;
    }
}

/// Marks the readers — and, for a continuously driven net, the driver, so
/// the assigned value wins again as in the interpreter's full re-evaluation
/// — of a changed net, and bumps the write epoch for edge detection.
fn mark_net(wp: &WordProgs, st: &mut WState, net: u32) {
    if wp.guard_nets[net as usize] {
        st.write_epoch = st.write_epoch.wrapping_add(1);
    }
    let lo = wp.net_dep_off[net as usize] as usize;
    let hi = wp.net_dep_off[net as usize + 1] as usize;
    for i in lo..hi {
        mark_comb(wp, st, wp.net_dep_flat[i]);
    }
}

fn mark_mem(wp: &WordProgs, st: &mut WState, mem: u32) {
    if wp.guard_mems[mem as usize] {
        st.write_epoch = st.write_epoch.wrapping_add(1);
    }
    let lo = wp.mem_dep_off[mem as usize] as usize;
    let hi = wp.mem_dep_off[mem as usize + 1] as usize;
    for i in lo..hi {
        mark_comb(wp, st, wp.mem_dep_flat[i]);
    }
}

/// Runs one register-allocated program to completion.
fn wexec(
    prog: &CompiledProgram,
    wp: &WordProgs,
    st: &mut WState,
    code: &[WOp],
    env: &mut dyn SystemEnv,
) -> VlogResult<()> {
    let mut pc = 0usize;
    while pc < code.len() {
        match &code[pc] {
            WOp::MovW { dst, src } => st.words[*dst as usize] = st.words[*src as usize],
            WOp::MovB { dst, src } => {
                if dst != src {
                    let v = st.bigs[*src as usize].clone();
                    st.bigs[*dst as usize] = v;
                }
            }
            WOp::ConstW { dst, imm } => st.words[*dst as usize] = *imm,
            WOp::ConstB { dst, pool } => {
                st.bigs[*dst as usize] = prog.consts[*pool as usize].clone()
            }
            WOp::WordToBig { dst, src, w } => {
                st.bigs[*dst as usize] = Val::Small(st.words[*src as usize], *w)
            }
            WOp::BigToWord { dst, src } => {
                st.words[*dst as usize] = st.bigs[*src as usize].to_u64()
            }
            WOp::TruthB { dst, src } => {
                st.words[*dst as usize] = st.bigs[*src as usize].to_bool() as u64
            }
            WOp::SelW { dst, c, a, b } => {
                let pick = if st.words[*c as usize] != 0 { a } else { b };
                st.words[*dst as usize] = st.words[*pick as usize];
            }
            WOp::SelB { dst, c, a, b } => {
                let pick = if st.words[*c as usize] != 0 { a } else { b };
                st.bigs[*dst as usize] = st.bigs[*pick as usize].clone();
            }
            WOp::LoadNetW { dst, net } => st.words[*dst as usize] = st.net_w[*net as usize],
            WOp::LoadNetB { dst, net } => {
                let v = st.net_b[*net as usize].clone();
                st.bigs[*dst as usize] = v;
            }
            WOp::StoreNetW { net, src, mask } => {
                let new = st.words[*src as usize] & mask;
                if st.net_w[*net as usize] != new {
                    st.net_w[*net as usize] = new;
                    mark_net(wp, st, *net);
                }
            }
            WOp::StoreNetImm { net, imm } => {
                if st.net_w[*net as usize] != *imm {
                    st.net_w[*net as usize] = *imm;
                    mark_net(wp, st, *net);
                }
            }
            WOp::StoreNetB { net, src } => {
                let width = prog.nets[*net as usize].width as usize;
                let new = st.bigs[*src as usize].resize(width);
                if st.net_b[*net as usize] != new {
                    st.net_b[*net as usize] = new;
                    mark_net(wp, st, *net);
                }
            }
            WOp::LoadMem0W { dst, mem } => st.words[*dst as usize] = st.mems[*mem as usize].w[0],
            WOp::LoadMem0B { dst, mem } => {
                let v = st.mems[*mem as usize].b[0].clone();
                st.bigs[*dst as usize] = v;
            }
            WOp::LoadMemW { dst, mem, idx } => {
                let i = st.words[*idx as usize] as usize;
                st.words[*dst as usize] = st.mems[*mem as usize].w.get(i).copied().unwrap_or(0);
            }
            WOp::LoadMemB { dst, mem, idx } => {
                let m = &st.mems[*mem as usize];
                let i = st.words[*idx as usize] as usize;
                let v =
                    m.b.get(i)
                        .cloned()
                        .unwrap_or_else(|| Val::zero(m.width as usize));
                st.bigs[*dst as usize] = v;
            }
            WOp::LoadMemConstW { dst, mem, elem } => {
                st.words[*dst as usize] = st.mems[*mem as usize]
                    .w
                    .get(*elem as usize)
                    .copied()
                    .unwrap_or(0);
            }
            WOp::LoadMemConstB { dst, mem, elem } => {
                let m = &st.mems[*mem as usize];
                let v =
                    m.b.get(*elem as usize)
                        .cloned()
                        .unwrap_or_else(|| Val::zero(m.width as usize));
                st.bigs[*dst as usize] = v;
            }
            WOp::StoreMemW {
                mem,
                idx,
                src,
                mask,
            } => {
                let i = st.words[*idx as usize] as usize;
                let new = st.words[*src as usize] & mask;
                let m = &mut st.mems[*mem as usize];
                let changed = i < m.w.len() && m.w[i] != new;
                if changed {
                    m.w[i] = new;
                    mark_mem(wp, st, *mem);
                }
            }
            WOp::StoreMemB { mem, idx, src } => {
                let i = st.words[*idx as usize] as usize;
                let width = st.mems[*mem as usize].width as usize;
                if i < st.mems[*mem as usize].b.len() {
                    let new = st.bigs[*src as usize].resize(width);
                    let m = &mut st.mems[*mem as usize];
                    let changed = m.b[i] != new;
                    if changed {
                        m.b[i] = new;
                        mark_mem(wp, st, *mem);
                    }
                }
            }
            WOp::StoreMemConstW {
                mem,
                elem,
                src,
                mask,
            } => {
                let i = *elem as usize;
                let new = st.words[*src as usize] & mask;
                let m = &mut st.mems[*mem as usize];
                let changed = i < m.w.len() && m.w[i] != new;
                if changed {
                    m.w[i] = new;
                    mark_mem(wp, st, *mem);
                }
            }
            WOp::StoreMemConstImm { mem, elem, imm } => {
                let i = *elem as usize;
                let m = &mut st.mems[*mem as usize];
                let changed = i < m.w.len() && m.w[i] != *imm;
                if changed {
                    m.w[i] = *imm;
                    mark_mem(wp, st, *mem);
                }
            }
            WOp::StoreMemConstB { mem, elem, src } => {
                let i = *elem as usize;
                let width = st.mems[*mem as usize].width as usize;
                if i < st.mems[*mem as usize].b.len() {
                    let new = st.bigs[*src as usize].resize(width);
                    let m = &mut st.mems[*mem as usize];
                    let changed = m.b[i] != new;
                    if changed {
                        m.b[i] = new;
                        mark_mem(wp, st, *mem);
                    }
                }
            }
            WOp::StoreBitW { net, idx, bit } => {
                let i = st.words[*idx as usize] as usize;
                let width = prog.nets[*net as usize].width as usize;
                if i < width {
                    let new_bit = st.words[*bit as usize] & 1 == 1;
                    let v = &mut st.net_w[*net as usize];
                    let old = (*v >> i) & 1 == 1;
                    if new_bit {
                        *v |= 1 << i;
                    } else {
                        *v &= !(1 << i);
                    }
                    let changed = old != new_bit;
                    if changed {
                        mark_net(wp, st, *net);
                    }
                }
            }
            WOp::StoreBitConstW { net, idx, bit } => {
                let i = *idx as usize;
                let width = prog.nets[*net as usize].width as usize;
                if i < width {
                    let new_bit = st.words[*bit as usize] & 1 == 1;
                    let v = &mut st.net_w[*net as usize];
                    let old = (*v >> i) & 1 == 1;
                    if new_bit {
                        *v |= 1 << i;
                    } else {
                        *v &= !(1 << i);
                    }
                    let changed = old != new_bit;
                    if changed {
                        mark_net(wp, st, *net);
                    }
                }
            }
            WOp::StoreBitB { net, idx, bit } => {
                let i = st.words[*idx as usize] as usize;
                let width = prog.nets[*net as usize].width as usize;
                if i < width {
                    let new_bit = st.words[*bit as usize] & 1 == 1;
                    let changed = match &mut st.net_b[*net as usize] {
                        Val::Small(v, _) => {
                            let old = (*v >> i) & 1 == 1;
                            if new_bit {
                                *v |= 1 << i;
                            } else {
                                *v &= !(1 << i);
                            }
                            old != new_bit
                        }
                        Val::Big(b) => {
                            let old = b.bit(i);
                            b.set_bit(i, new_bit);
                            old != new_bit
                        }
                    };
                    if changed {
                        mark_net(wp, st, *net);
                    }
                }
            }
            WOp::StoreSlice { net, hi, lo, src } => {
                let lo_v = st.words[*lo as usize] as usize;
                let hi_v = st.words[*hi as usize] as usize;
                let (hi_v, lo_v) = (hi_v.max(lo_v), hi_v.min(lo_v));
                let width = prog.nets[*net as usize].width;
                let value = &st.bigs[*src as usize];
                if width <= 64 {
                    // Pure word math mirroring Bits::set_slice: positions
                    // lo..=hi clamped to the net width take the value's low
                    // bits; out-of-range positions are dropped.
                    let old = st.net_w[*net as usize];
                    let new = if lo_v >= width as usize {
                        old
                    } else {
                        let top = hi_v.min(width as usize - 1);
                        let m = mask((top - lo_v + 1) as u32) << lo_v;
                        (old & !m) | ((value.to_u64() << lo_v) & m)
                    };
                    if new != old {
                        st.net_w[*net as usize] = new;
                        mark_net(wp, st, *net);
                    }
                } else {
                    let old = st.net_b[*net as usize].clone();
                    let mut b = old.to_bits();
                    b.set_slice(hi_v, lo_v, &value.to_bits());
                    let new = Val::from_bits(&b);
                    if new != old {
                        st.net_b[*net as usize] = new;
                        mark_net(wp, st, *net);
                    }
                }
            }
            WOp::LoadTime { dst } => st.words[*dst as usize] = st.time,
            WOp::LoadValueReg { dst } => st.bigs[*dst as usize] = st.value_reg.clone(),
            WOp::BinW {
                op,
                dst,
                a,
                b,
                aw,
                bw,
            } => {
                st.words[*dst as usize] = crate::ir::word_binary(
                    *op,
                    st.words[*a as usize],
                    *aw,
                    st.words[*b as usize],
                    *bw,
                )
                .0;
            }
            WOp::BinImmW {
                op,
                dst,
                a,
                aw,
                imm,
                bw,
            } => {
                st.words[*dst as usize] =
                    crate::ir::word_binary(*op, st.words[*a as usize], *aw, *imm, *bw).0;
            }
            WOp::ImmBinW {
                op,
                dst,
                imm,
                aw,
                b,
                bw,
            } => {
                st.words[*dst as usize] =
                    crate::ir::word_binary(*op, *imm, *aw, st.words[*b as usize], *bw).0;
            }
            WOp::NetBinImmW {
                op,
                dst,
                net,
                aw,
                imm,
                bw,
            } => {
                st.words[*dst as usize] =
                    crate::ir::word_binary(*op, st.net_w[*net as usize], *aw, *imm, *bw).0;
            }
            WOp::BinNetW {
                op,
                dst,
                a,
                aw,
                net,
                bw,
            } => {
                st.words[*dst as usize] = crate::ir::word_binary(
                    *op,
                    st.words[*a as usize],
                    *aw,
                    st.net_w[*net as usize],
                    *bw,
                )
                .0;
            }
            WOp::NetBinW {
                op,
                dst,
                net,
                aw,
                b,
                bw,
            } => {
                st.words[*dst as usize] = crate::ir::word_binary(
                    *op,
                    st.net_w[*net as usize],
                    *aw,
                    st.words[*b as usize],
                    *bw,
                )
                .0;
            }
            WOp::NetBinNetW {
                op,
                dst,
                neta,
                aw,
                netb,
                bw,
            } => {
                st.words[*dst as usize] = crate::ir::word_binary(
                    *op,
                    st.net_w[*neta as usize],
                    *aw,
                    st.net_w[*netb as usize],
                    *bw,
                )
                .0;
            }
            WOp::BinStoreNet {
                op,
                a,
                aw,
                b,
                bw,
                net,
                mask,
            } => {
                let v = crate::ir::word_binary(
                    *op,
                    st.words[*a as usize],
                    *aw,
                    st.words[*b as usize],
                    *bw,
                )
                .0 & mask;
                if st.net_w[*net as usize] != v {
                    st.net_w[*net as usize] = v;
                    mark_net(wp, st, *net);
                }
            }
            WOp::BinImmStoreNet {
                op,
                a,
                aw,
                imm,
                bw,
                net,
                mask,
            } => {
                let v = crate::ir::word_binary(*op, st.words[*a as usize], *aw, *imm, *bw).0 & mask;
                if st.net_w[*net as usize] != v {
                    st.net_w[*net as usize] = v;
                    mark_net(wp, st, *net);
                }
            }
            WOp::NetBinImmStoreNet {
                op,
                src,
                aw,
                imm,
                bw,
                net,
                mask,
            } => {
                let v =
                    crate::ir::word_binary(*op, st.net_w[*src as usize], *aw, *imm, *bw).0 & mask;
                if st.net_w[*net as usize] != v {
                    st.net_w[*net as usize] = v;
                    mark_net(wp, st, *net);
                }
            }
            WOp::NetBinNetStoreNet {
                op,
                neta,
                aw,
                netb,
                bw,
                net,
                mask,
            } => {
                let v = crate::ir::word_binary(
                    *op,
                    st.net_w[*neta as usize],
                    *aw,
                    st.net_w[*netb as usize],
                    *bw,
                )
                .0 & mask;
                if st.net_w[*net as usize] != v {
                    st.net_w[*net as usize] = v;
                    mark_net(wp, st, *net);
                }
            }
            WOp::UnW { op, dst, a, w } => {
                st.words[*dst as usize] = crate::ir::word_unary(*op, st.words[*a as usize], *w).0;
            }
            WOp::SliceW { dst, a, hi, lo } => {
                let v = st.words[*a as usize];
                let shifted = if *lo >= 64 { 0 } else { v >> lo };
                st.words[*dst as usize] = shifted & mask(hi - lo + 1);
            }
            WOp::NetSliceW { dst, net, hi, lo } => {
                let v = st.net_w[*net as usize];
                let shifted = if *lo >= 64 { 0 } else { v >> lo };
                st.words[*dst as usize] = shifted & mask(hi - lo + 1);
            }
            WOp::ConcatW { dst, a, b, bw } => {
                st.words[*dst as usize] = (st.words[*a as usize] << bw) | st.words[*b as usize];
            }
            WOp::ResizeW { dst, a, mask } => st.words[*dst as usize] = st.words[*a as usize] & mask,
            WOp::BitSelW { dst, a, aw, idx } => {
                let i = st.words[*idx as usize] as usize;
                let v = st.words[*a as usize];
                st.words[*dst as usize] = (i < *aw as usize && (v >> i) & 1 == 1) as u64;
            }
            WOp::BitSelNetW { dst, net, aw, idx } => {
                let i = st.words[*idx as usize] as usize;
                let v = st.net_w[*net as usize];
                st.words[*dst as usize] = (i < *aw as usize && (v >> i) & 1 == 1) as u64;
            }
            WOp::NetBitConstW { dst, net, aw, idx } => {
                let i = *idx as usize;
                let v = st.net_w[*net as usize];
                st.words[*dst as usize] = (i < *aw as usize && (v >> i) & 1 == 1) as u64;
            }
            WOp::BinB { op, dst, a, b } => {
                let r = crate::ir::binary(*op, &st.bigs[*a as usize], &st.bigs[*b as usize]);
                st.bigs[*dst as usize] = r;
            }
            WOp::UnB { op, dst, a } => {
                let r = crate::ir::unary(*op, &st.bigs[*a as usize]);
                st.bigs[*dst as usize] = r;
            }
            WOp::SliceConstB { dst, a, hi, lo } => {
                let r = crate::ir::slice(&st.bigs[*a as usize], *hi as usize, *lo as usize);
                st.bigs[*dst as usize] = r;
            }
            WOp::SliceDynB { dst, a, hi, lo } => {
                let hi_v = st.words[*hi as usize] as usize;
                let lo_v = st.words[*lo as usize] as usize;
                let r = crate::ir::slice(&st.bigs[*a as usize], hi_v.max(lo_v), hi_v.min(lo_v));
                st.bigs[*dst as usize] = r;
            }
            WOp::ConcatB { dst, a, b } => {
                let r = crate::ir::concat(&st.bigs[*a as usize], &st.bigs[*b as usize]);
                st.bigs[*dst as usize] = r;
            }
            WOp::ReplicateB { dst, n, v } => {
                let count = st.words[*n as usize] as usize;
                let r = Val::from_bits(&st.bigs[*v as usize].to_bits().replicate(count));
                st.bigs[*dst as usize] = r;
            }
            WOp::ResizeB { dst, a, w } => {
                let r = st.bigs[*a as usize].resize(*w as usize);
                st.bigs[*dst as usize] = r;
            }
            WOp::BitSelB { dst, a, idx } => {
                let i = st.words[*idx as usize] as usize;
                st.words[*dst as usize] = st.bigs[*a as usize].bit(i) as u64;
            }
            WOp::Jump(t) => {
                pc = *t as usize;
                continue;
            }
            WOp::JumpIfZeroW { c, t } => {
                if st.words[*c as usize] == 0 {
                    pc = *t as usize;
                    continue;
                }
            }
            WOp::JumpIfNonZeroW { c, t } => {
                if st.words[*c as usize] != 0 {
                    pc = *t as usize;
                    continue;
                }
            }
            WOp::JzBin {
                op,
                a,
                aw,
                b,
                bw,
                t,
            } => {
                let v = crate::ir::word_binary(
                    *op,
                    st.words[*a as usize],
                    *aw,
                    st.words[*b as usize],
                    *bw,
                )
                .0;
                if v == 0 {
                    pc = *t as usize;
                    continue;
                }
            }
            WOp::JnzBin {
                op,
                a,
                aw,
                b,
                bw,
                t,
            } => {
                let v = crate::ir::word_binary(
                    *op,
                    st.words[*a as usize],
                    *aw,
                    st.words[*b as usize],
                    *bw,
                )
                .0;
                if v != 0 {
                    pc = *t as usize;
                    continue;
                }
            }
            WOp::JzBinImm {
                op,
                a,
                aw,
                imm,
                bw,
                t,
            } => {
                let v = crate::ir::word_binary(*op, st.words[*a as usize], *aw, *imm, *bw).0;
                if v == 0 {
                    pc = *t as usize;
                    continue;
                }
            }
            WOp::JnzBinImm {
                op,
                a,
                aw,
                imm,
                bw,
                t,
            } => {
                let v = crate::ir::word_binary(*op, st.words[*a as usize], *aw, *imm, *bw).0;
                if v != 0 {
                    pc = *t as usize;
                    continue;
                }
            }
            WOp::JzNetBinImm {
                op,
                net,
                aw,
                imm,
                bw,
                t,
            } => {
                let v = crate::ir::word_binary(*op, st.net_w[*net as usize], *aw, *imm, *bw).0;
                if v == 0 {
                    pc = *t as usize;
                    continue;
                }
            }
            WOp::JnzNetBinImm {
                op,
                net,
                aw,
                imm,
                bw,
                t,
            } => {
                let v = crate::ir::word_binary(*op, st.net_w[*net as usize], *aw, *imm, *bw).0;
                if v != 0 {
                    pc = *t as usize;
                    continue;
                }
            }
            WOp::JzNetBit { net, aw, idx, t } => {
                let i = *idx as usize;
                let v = st.net_w[*net as usize];
                if !(i < *aw as usize && (v >> i) & 1 == 1) {
                    pc = *t as usize;
                    continue;
                }
            }
            WOp::JnzNetBit { net, aw, idx, t } => {
                let i = *idx as usize;
                let v = st.net_w[*net as usize];
                if i < *aw as usize && (v >> i) & 1 == 1 {
                    pc = *t as usize;
                    continue;
                }
            }
            WOp::JzNet { net, t } => {
                if st.net_w[*net as usize] == 0 {
                    pc = *t as usize;
                    continue;
                }
            }
            WOp::JnzNet { net, t } => {
                if st.net_w[*net as usize] != 0 {
                    pc = *t as usize;
                    continue;
                }
            }
            WOp::JumpIfNotFinished(t) => {
                if st.finished.is_none() {
                    pc = *t as usize;
                    continue;
                }
            }
            WOp::CheckFinished(t) => {
                if st.finished.is_some() {
                    pc = *t as usize;
                    continue;
                }
            }
            WOp::LoopInit(slot) => st.loops[*slot as usize] = 0,
            WOp::LoopCheck(slot) => {
                let c = &mut st.loops[*slot as usize];
                *c += 1;
                if *c > MAX_LOOP_ITERS {
                    return Err(VlogError::Elaborate(
                        "for loop exceeded iteration cap".into(),
                    ));
                }
            }
            WOp::RepeatInit { src, slot } => {
                st.loops[*slot as usize] = st.words[*src as usize].min(MAX_LOOP_ITERS);
            }
            WOp::RepeatTest { slot, end } => {
                let c = &mut st.loops[*slot as usize];
                if *c == 0 {
                    pc = *end as usize;
                    continue;
                }
                *c -= 1;
            }
            WOp::NbW { site, src, w } => {
                st.nb.push((*site, Val::Small(st.words[*src as usize], *w)));
            }
            WOp::NbImm { site, imm, w } => {
                st.nb.push((*site, Val::Small(*imm, *w)));
            }
            WOp::NbNet { site, net, w } => {
                st.nb.push((*site, Val::Small(st.net_w[*net as usize], *w)));
            }
            WOp::NbNetBinImm {
                site,
                op,
                net,
                aw,
                imm,
                w,
                bw,
            } => {
                let v = crate::ir::word_binary(*op, st.net_w[*net as usize], *aw, *imm, *bw).0;
                st.nb.push((*site, Val::Small(v, *w)));
            }
            WOp::NbB { site, src } => {
                let v = st.bigs[*src as usize].clone();
                st.nb.push((*site, v));
            }
            WOp::Fopen { dst, s } => {
                st.words[*dst as usize] = env.fopen(&prog.strings[*s as usize]) as u64;
            }
            WOp::Feof { dst, fd } => {
                st.words[*dst as usize] = env.feof(st.words[*fd as usize] as u32) as u64;
            }
            WOp::FeofNet { dst, net } => {
                st.words[*dst as usize] = env.feof(st.net_w[*net as usize] as u32) as u64;
            }
            WOp::Random { dst } => st.words[*dst as usize] = env.random() as u64,
            WOp::Fread { fd, width, skip } => {
                let fd = st.words[*fd as usize] as u32;
                match env.fread(fd, *width as usize) {
                    Some(v) => st.value_reg = Val::from_bits(&v),
                    None => {
                        pc = *skip as usize;
                        continue;
                    }
                }
            }
            WOp::FreadNet { net, width, skip } => {
                let fd = st.net_w[*net as usize] as u32;
                match env.fread(fd, *width as usize) {
                    Some(v) => st.value_reg = Val::from_bits(&v),
                    None => {
                        pc = *skip as usize;
                        continue;
                    }
                }
            }
            WOp::Fclose { fd } => env.fclose(st.words[*fd as usize] as u32),
            WOp::PrintStr(s) => st.print_buf.push_str(&prog.strings[*s as usize]),
            WOp::PrintValW { src } => {
                use std::fmt::Write;
                let v = st.words[*src as usize];
                let _ = write!(st.print_buf, "{}", v);
            }
            WOp::PrintValB { src } => {
                let s = st.bigs[*src as usize].to_dec_string();
                st.print_buf.push_str(&s);
            }
            WOp::PrintFlush { newline } => {
                if *newline {
                    st.print_buf.push('\n');
                }
                let text = std::mem::take(&mut st.print_buf);
                env.print(&text);
            }
            WOp::Finish { src } => {
                let code_val = st.words[*src as usize] as u32;
                st.finished = Some(code_val);
                st.effects
                    .push(synergy_interp::TaskEffect::Finish(code_val));
            }
            WOp::Effect(i) => st.effects.push(prog.effects[*i as usize].clone()),
        }
        pc += 1;
    }
    Ok(())
}

// Owned dense state only — the machine crosses worker threads inside its
// `Runtime`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<WordMachine>();
};
