//! The executor for [`CompiledProgram`]s.
//!
//! [`CompiledSim`] reproduces the reference interpreter's scheduling semantics
//! exactly — evaluate/update until fixpoint, edge-detected guards, per-tick
//! non-blocking latching — by translating the program's bytecode once into
//! register-allocated, width-specialized three-address code
//! ([`crate::regalloc`]) and running it over flat `u64` arenas
//! ([`crate::wordexec`]).
//!
//! Combinational re-evaluation drains a level-bucketed dirty worklist (only
//! the affected cone recomputes, without scanning the node array), and state
//! capture produces the same [`StateSnapshot`] type the interpreter uses, so
//! snapshots migrate losslessly between the interpreter, the compiled
//! engine, and the hardware engine.

use crate::ir::{CompiledProgram, SlotRef};
use crate::wordexec::WordMachine;
use synergy_interp::{StateSnapshot, SystemEnv, TaskEffect, Value};
use synergy_vlog::{Bits, VlogError, VlogResult};

/// Cumulative executor-internal telemetry counters.
///
/// These count *work performed* (which is deterministic for a given program
/// and input), not host time. The runtime diffs them around each `run_ticks`
/// call and feeds the deltas into the deterministic metrics namespace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Evaluate/update rounds executed by `settle`.
    pub settle_iters: u64,
    /// Combinational worklist nodes drained by `propagate`.
    pub worklist_drains: u64,
    /// Guard scans skipped by the write-epoch check.
    pub guard_epoch_skips: u64,
    /// Register-arena footprint (word + wide + net slots).
    pub arena_regs: u64,
}

/// A compiled design plus its execution state: the compiled software engine.
#[derive(Clone)]
pub struct CompiledSim {
    prog: CompiledProgram,
    wm: WordMachine,
}

impl std::fmt::Debug for CompiledSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledSim")
            .field("program", &self.prog.name)
            .finish()
    }
}

impl CompiledSim {
    /// Translates a compiled program and instantiates its execution state,
    /// with registers at their declared reset values.
    ///
    /// # Errors
    ///
    /// Returns [`VlogError::Unsupported`] if the translation rejects the
    /// program. Lowered programs always translate; only malformed bytecode
    /// (operand-stack underflow, a stack-depth mismatch at a join) fails.
    pub fn new(prog: CompiledProgram) -> VlogResult<Self> {
        match WordMachine::compile(&prog) {
            Ok(wm) => Ok(CompiledSim { prog, wm }),
            Err(e) => Err(VlogError::Unsupported(format!(
                "regalloc tier cannot translate this program: {}",
                e
            ))),
        }
    }

    /// Renders the translated three-address programs (debug aid).
    #[doc(hidden)]
    pub fn dump_word_programs(&self) -> String {
        self.wm.dump()
    }

    /// The compiled program being executed.
    pub fn program(&self) -> &CompiledProgram {
        &self.prog
    }

    /// Static three-address instruction count across all translated
    /// programs. Together with [`CompiledProgram::op_count`] this is the
    /// "code footprint" pair the optimizer's `PassStats` report compares.
    pub fn word_op_count(&self) -> usize {
        self.wm.static_op_count()
    }

    /// Current simulation time (incremented by [`CompiledSim::tick`]).
    pub fn time(&self) -> u64 {
        self.wm.time()
    }

    /// The exit code passed to `$finish`, if the program has finished.
    pub fn finished(&self) -> Option<u32> {
        self.wm.finished()
    }

    /// Drains control-flow effects raised since the last call.
    pub fn take_effects(&mut self) -> Vec<TaskEffect> {
        self.wm.take_effects()
    }

    /// Cumulative executor-internal telemetry counters (observability only —
    /// excluded from `save_state`/`restore_state` and every wire format).
    pub fn exec_counters(&self) -> ExecCounters {
        self.wm.exec_counters()
    }

    /// Executor-specific detail for the most recent settle-cap failure: the
    /// non-blocking targets that never converged. `None` until such a
    /// failure occurs. The error message itself stays engine-identical; this
    /// side channel is what names the failing always-block site in
    /// postmortems.
    pub fn fault_detail(&self) -> Option<&str> {
        self.wm.fault_detail()
    }

    fn slot(&self, name: &str) -> VlogResult<SlotRef> {
        self.prog
            .slot(name)
            .ok_or_else(|| VlogError::Elaborate(format!("no such variable '{}'", name)))
    }

    /// Resolves a variable name to its net id (inputs, clocks).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown names or memories.
    pub fn net_id(&self, name: &str) -> VlogResult<u32> {
        match self.slot(name)? {
            SlotRef::Net(i) => Ok(i),
            SlotRef::Mem(_) => Err(VlogError::Elaborate(format!(
                "cannot scalar-assign memory '{}'",
                name
            ))),
        }
    }

    /// Reads a variable's current value.
    ///
    /// # Errors
    ///
    /// Returns an error if the variable does not exist.
    pub fn get(&self, name: &str) -> VlogResult<Value> {
        let slot = self.slot(name)?;
        Ok(self.wm.value_of(&self.prog, slot))
    }

    /// Reads a scalar variable as `Bits` (memories read as element 0).
    ///
    /// # Errors
    ///
    /// Returns an error if the variable does not exist.
    pub fn get_bits(&self, name: &str) -> VlogResult<Bits> {
        let slot = self.slot(name)?;
        Ok(self.wm.bits_of(&self.prog, slot))
    }

    /// Writes a scalar variable (an input port, or any register).
    ///
    /// # Errors
    ///
    /// Returns an error if the variable does not exist or is a memory.
    pub fn set(&mut self, name: &str, value: Bits) -> VlogResult<()> {
        let id = self.net_id(name)?;
        self.set_net(id, &value);
        Ok(())
    }

    /// Writes a scalar net by id (the fast path for clock toggling).
    pub fn set_net(&mut self, id: u32, value: &Bits) {
        self.wm.set_net(&self.prog, id, value)
    }

    /// `true` if non-blocking assignments are waiting to be latched.
    pub fn there_are_updates(&self) -> bool {
        self.wm.there_are_updates()
    }

    /// Runs `initial` blocks if they have not run yet.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from the initial blocks.
    pub fn run_initials(&mut self, env: &mut dyn SystemEnv) -> VlogResult<()> {
        self.wm.run_initials(&self.prog, env)
    }

    /// Whether `initial` blocks have already executed.
    pub fn initials_run(&self) -> bool {
        self.wm.initials_run()
    }

    /// Marks `initial` blocks as executed *without* running them. Used when
    /// restoring captured state into a fresh simulator: the checkpointed
    /// program already ran its initials (and their environment side effects,
    /// such as `$fopen`), so replaying them would corrupt the restored run.
    pub fn mark_initials_run(&mut self) {
        self.wm.mark_initials_run()
    }

    /// Runs evaluation events to a fixed point (the `evaluate` ABI request).
    ///
    /// # Errors
    ///
    /// Returns an error on oscillating designs or malformed programs.
    pub fn evaluate(&mut self, env: &mut dyn SystemEnv) -> VlogResult<()> {
        self.wm.evaluate(&self.prog, env)
    }

    /// Latches pending non-blocking assignments (the `update` ABI request).
    /// Returns `true` if any were pending.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from index expressions.
    pub fn update(&mut self, env: &mut dyn SystemEnv) -> VlogResult<bool> {
        self.wm.update(&self.prog, env)
    }

    /// Runs evaluate/update until no more updates are pending.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`CompiledSim::evaluate`] and
    /// [`CompiledSim::update`], and rejects designs whose update rounds
    /// never drain (zero-delay self-triggering edges), exactly as the
    /// interpreter does.
    pub fn settle(&mut self, env: &mut dyn SystemEnv) -> VlogResult<()> {
        self.wm.settle(&self.prog, env)
    }

    /// Advances one full virtual clock cycle on the named clock input.
    ///
    /// # Errors
    ///
    /// Returns an error if the clock does not exist or evaluation fails.
    pub fn tick(&mut self, clock: &str, env: &mut dyn SystemEnv) -> VlogResult<()> {
        let id = self.net_id(clock)?;
        self.tick_net(id, env)
    }

    /// Advances one full virtual clock cycle on a pre-resolved clock net.
    ///
    /// # Errors
    ///
    /// Returns an error if evaluation fails.
    pub fn tick_net(&mut self, clock: u32, env: &mut dyn SystemEnv) -> VlogResult<()> {
        self.wm.tick_net(&self.prog, clock, env)
    }

    /// Captures the architectural state (registers and memories), in the same
    /// shape the interpreter produces.
    pub fn save_state(&self) -> StateSnapshot {
        self.wm.save_state(&self.prog)
    }

    /// Restores a previously captured snapshot (from this engine or the
    /// interpreter) and re-propagates combinational logic.
    pub fn restore_state(&mut self, snapshot: &StateSnapshot) {
        self.wm.restore_state(&self.prog, snapshot)
    }
}

// The hypervisor's parallel scheduler runs `CompiledSim`s on worker threads
// (one tenant per round job). The simulator is plain owned data — dense
// vectors of values and dirty bits, no shared interior mutability — so it is
// `Send` by construction; this pins that property.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<CompiledSim>();
    assert_send::<CompiledProgram>();
};
