//! The machine simulator: executes linked programs instruction by
//! instruction, enforcing exactly the architectural behaviour the paper's
//! instrumentation relies on — MPX bound registers, segment bases, unmapped
//! guard regions, the `_chkstk` stack-bounds check — and accounting cycles
//! with the cost model of [`crate::cost`].

use std::sync::Arc;

use confllvm_machine::{
    trap, AluOp, BndReg, MInst, MemOperand, Program, Reg, RegImm, Taint, ARG_REGS, RET_REG,
};

use crate::alloc::{AllocatorKind, Heap};
use crate::cache::DataCache;
use crate::cost::CostModel;
use crate::loader::{load, Image, LoadError, NO_PROC};
use crate::memory::{MemFault, MemSnapshot, Memory};
use crate::translate::{
    Block, BlockTarget, Engine, Op, PostExtern, StaticAcc, Terminator, NO_INDEX,
};
use crate::trusted::{self, TrustedCtx, TrustedError};
use crate::world::World;

/// Shadow-stack depth bound for the sampling profiler: frames beyond it are
/// counted, not stored, so deep recursion cannot grow sample keys without
/// losing push/pop balance.
const SAMPLE_STACK_CAP: usize = 64;

/// One buffered raw profile sample (see [`Sampler`]); procedure indices are
/// resolved to interned names only at flush time.
struct RawSample {
    /// Caller procedure indices, outermost first.
    stack: Vec<u32>,
    /// Procedure owning the sampled block.
    leaf: u32,
    block_word: u32,
    /// Pending check site, or [`confllvm_obs::prof::NO_CHECK`].
    check_word: u32,
    loop_head: bool,
}

/// Per-run state of the deterministic sampling profiler (block engine
/// only; the legacy engine stays the untouched differential oracle).  The
/// sampling grid lives in **simulated cycles** — `next` advances by the
/// profiler's interval from the VM's running cycle total, so a pooled
/// instance samples one continuous virtual timeline across requests and two
/// identical runs sample identically on any host.  Sampling reads simulated
/// state and never writes it: profiled and unprofiled runs have
/// byte-identical observables and cycle counts.
struct Sampler {
    interval: u64,
    /// Next grid point in simulated cycles.
    next: u64,
    /// Best-effort shadow call stack of procedure indices, maintained on
    /// block-terminator calls/returns (mid-block fall-back steps may skip
    /// updates — deterministically; pops on an empty stack are ignored).
    stack: Vec<u32>,
    /// Call frames skipped because the stack hit [`SAMPLE_STACK_CAP`];
    /// matching returns decrement this instead of popping a real frame.
    over_cap: u64,
    raw: Vec<RawSample>,
    tid: u64,
}

impl Sampler {
    fn call(&mut self, proc: u32) {
        if self.stack.len() >= SAMPLE_STACK_CAP {
            self.over_cap += 1;
        } else {
            self.stack.push(proc);
        }
    }

    fn ret(&mut self) {
        if self.over_cap > 0 {
            self.over_cap -= 1;
        } else {
            self.stack.pop();
        }
    }

    /// The block that just completed crossed the sampling grid: record one
    /// raw sample per crossed point.  `vbefore`/`vnow` are the virtual
    /// clock at the previous and this block boundary; a point inside the
    /// block's static straight-line cycles is attributed to the instruction
    /// it lands on (with the check site when that is a bound check), while
    /// a point in the boundary gap (terminator charges, extern calls,
    /// fall-back steps) attributes to the block leader.
    #[cold]
    fn sample_block(
        &mut self,
        image: &Image,
        block: &Block,
        cost: &CostModel,
        vbefore: u64,
        vnow: u64,
        entry_muldiv: bool,
    ) {
        let start = block.start as usize;
        let leaf = image.proc_of_inst.get(start).copied().unwrap_or(NO_PROC);
        let block_word = image.word_of[start];
        while self.next <= vnow {
            let grid = self.next;
            self.next += self.interval;
            let mut check_word = confllvm_obs::prof::NO_CHECK;
            if grid > vbefore {
                // Walk the straight line's static costs to the crossing
                // instruction — the same per-instruction sums translation
                // pre-summed into the block totals.
                let off = grid - vbefore;
                let mut acc = StaticAcc::default();
                let mut md = entry_muldiv;
                for k in 0..block.ops.len() {
                    let inst = &image.insts[start + k];
                    md = crate::translate::accumulate_static(inst, cost, md, &mut acc);
                    if acc.cycles >= off {
                        if matches!(inst, MInst::BndCheck { .. }) {
                            check_word = image.word_of[start + k];
                        }
                        break;
                    }
                }
            }
            self.raw.push(RawSample {
                stack: self.stack.clone(),
                leaf,
                block_word,
                check_word,
                loop_head: block.loop_head,
            });
        }
    }

    /// Resolve procedure indices to interned names and hand the batch to
    /// the process profiler — one lock per thread run.
    fn flush(self, image: &Image) {
        if self.raw.is_empty() {
            return;
        }
        let names = image.proc_names();
        let name_of =
            |p: u32| -> &'static str { names.get(p as usize).copied().unwrap_or("[runtime]") };
        let tid = self.tid;
        confllvm_obs::prof::profiler().record_batch(self.raw.into_iter().map(|r| {
            let mut stack: Vec<&'static str> = Vec::with_capacity(r.stack.len() + 1);
            stack.extend(r.stack.iter().map(|&p| name_of(p)));
            stack.push(name_of(r.leaf));
            (
                confllvm_obs::prof::SampleKey {
                    tid,
                    stack,
                    block_word: r.block_word,
                    check_word: r.check_word,
                    loop_head: r.loop_head,
                },
                1,
            )
        }));
    }
}

/// VM configuration.
#[derive(Debug, Clone)]
pub struct VmOptions {
    pub allocator: AllocatorKind,
    /// Maximum number of instructions per thread before declaring a runaway.
    pub fuel: u64,
    pub cost: CostModel,
    /// Which execution engine to use.  [`Engine::Block`] (the default) runs
    /// the predecoded basic-block translation shared through the image;
    /// [`Engine::Legacy`] is the decode-per-step reference interpreter kept
    /// for differential testing.  Both are bit-exact in statistics, faults
    /// and observables.
    pub engine: Engine,
    /// Collect deterministic sampling-profiler frames for this VM's runs
    /// (block engine only) into the process-wide
    /// [`profiler`](confllvm_obs::prof::profiler), regardless of its global
    /// enable flag.  Per-VM opt-in keeps concurrently running unprofiled
    /// VMs (e.g. parallel tests) out of a byte-exact profile; the global
    /// flag additionally samples *every* VM, which is what
    /// `repro --profile-folded` uses.  Either way sampling never writes
    /// simulated state: profiled and unprofiled runs are byte-identical in
    /// statistics and observables.
    pub profile: bool,
}

impl Default for VmOptions {
    fn default() -> Self {
        VmOptions {
            allocator: AllocatorKind::ConfBins,
            fuel: 500_000_000,
            cost: CostModel::default(),
            engine: Engine::Block,
            profile: false,
        }
    }
}

/// Execution faults.  Every one of these means the program was *stopped* —
/// this is how the runtime checks turn attempted leaks into crashes.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Access to unmapped memory (guard regions, wild pointers).
    Memory(MemFault),
    /// MPX bound-check failure.
    Bounds {
        addr: u64,
        region: Taint,
    },
    /// Taint-aware CFI violation (magic-word mismatch or trap).
    Cfi,
    /// Jump/call to something that is not an instruction boundary.
    InvalidJump {
        word: u64,
    },
    /// Fell into a magic data word.
    ExecutedMagic {
        word: u64,
    },
    DivZero,
    /// `_chkstk` found rsp outside the current thread's stack.
    StackCheck {
        rsp: u64,
    },
    /// A trusted wrapper rejected a call.
    Trusted(TrustedError),
    /// Call to an extern index with no registered T function.
    UnknownExtern {
        index: u16,
    },
    /// Explicit abort.
    Abort,
    /// Instruction budget exhausted.
    OutOfFuel,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::Memory(m) => write!(f, "memory fault: {m}"),
            Fault::Bounds { addr, region } => {
                write!(
                    f,
                    "bounds violation: {addr:#x} not in {} region",
                    region.name()
                )
            }
            Fault::Cfi => write!(f, "taint-aware CFI violation"),
            Fault::InvalidJump { word } => write!(f, "invalid jump target word {word}"),
            Fault::ExecutedMagic { word } => write!(f, "executed magic word {word:#x}"),
            Fault::DivZero => write!(f, "division by zero"),
            Fault::StackCheck { rsp } => write!(f, "chkstk: rsp {rsp:#x} outside thread stack"),
            Fault::Trusted(e) => write!(f, "{e}"),
            Fault::UnknownExtern { index } => write!(f, "unknown extern #{index}"),
            Fault::Abort => write!(f, "abort"),
            Fault::OutOfFuel => write!(f, "instruction budget exhausted"),
        }
    }
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Exit(i64),
    Fault(Fault),
}

impl Outcome {
    pub fn exit_code(&self) -> Option<i64> {
        match self {
            Outcome::Exit(c) => Some(*c),
            Outcome::Fault(_) => None,
        }
    }

    pub fn is_fault(&self) -> bool {
        matches!(self, Outcome::Fault(_))
    }
}

/// Execution statistics (cycle counts are per the configured cost model).
///
/// `PartialEq` is part of the execution-engine contract: the differential
/// suite asserts full equality between [`Engine::Legacy`] and
/// [`Engine::Block`] runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    pub instructions: u64,
    pub cycles: u64,
    pub loads: u64,
    pub stores: u64,
    pub bound_checks: u64,
    /// Cycles charged for bound checks (excludes dual-issued free checks) —
    /// the simulated cost that check elimination removes.
    pub check_cycles: u64,
    pub cfi_checks: u64,
    /// Calls from U into a trusted wrapper (every `CallExternal` that T
    /// accepted) — one U→T→U round trip each.
    pub extern_calls: u64,
    pub extern_bytes: u64,
    /// Stack/segment switches performed on trusted calls.  Only configurations
    /// that separate U and T memories (OurBare and up) switch; `Base` and
    /// `Our1Mem` keep this at zero.
    pub stack_switches: u64,
    /// Cycles spent crossing the U/T boundary (wrapper base cost, argument
    /// copies and stack switches) — the "T-crossing" share of a request, as
    /// opposed to cycles spent in application code.
    pub extern_cycles: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Cycles per thread (for the multi-threaded experiments).
    pub thread_cycles: Vec<u64>,
}

impl ExecStats {
    /// Wall-clock cycles on a machine with `cores` cores: threads are
    /// assigned round-robin and each core's time is the sum of its threads.
    pub fn wall_cycles(&self, cores: usize) -> u64 {
        if self.thread_cycles.is_empty() {
            return self.cycles;
        }
        let cores = cores.max(1);
        let mut per_core = vec![0u64; cores];
        for (i, c) in self.thread_cycles.iter().enumerate() {
            per_core[i % cores] += c;
        }
        per_core.into_iter().max().unwrap_or(0)
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub outcome: Outcome,
    pub stats: ExecStats,
}

impl RunResult {
    pub fn exit_code(&self) -> Option<i64> {
        self.outcome.exit_code()
    }

    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Number of MPX bound checks the run actually executed — the metric the
    /// check-elimination ablation compares across pipelines.
    pub fn checks_executed(&self) -> u64 {
        self.stats.bound_checks
    }
}

/// A point-in-time capture of the mutable machine state — memory contents,
/// both heaps, the external world and the data cache — taken after a VM has
/// been initialised (e.g. after running a workload's setup entry point).
///
/// [`Vm::restore`] rewinds the VM to this state in O(dirty pages), which is
/// what lets a service runtime reuse one loaded instance across many requests
/// instead of paying compile + load + setup per request.  The cache state is
/// shared by reference with every VM forked or restored from the snapshot;
/// each copies it only when it next runs.
#[derive(Debug, Clone)]
pub struct VmSnapshot {
    mem: MemSnapshot,
    world: World,
    pub_heap: Heap,
    priv_heap: Heap,
    cache: Arc<DataCache>,
}

impl VmSnapshot {
    /// Number of memory pages captured (the O(total) cost paid once at
    /// snapshot time; restores pay only for pages dirtied since).
    pub fn captured_pages(&self) -> usize {
        self.mem.pages()
    }
}

/// What one [`Vm::restore`] did, for the pool's cost accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct RestoreStats {
    /// Pages rewound (the restore's O(dirty pages) work).
    pub dirty_pages: usize,
}

struct ThreadState {
    regs: [u64; Reg::COUNT],
    last_cmp: (i64, i64),
    pc: usize,
    tid: usize,
}

/// Result of one [`Vm::step_inst`].
enum Step {
    Continue,
    Done(Outcome),
}

/// The virtual machine.
///
/// The decoded [`Image`] is behind an `Arc`: it is immutable after load, so
/// [`Vm::fork`] shares one decode across every session of a service instead
/// of re-decoding (or deep-cloning) per session.
#[derive(Debug)]
pub struct Vm {
    pub image: Arc<Image>,
    pub memory: Memory,
    pub world: World,
    pub opts: VmOptions,
    /// The data cache the engines access.  Live only while `cache_pending`
    /// is `None`; until then it may be `DataCache::unallocated`.
    cache: DataCache,
    /// Cache state inherited from a snapshot by [`Vm::fork`] or
    /// [`Vm::restore`] and not yet copied into `cache` — `run_thread` copies
    /// it before an engine starts, so a VM that never runs holds no tags.
    cache_pending: Option<Arc<DataCache>>,
    pub_heap: Heap,
    priv_heap: Heap,
    pub stats: ExecStats,
}

impl Vm {
    /// Load a program into a fresh VM.
    pub fn new(program: &Program, opts: VmOptions, world: World) -> Result<Vm, LoadError> {
        let loaded = load(program, opts.allocator)?;
        Ok(Vm {
            image: Arc::new(loaded.image),
            memory: loaded.memory,
            world,
            opts,
            cache: DataCache::default_l1(),
            cache_pending: None,
            pub_heap: loaded.pub_heap,
            priv_heap: loaded.priv_heap,
            stats: ExecStats::default(),
        })
    }

    /// A new session VM forked from `snap`, a snapshot of this VM: the
    /// decoded image is shared by reference, memory pages are shared
    /// copy-on-write ([`Memory::fork`]), the heaps start as clones of the
    /// captured state and the data cache inherits the snapshot's by
    /// reference, copied on the fork's first run.  The fork gets its own
    /// `world` (its private external environment) and fresh statistics; the
    /// snapshot's captured world is deliberately not inherited, since
    /// sessions are mutually distrusting.
    ///
    /// The fork behaves exactly like a freshly loaded VM that replayed the
    /// same deterministic history `snap` captured — but its resident cost is
    /// only the pages it goes on to write ([`Memory::resident_private_pages`]).
    pub fn fork(&self, snap: &VmSnapshot, world: World) -> Vm {
        let mut span = confllvm_obs::recorder().span("vm", "vm.fork");
        span.attr("shared_pages", snap.mem.pages());
        Vm {
            image: Arc::clone(&self.image),
            memory: Memory::fork(&snap.mem),
            world,
            opts: self.opts.clone(),
            // SAFETY: `cache_pending` is set, so `run_thread` copies the
            // snapshot's cache in before an engine can access this one.
            cache: unsafe { DataCache::unallocated() },
            cache_pending: Some(Arc::clone(&snap.cache)),
            pub_heap: snap.pub_heap.clone(),
            priv_heap: snap.priv_heap.clone(),
            stats: ExecStats::default(),
        }
    }

    /// Pages this VM's memory materialised privately (written pages for a
    /// loaded VM; CoW-faulted pages for a fork) — the per-session resident
    /// memory cost the serving layer reports at scale.
    pub fn resident_private_pages(&self) -> usize {
        self.memory.resident_private_pages()
    }

    /// Writes that copied a shared page private so far (see
    /// [`Memory::cow_faults`]).
    pub fn cow_faults(&self) -> u64 {
        self.memory.cow_faults()
    }

    /// Capture the current machine state (memory, heaps, world, cache) so
    /// [`Vm::restore`] can rewind to it between requests.  Registers and the
    /// program counter need no capture: every `run_function` starts a fresh
    /// thread context.  Execution statistics keep accumulating across
    /// restores; callers interested in per-request numbers diff [`Vm::stats`].
    /// A VM that has not run since it inherited its cache state shares that
    /// state with the new snapshot instead of copying it.
    pub fn snapshot(&mut self) -> VmSnapshot {
        let _span = confllvm_obs::recorder().span("vm", "vm.snapshot");
        VmSnapshot {
            mem: self.memory.snapshot(),
            world: self.world.clone(),
            pub_heap: self.pub_heap.clone(),
            priv_heap: self.priv_heap.clone(),
            cache: match &self.cache_pending {
                Some(pending) => Arc::clone(pending),
                None => Arc::new(self.cache.clone()),
            },
        }
    }

    /// Rewind memory (O(pages dirtied since the snapshot)), heaps, world and
    /// cache to `snap`.  The snapshot must have been taken from this VM.
    /// The cache state is only referenced here; the next run copies it into
    /// the VM's own tag storage.
    pub fn restore(&mut self, snap: &VmSnapshot) -> RestoreStats {
        let mut span = confllvm_obs::recorder().span("vm", "vm.restore");
        let dirty_pages = self.memory.restore(&snap.mem);
        self.world = snap.world.clone();
        self.pub_heap = snap.pub_heap.clone();
        self.priv_heap = snap.priv_heap.clone();
        self.cache_pending = Some(Arc::clone(&snap.cache));
        span.attr("dirty_pages", dirty_pages);
        RestoreStats { dirty_pages }
    }

    /// Run the program's entry function with no arguments.
    pub fn run(&mut self) -> RunResult {
        let entry = self.image.functions[self.image.entry_function].name.clone();
        self.run_function(&entry, &[])
    }

    /// Run a named function with up to four integer arguments on thread 0.
    ///
    /// With the process-wide recorder enabled a `vm`-layer span records the
    /// run's simulated cost (cycles, instructions, checks, U↔T crossings)
    /// from the [`ExecStats`] delta.  The instrumentation only *reads* the
    /// stats — cycle counts and observables are byte-identical traced or
    /// not.  The function name is a runtime string and deliberately cannot
    /// be attached (see `confllvm_obs`'s attribute rules).
    pub fn run_function(&mut self, name: &str, args: &[i64]) -> RunResult {
        let mut span = confllvm_obs::recorder().span("vm", "vm.run");
        let before = span.active().then(|| self.stats.clone());
        let outcome = self.run_thread(0, name, args);
        if let Some(before) = before {
            span.cycles(self.stats.cycles - before.cycles);
            span.attr(
                "instructions",
                self.stats.instructions - before.instructions,
            );
            span.attr(
                "bound_checks",
                self.stats.bound_checks - before.bound_checks,
            );
            span.attr(
                "extern_calls",
                self.stats.extern_calls - before.extern_calls,
            );
            span.attr(
                "extern_cycles",
                self.stats.extern_cycles - before.extern_cycles,
            );
            span.attr("faulted", outcome.is_fault());
        }
        RunResult {
            outcome,
            stats: self.stats.clone(),
        }
    }

    /// Run `threads.len()` threads, thread `i` executing `name(threads[i])`.
    /// Threads are simulated sequentially (the workloads only share
    /// read-only state); per-thread cycle counts feed the wall-clock model.
    pub fn run_threads(&mut self, name: &str, threads: &[Vec<i64>]) -> RunResult {
        let mut last = Outcome::Exit(0);
        for (tid, args) in threads.iter().enumerate() {
            let before = self.stats.cycles;
            let outcome = self.run_thread(tid, name, args);
            self.stats.thread_cycles.push(self.stats.cycles - before);
            if outcome.is_fault() {
                return RunResult {
                    outcome,
                    stats: self.stats.clone(),
                };
            }
            last = outcome;
        }
        RunResult {
            outcome: last,
            stats: self.stats.clone(),
        }
    }

    fn run_thread(&mut self, tid: usize, name: &str, args: &[i64]) -> Outcome {
        let Some(func) = self.image.function(name).cloned() else {
            return Outcome::Fault(Fault::InvalidJump { word: 0 });
        };
        let Some(entry_inst) = self.image.inst_at_word(func.entry_word as u64) else {
            return Outcome::Fault(Fault::InvalidJump {
                word: func.entry_word as u64,
            });
        };
        let mut t = ThreadState {
            regs: [0u64; Reg::COUNT],
            last_cmp: (0, 0),
            pc: entry_inst,
            tid,
        };
        t.regs[Reg::Rsp.index()] = self.image.layout.initial_rsp(tid);
        for (i, a) in args.iter().take(4).enumerate() {
            t.regs[ARG_REGS[i].index()] = *a as u64;
        }
        // Push the exit thunk as the initial return address.
        let thunk = if func.ret_taint == Taint::Private {
            self.image.exit_thunks.private_ret
        } else {
            self.image.exit_thunks.public_ret
        };
        t.regs[Reg::Rsp.index()] -= 8;
        if let Err(e) = self.memory.write(t.regs[Reg::Rsp.index()], 8, thunk as u64) {
            return Outcome::Fault(Fault::Memory(e));
        }
        // Both engines access the cache; make the inherited state live first.
        if let Some(pending) = self.cache_pending.take() {
            self.cache.clone_from(&pending);
        }
        match self.opts.engine {
            Engine::Legacy => self.exec_loop(&mut t),
            Engine::Block => self.exec_block_loop(&mut t),
        }
    }

    // ------------------------------------------------------------------
    // execution
    // ------------------------------------------------------------------

    fn charge(&mut self, cycles: u64) {
        self.stats.cycles += cycles;
    }

    /// Model one data access with per-step statistics — the reference
    /// accounting used by the legacy engine and the block engine's precise
    /// paths (fall-back stepping, call pushes).  The block engine's
    /// straight-line loop counts the same outcomes in locals instead
    /// ([`run_ops`]); both are pure additions, so the totals agree exactly.
    #[inline]
    fn data_access(&mut self, addr: u64) {
        if self.cache.access(addr) {
            self.stats.cache_hits += 1;
        } else {
            self.stats.cache_misses += 1;
            self.charge(self.opts.cost.cache_miss);
        }
    }

    fn ea(&self, t: &ThreadState, mem: &MemOperand) -> u64 {
        let regs = &t.regs;
        mem.effective_address(
            &|r: Reg| regs[r.index()],
            self.image.fs_base(),
            self.image.gs_base(),
        )
    }

    /// The legacy decode-per-step interpreter: one [`Vm::step_inst`] per
    /// iteration.  Kept selectable ([`Engine::Legacy`]) as the differential
    /// oracle for the block engine.
    fn exec_loop(&mut self, t: &mut ThreadState) -> Outcome {
        let image = Arc::clone(&self.image);
        let mut executed: u64 = 0;
        let mut prev_was_muldiv = false;
        loop {
            match self.step_inst(&image, t, &mut executed, &mut prev_was_muldiv) {
                Step::Continue => {}
                Step::Done(outcome) => return outcome,
            }
        }
    }

    /// One interpreter step: fuel check, decode *by reference* (the borrow of
    /// the `Arc`-cloned image is split from the `&mut self` statistics, so no
    /// per-step instruction clone is paid), execute, account.  Shared by the
    /// legacy engine's loop and by the block engine's precise fall-back
    /// (mid-block entries after an indirect jump, and blocks that could
    /// exhaust fuel), so both engines step identically at instruction
    /// granularity.
    #[inline]
    fn step_inst(
        &mut self,
        image: &Image,
        t: &mut ThreadState,
        executed: &mut u64,
        prev_was_muldiv: &mut bool,
    ) -> Step {
        let cost = self.opts.cost;
        if *executed >= self.opts.fuel {
            return Step::Done(Outcome::Fault(Fault::OutOfFuel));
        }
        *executed += 1;
        self.stats.instructions += 1;
        if t.pc >= image.insts.len() {
            return Step::Done(Outcome::Fault(Fault::InvalidJump { word: t.pc as u64 }));
        }
        let inst = &image.insts[t.pc];
        let mut next_pc = t.pc + 1;
        let mut this_is_muldiv = false;
        match inst {
            MInst::Nop => self.charge(cost.alu),
            MInst::MovImm { dst, imm } => {
                t.regs[dst.index()] = *imm as u64;
                self.charge(cost.mov);
            }
            MInst::MovReg { dst, src } => {
                t.regs[dst.index()] = t.regs[src.index()];
                self.charge(cost.mov);
            }
            MInst::MovGlobal { dst, index } => {
                let addr = image
                    .global_addrs
                    .get(*index as usize)
                    .copied()
                    .unwrap_or(0);
                t.regs[dst.index()] = addr;
                self.charge(cost.mov);
            }
            MInst::MovFunc { dst, index } => {
                let f = &image.functions[*index as usize];
                t.regs[dst.index()] = f.magic_word.unwrap_or(f.entry_word) as u64;
                self.charge(cost.mov);
            }
            MInst::Lea { dst, mem } => {
                t.regs[dst.index()] = self.ea(t, mem);
                self.charge(cost.lea);
            }
            MInst::Alu { op, dst, src } => {
                let rhs = match src {
                    RegImm::Reg(r) => t.regs[r.index()] as i64,
                    RegImm::Imm(i) => *i,
                };
                if matches!(op, AluOp::Div | AluOp::Rem) && rhs == 0 {
                    return Step::Done(Outcome::Fault(Fault::DivZero));
                }
                let lhs = t.regs[dst.index()] as i64;
                t.regs[dst.index()] = op.eval(lhs, rhs) as u64;
                this_is_muldiv = matches!(op, AluOp::Mul | AluOp::Div | AluOp::Rem);
                self.charge(cost.alu);
            }
            MInst::Cmp { lhs, rhs } => {
                let r = match rhs {
                    RegImm::Reg(r) => t.regs[r.index()] as i64,
                    RegImm::Imm(i) => *i,
                };
                t.last_cmp = (t.regs[lhs.index()] as i64, r);
                self.charge(cost.alu);
            }
            MInst::SetCond { dst, cond } => {
                t.regs[dst.index()] = cond.eval(t.last_cmp.0, t.last_cmp.1) as u64;
                self.charge(cost.alu);
            }
            MInst::Jcc { cond, target } => {
                self.charge(cost.jump);
                if cond.eval(t.last_cmp.0, t.last_cmp.1) {
                    match self.image.inst_at_word(*target as u64) {
                        Some(i) => next_pc = i,
                        None => {
                            return Step::Done(Outcome::Fault(Fault::InvalidJump {
                                word: *target as u64,
                            }))
                        }
                    }
                }
            }
            MInst::Jmp { target } => {
                self.charge(cost.jump);
                match self.image.inst_at_word(*target as u64) {
                    Some(i) => next_pc = i,
                    None => {
                        return Step::Done(Outcome::Fault(Fault::InvalidJump {
                            word: *target as u64,
                        }))
                    }
                }
            }
            MInst::JmpReg { reg } => {
                self.charge(cost.jump);
                let target = t.regs[reg.index()];
                match self.image.inst_at_word(target) {
                    Some(i) => next_pc = i,
                    None => return Step::Done(Outcome::Fault(Fault::InvalidJump { word: target })),
                }
            }
            MInst::Load { dst, mem, size } => {
                let addr = self.ea(t, mem);
                self.data_access(addr);
                match self.memory.read(addr, *size as u64) {
                    Ok(v) => t.regs[dst.index()] = v,
                    Err(e) => return Step::Done(Outcome::Fault(Fault::Memory(e))),
                }
                self.stats.loads += 1;
                self.charge(cost.load);
            }
            MInst::Store { mem, src, size } => {
                let addr = self.ea(t, mem);
                self.data_access(addr);
                if let Err(e) = self.memory.write(addr, *size as u64, t.regs[src.index()]) {
                    return Step::Done(Outcome::Fault(Fault::Memory(e)));
                }
                self.stats.stores += 1;
                self.charge(cost.store);
            }
            MInst::Push { src } => {
                let rsp = t.regs[Reg::Rsp.index()] - 8;
                t.regs[Reg::Rsp.index()] = rsp;
                self.data_access(rsp);
                if let Err(e) = self.memory.write8(rsp, t.regs[src.index()]) {
                    return Step::Done(Outcome::Fault(Fault::Memory(e)));
                }
                self.charge(cost.push_pop);
            }
            MInst::Pop { dst } => {
                let rsp = t.regs[Reg::Rsp.index()];
                self.data_access(rsp);
                match self.memory.read8(rsp) {
                    Ok(v) => t.regs[dst.index()] = v,
                    Err(e) => return Step::Done(Outcome::Fault(Fault::Memory(e))),
                }
                t.regs[Reg::Rsp.index()] = rsp + 8;
                self.charge(cost.push_pop);
            }
            MInst::BndCheck { bnd, mem, upper } => {
                let addr = self.ea(t, mem);
                let (lo, hi) = match bnd {
                    BndReg::Bnd0 => image.bnd0(),
                    BndReg::Bnd1 => image.bnd1(),
                };
                let violated = if *upper { addr >= hi } else { addr < lo };
                if violated {
                    let region = match bnd {
                        BndReg::Bnd0 => Taint::Public,
                        BndReg::Bnd1 => Taint::Private,
                    };
                    return Step::Done(Outcome::Fault(Fault::Bounds { addr, region }));
                }
                self.stats.bound_checks += 1;
                let c = cost.check_cost(*prev_was_muldiv);
                self.stats.check_cycles += c;
                self.charge(c);
            }
            MInst::LoadCode { dst, addr } => {
                let w = t.regs[addr.index()];
                t.regs[dst.index()] = image.code_words.get(w as usize).copied().unwrap_or(0);
                self.stats.cfi_checks += 1;
                self.charge(cost.load_code);
            }
            MInst::ChkStk => {
                let rsp = t.regs[Reg::Rsp.index()];
                let base = image.layout.thread_stack_base(t.tid);
                let top = base + image.layout.thread_stack_size;
                if rsp < base || rsp > top {
                    return Step::Done(Outcome::Fault(Fault::StackCheck { rsp }));
                }
                self.charge(cost.chkstk);
            }
            MInst::CallDirect { target } => {
                self.charge(cost.call);
                let ret_word = image.word_of[t.pc] + 2;
                if let Err(e) = self.push_word(t, ret_word as u64) {
                    return Step::Done(Outcome::Fault(e));
                }
                match self.image.inst_at_word(*target as u64) {
                    Some(i) => next_pc = i,
                    None => {
                        return Step::Done(Outcome::Fault(Fault::InvalidJump {
                            word: *target as u64,
                        }))
                    }
                }
            }
            MInst::CallReg { reg } => {
                self.charge(cost.call);
                let target = t.regs[reg.index()];
                let ret_word = image.word_of[t.pc] + 2;
                if let Err(e) = self.push_word(t, ret_word as u64) {
                    return Step::Done(Outcome::Fault(e));
                }
                match self.image.inst_at_word(target) {
                    Some(i) => next_pc = i,
                    None => return Step::Done(Outcome::Fault(Fault::InvalidJump { word: target })),
                }
            }
            MInst::Ret => {
                self.charge(cost.ret);
                let rsp = t.regs[Reg::Rsp.index()];
                let word = match self.memory.read8(rsp) {
                    Ok(v) => v,
                    Err(e) => return Step::Done(Outcome::Fault(Fault::Memory(e))),
                };
                t.regs[Reg::Rsp.index()] = rsp + 8;
                match self.image.inst_at_word(word) {
                    Some(i) => next_pc = i,
                    None => return Step::Done(Outcome::Fault(Fault::InvalidJump { word })),
                }
            }
            MInst::CallExternal { index } => {
                match self.call_external(t, *index) {
                    Ok(()) => {}
                    Err(f) => return Step::Done(Outcome::Fault(f)),
                }
                // Skip (and validate) the return-site magic word the
                // wrapper would check on the way back into U.
                if image.cfi {
                    if let Some(MInst::MagicWord { value }) = image.insts.get(t.pc + 1) {
                        let spec_ret = image
                            .externs
                            .get(*index as usize)
                            .map(|e| e.ret_taint)
                            .unwrap_or(Taint::Public);
                        match image.prefixes.decode_ret(*value) {
                            Some(rt) if rt == spec_ret => next_pc = t.pc + 2,
                            _ => return Step::Done(Outcome::Fault(Fault::Cfi)),
                        }
                    }
                }
            }
            MInst::MagicWord { value } => {
                return Step::Done(Outcome::Fault(Fault::ExecutedMagic { word: *value }));
            }
            MInst::Trap { code } => {
                return Step::Done(match *code {
                    trap::EXIT => Outcome::Exit(t.regs[RET_REG.index()] as i64),
                    trap::CFI_FAIL => Outcome::Fault(Fault::Cfi),
                    trap::DIV_ZERO => Outcome::Fault(Fault::DivZero),
                    _ => Outcome::Fault(Fault::Abort),
                });
            }
        }
        *prev_was_muldiv = this_is_muldiv;
        t.pc = next_pc;
        Step::Continue
    }

    /// The block engine: dispatch over the image's shared [`BlockCache`].
    ///
    /// Whole blocks run with pre-summed accounting; everything the fast path
    /// cannot charge statically (data-cache effects, extern calls) happens in
    /// exact program order, and anything irregular — a mid-block indirect
    /// entry, a block that might exhaust fuel — falls back to
    /// [`Vm::step_inst`], so statistics, faults and observables are
    /// bit-identical to [`Engine::Legacy`].
    ///
    /// The loop is monomorphised on `PROFILE` (see [`Vm::exec_block_loop`]):
    /// the `false` instantiation contains no sampler code at all, so an
    /// unprofiled run pays nothing — not even a dead branch per block — for
    /// the profiler's existence.
    fn exec_block_loop_impl<const PROFILE: bool>(&mut self, t: &mut ThreadState) -> Outcome {
        let image = Arc::clone(&self.image);
        let Some(bc) = image.block_cache(self.opts.cost) else {
            // The shared translation was built under a different cost model;
            // run the reference interpreter rather than mis-charge.
            return self.exec_loop(t);
        };
        let cost = self.opts.cost;
        let fuel = self.opts.fuel;
        let n = image.insts.len();
        let mut executed: u64 = 0;
        let mut prev_was_muldiv = false;
        // Indirect-transfer targets resolved at a block leader (fast
        // dispatch) vs mid-block (single-step fall-back), reported once per
        // run as vm.blockcache.{hits,misses}.
        let mut lookup_hits: u64 = 0;
        let mut lookup_misses: u64 = 0;
        // Per-block static costs accumulate in locals (registers) and flush
        // into `self.stats` once after the loop: every contribution is an
        // addition and nothing reads the totals mid-run, so the final sums
        // are identical to the legacy engine's per-step updates.
        let mut acc_instructions: u64 = 0;
        let mut acc_cycles: u64 = 0;
        let mut acc_check_cycles: u64 = 0;
        let mut acc_loads: u64 = 0;
        let mut acc_stores: u64 = 0;
        let mut acc_bound_checks: u64 = 0;
        let mut acc_cfi_checks: u64 = 0;
        let mut acc_cache_hits: u64 = 0;
        let mut acc_cache_misses: u64 = 0;
        // Static edges carry their target's block index, so the common case
        // chains block to block without consulting `leader_block`; `NO_INDEX`
        // means "unknown — look it up" (indirect transfers, fall-back exits).
        let mut hint: u32 = NO_INDEX;
        // Deterministic sampling profiler.  The grid continues from the
        // VM's running cycle total so pooled per-request runs sample one
        // continuous virtual timeline.
        let mut sampler = if PROFILE {
            let interval = confllvm_obs::prof::profiler().interval();
            Some(Sampler {
                interval,
                next: (self.stats.cycles / interval + 1) * interval,
                stack: Vec::new(),
                over_cap: 0,
                raw: Vec::new(),
                tid: t.tid as u64,
            })
        } else {
            None
        };
        let outcome = 'dispatch: loop {
            let bi = if hint != NO_INDEX {
                std::mem::replace(&mut hint, NO_INDEX)
            } else if t.pc < n {
                // SAFETY: `leader_block.len() == n` by construction.
                unsafe { *bc.leader_block.get_unchecked(t.pc) }
            } else {
                NO_INDEX
            };
            if bi == NO_INDEX {
                match self.step_inst(&image, t, &mut executed, &mut prev_was_muldiv) {
                    Step::Continue => continue 'dispatch,
                    Step::Done(o) => break 'dispatch o,
                }
            }
            // SAFETY: every non-`NO_INDEX` entry of `leader_block` and every
            // patched static edge holds a valid index into `blocks`.
            let block = unsafe { bc.blocks.get_unchecked(bi as usize) };
            if fuel - executed < block.steps {
                match self.step_inst(&image, t, &mut executed, &mut prev_was_muldiv) {
                    Step::Continue => continue 'dispatch,
                    Step::Done(o) => break 'dispatch o,
                }
            }
            // --- straight-line run: live semantics, pre-summed accounting --
            let entry_muldiv = prev_was_muldiv;
            let vbefore = if PROFILE {
                self.stats.cycles + acc_cycles + acc_cache_misses * cost.cache_miss
            } else {
                0
            };
            if let Err((k, fault)) = run_ops(
                &block.ops,
                t,
                &mut self.cache,
                &mut self.memory,
                &image,
                &mut acc_cache_hits,
                &mut acc_cache_misses,
            ) {
                self.account_block_prefix(&image, block, k, prev_was_muldiv, &cost);
                break 'dispatch Outcome::Fault(fault);
            }
            let straight = block.ops.len() as u64;
            executed += straight;
            acc_instructions += straight;
            let mut cycles = block.cycles;
            let mut check_cycles = block.check_cycles;
            if block.first_is_bndcheck && prev_was_muldiv && cost.dual_issue_checks {
                // The pre-summed totals assume the leading bound check is not
                // dual-issued; the previous block ended in a mul/div, so it
                // actually was free.
                cycles -= cost.bnd_check;
                check_cycles -= cost.bnd_check;
            }
            acc_cycles += cycles;
            acc_check_cycles += check_cycles;
            acc_loads += block.loads;
            acc_stores += block.stores;
            acc_bound_checks += block.bound_checks;
            acc_cfi_checks += block.cfi_checks;
            prev_was_muldiv = block.ends_muldiv;
            if PROFILE {
                if let Some(s) = sampler.as_mut() {
                    let vnow = self.stats.cycles + acc_cycles + acc_cache_misses * cost.cache_miss;
                    if s.next <= vnow {
                        s.sample_block(&image, block, &cost, vbefore, vnow, entry_muldiv);
                    }
                }
            }
            // --- terminator ------------------------------------------------
            if let Terminator::FallThrough { next, next_block } = &block.term {
                // Not a step: the next leader continues the straight line,
                // and the dual-issue state carries across the edge.
                t.pc = *next as usize;
                hint = *next_block;
                continue 'dispatch;
            }
            executed += 1;
            acc_instructions += 1;
            prev_was_muldiv = false;
            match &block.term {
                Terminator::FallThrough { .. } => unreachable!("handled above"),
                Terminator::Jmp { target } => {
                    acc_cycles += cost.jump;
                    match target {
                        BlockTarget::Inst { inst, block } => {
                            t.pc = *inst as usize;
                            hint = *block;
                        }
                        BlockTarget::Invalid(w) => {
                            break 'dispatch Outcome::Fault(Fault::InvalidJump { word: *w })
                        }
                    }
                }
                Terminator::Jcc {
                    cond,
                    taken,
                    fall,
                    fall_block,
                } => {
                    acc_cycles += cost.jump;
                    if cond.eval(t.last_cmp.0, t.last_cmp.1) {
                        match taken {
                            BlockTarget::Inst { inst, block } => {
                                t.pc = *inst as usize;
                                hint = *block;
                            }
                            BlockTarget::Invalid(w) => {
                                break 'dispatch Outcome::Fault(Fault::InvalidJump { word: *w })
                            }
                        }
                    } else {
                        t.pc = *fall as usize;
                        hint = *fall_block;
                    }
                }
                Terminator::JmpReg { reg } => {
                    acc_cycles += cost.jump;
                    let word = t.regs[*reg as usize];
                    match image.inst_at_word(word) {
                        Some(i) => {
                            let b = bc.leader_block[i];
                            if b != NO_INDEX {
                                lookup_hits += 1;
                                hint = b;
                            } else {
                                lookup_misses += 1;
                            }
                            t.pc = i;
                        }
                        None => break 'dispatch Outcome::Fault(Fault::InvalidJump { word }),
                    }
                }
                Terminator::CallDirect { target, ret_word } => {
                    acc_cycles += cost.call;
                    if let Err(e) = self.push_word(t, *ret_word) {
                        break 'dispatch Outcome::Fault(e);
                    }
                    if PROFILE {
                        if let Some(s) = sampler.as_mut() {
                            s.call(image.proc_of_inst[block.start as usize]);
                        }
                    }
                    match target {
                        BlockTarget::Inst { inst, block } => {
                            t.pc = *inst as usize;
                            hint = *block;
                        }
                        BlockTarget::Invalid(w) => {
                            break 'dispatch Outcome::Fault(Fault::InvalidJump { word: *w })
                        }
                    }
                }
                Terminator::CallReg { reg, ret_word } => {
                    acc_cycles += cost.call;
                    let word = t.regs[*reg as usize];
                    if let Err(e) = self.push_word(t, *ret_word) {
                        break 'dispatch Outcome::Fault(e);
                    }
                    if PROFILE {
                        if let Some(s) = sampler.as_mut() {
                            s.call(image.proc_of_inst[block.start as usize]);
                        }
                    }
                    match image.inst_at_word(word) {
                        Some(i) => {
                            let b = bc.leader_block[i];
                            if b != NO_INDEX {
                                lookup_hits += 1;
                                hint = b;
                            } else {
                                lookup_misses += 1;
                            }
                            t.pc = i;
                        }
                        None => break 'dispatch Outcome::Fault(Fault::InvalidJump { word }),
                    }
                }
                Terminator::Ret => {
                    acc_cycles += cost.ret;
                    if PROFILE {
                        if let Some(s) = sampler.as_mut() {
                            s.ret();
                        }
                    }
                    let rsp = t.regs[Reg::Rsp.index()];
                    let word = match self.memory.read8(rsp) {
                        Ok(v) => v,
                        Err(e) => break 'dispatch Outcome::Fault(Fault::Memory(e)),
                    };
                    t.regs[Reg::Rsp.index()] = rsp + 8;
                    match image.inst_at_word(word) {
                        Some(i) => {
                            let b = bc.leader_block[i];
                            if b != NO_INDEX {
                                lookup_hits += 1;
                                hint = b;
                            } else {
                                lookup_misses += 1;
                            }
                            t.pc = i;
                        }
                        None => break 'dispatch Outcome::Fault(Fault::InvalidJump { word }),
                    }
                }
                Terminator::CallExternal { index, post } => {
                    if let Err(f) = self.call_external(t, *index) {
                        break 'dispatch Outcome::Fault(f);
                    }
                    match post {
                        PostExtern::Next { inst, block } => {
                            t.pc = *inst as usize;
                            hint = *block;
                        }
                        PostExtern::CfiFault => break 'dispatch Outcome::Fault(Fault::Cfi),
                    }
                }
                Terminator::Magic { value } => {
                    break 'dispatch Outcome::Fault(Fault::ExecutedMagic { word: *value });
                }
                Terminator::Trap { code } => {
                    break 'dispatch match *code {
                        trap::EXIT => Outcome::Exit(t.regs[RET_REG.index()] as i64),
                        trap::CFI_FAIL => Outcome::Fault(Fault::Cfi),
                        trap::DIV_ZERO => Outcome::Fault(Fault::DivZero),
                        _ => Outcome::Fault(Fault::Abort),
                    };
                }
                Terminator::OffEnd => {
                    // The legacy engine counts the phantom step past the end
                    // of the stream and faults with the off-end index.
                    break 'dispatch Outcome::Fault(Fault::InvalidJump {
                        word: (block.start as usize + block.ops.len()) as u64,
                    });
                }
            }
        };
        self.stats.instructions += acc_instructions;
        self.stats.cycles += acc_cycles;
        self.stats.check_cycles += acc_check_cycles;
        self.stats.loads += acc_loads;
        self.stats.stores += acc_stores;
        self.stats.bound_checks += acc_bound_checks;
        self.stats.cfi_checks += acc_cfi_checks;
        self.stats.cache_hits += acc_cache_hits;
        self.stats.cache_misses += acc_cache_misses;
        self.stats.cycles += acc_cache_misses * cost.cache_miss;
        if lookup_hits > 0 || lookup_misses > 0 {
            let rec = confllvm_obs::recorder();
            rec.count("vm.blockcache.hits", lookup_hits);
            rec.count("vm.blockcache.misses", lookup_misses);
        }
        if PROFILE {
            if let Some(s) = sampler {
                s.flush(&image);
            }
        }
        outcome
    }

    /// Dispatch to the profiled or unprofiled instantiation of
    /// [`Vm::exec_block_loop_impl`] — one relaxed load per run; the
    /// unprofiled loop is byte-for-byte the pre-profiler codegen.
    fn exec_block_loop(&mut self, t: &mut ThreadState) -> Outcome {
        if self.opts.profile || confllvm_obs::prof::profiler().enabled() {
            self.exec_block_loop_impl::<true>(t)
        } else {
            self.exec_block_loop_impl::<false>(t)
        }
    }

    /// Legacy-identical accounting for a block that faulted at straight-line
    /// offset `k`: the completed prefix contributes its static costs; the
    /// faulting instruction counts as executed but charges nothing (the
    /// legacy engine faults before charging the class cost).  Faults are
    /// terminal, so the O(k) re-walk happens at most once per run.
    fn account_block_prefix(
        &mut self,
        image: &Image,
        block: &Block,
        k: usize,
        entry_muldiv: bool,
        cost: &CostModel,
    ) {
        self.stats.instructions += k as u64 + 1;
        let start = block.start as usize;
        let mut acc = StaticAcc::default();
        let mut prev = entry_muldiv;
        for inst in &image.insts[start..start + k] {
            prev = crate::translate::accumulate_static(inst, cost, prev, &mut acc);
        }
        self.stats.cycles += acc.cycles;
        self.stats.check_cycles += acc.check_cycles;
        self.stats.loads += acc.loads;
        self.stats.stores += acc.stores;
        self.stats.bound_checks += acc.bound_checks;
        self.stats.cfi_checks += acc.cfi_checks;
    }

    fn push_word(&mut self, t: &mut ThreadState, value: u64) -> Result<(), Fault> {
        let rsp = t.regs[Reg::Rsp.index()] - 8;
        t.regs[Reg::Rsp.index()] = rsp;
        self.data_access(rsp);
        self.memory.write8(rsp, value).map_err(Fault::Memory)
    }

    fn call_external(&mut self, t: &mut ThreadState, index: u16) -> Result<(), Fault> {
        // Borrow the spec through a handle on the image rather than cloning
        // its name and taint lists on every trusted call.
        let image = Arc::clone(&self.image);
        let Some(spec) = image.externs.get(index as usize) else {
            return Err(Fault::UnknownExtern { index });
        };
        let args = [
            t.regs[ARG_REGS[0].index()] as i64,
            t.regs[ARG_REGS[1].index()] as i64,
            t.regs[ARG_REGS[2].index()] as i64,
            t.regs[ARG_REGS[3].index()] as i64,
        ];
        let strict = trusted::strict_for_scheme(image.scheme);
        let mut ctx = TrustedCtx {
            memory: &mut self.memory,
            world: &mut self.world,
            layout: &image.layout,
            pub_heap: &mut self.pub_heap,
            priv_heap: &mut self.priv_heap,
            strict_regions: strict,
        };
        match trusted::call(&mut ctx, &spec.name, args) {
            Ok(res) => {
                t.regs[RET_REG.index()] = res.ret as u64;
                self.stats.extern_calls += 1;
                self.stats.extern_bytes += res.bytes_copied;
                let mut cycles = self.opts.cost.extern_base
                    + res.bytes_copied / 4 * self.opts.cost.extern_per_4_bytes;
                if image.separate_trusted_memory {
                    cycles += self.opts.cost.trusted_switch;
                    self.stats.stack_switches += 1;
                }
                self.stats.extern_cycles += cycles;
                self.charge(cycles);
                // All caller-saved registers are clobbered by the call (the
                // wrapper clears them so no private value survives in a dead
                // register, Section 4).
                for r in confllvm_machine::CALLER_SAVED {
                    if r != RET_REG {
                        t.regs[r.index()] = 0;
                    }
                }
                Ok(())
            }
            Err(e) => Err(Fault::Trusted(e)),
        }
    }
}

/// Execute a block's predecoded straight-line ops with live semantics but
/// deferred static accounting.  Data-cache accesses happen in exact program
/// order, so the simulated cache ends in the same state as under the legacy
/// engine; their outcomes are counted in locals and added to `hits` and
/// `misses` once, on every exit.  On a fault, returns the op offset so the
/// caller can re-sum the executed prefix per instruction.
///
/// A function over exactly what the ops touch rather than a `&mut Vm`
/// method: each borrow is its own parameter the compiler may assume
/// nothing else aliases, so a guest store through the TLB's raw page
/// pointer does not make it reload the cache's tags, the TLB pointer or
/// the register file's address through the VM, and both instantiations of
/// the dispatch loop (profiled and unprofiled) call one copy of it.
fn run_ops(
    ops: &[Op],
    t: &mut ThreadState,
    cache: &mut DataCache,
    memory: &mut Memory,
    image: &Image,
    hits: &mut u64,
    misses: &mut u64,
) -> Result<(), (usize, Fault)> {
    let rsp_slot = Reg::Rsp.index();
    let (mut hit_count, mut miss_count) = (0u64, 0u64);
    let mut access = |addr: u64| {
        if cache.access(addr) {
            hit_count += 1;
        } else {
            miss_count += 1;
        }
    };
    let bounds = |addr: u64, region: Taint| Fault::Bounds { addr, region };
    let regs = &mut t.regs;
    let result = 'run: {
        let mut k = 0;
        while k < ops.len() {
            // SAFETY: `k < ops.len()` is the loop condition; fused arms only
            // advance `k` past the shadowed slots the translator gave them.
            let op = unsafe { ops.get_unchecked(k) };
            match *op {
                Op::Nop => {}
                Op::MovImm { dst, imm } => regs[dst as usize & 15] = imm,
                Op::MovReg { dst, src } => regs[dst as usize & 15] = regs[src as usize & 15],
                Op::MovConst { dst, value } => regs[dst as usize & 15] = value,
                Op::Lea { dst, mem } => regs[dst as usize & 15] = mem.ea(regs),
                Op::AluReg { op, dst, src } => {
                    let rhs = regs[src as usize & 15] as i64;
                    if matches!(op, AluOp::Div | AluOp::Rem) && rhs == 0 {
                        break 'run Err((k, Fault::DivZero));
                    }
                    let lhs = regs[dst as usize & 15] as i64;
                    regs[dst as usize & 15] = op.eval(lhs, rhs) as u64;
                }
                Op::AluImm { op, dst, imm } => {
                    if matches!(op, AluOp::Div | AluOp::Rem) && imm == 0 {
                        break 'run Err((k, Fault::DivZero));
                    }
                    let lhs = regs[dst as usize & 15] as i64;
                    regs[dst as usize & 15] = op.eval(lhs, imm) as u64;
                }
                Op::CmpReg { lhs, rhs } => {
                    t.last_cmp = (
                        regs[lhs as usize & 15] as i64,
                        regs[rhs as usize & 15] as i64,
                    );
                }
                Op::CmpImm { lhs, imm } => t.last_cmp = (regs[lhs as usize & 15] as i64, imm),
                Op::SetCond { dst, cond } => {
                    regs[dst as usize & 15] = cond.eval(t.last_cmp.0, t.last_cmp.1) as u64;
                }
                Op::Load8 { dst, mem } => {
                    let addr = mem.ea(regs);
                    access(addr);
                    match memory.read8(addr) {
                        Ok(v) => regs[dst as usize & 15] = v,
                        Err(e) => break 'run Err((k, Fault::Memory(e))),
                    }
                }
                Op::Store8 { src, mem } => {
                    let addr = mem.ea(regs);
                    access(addr);
                    if let Err(e) = memory.write8(addr, regs[src as usize & 15]) {
                        break 'run Err((k, Fault::Memory(e)));
                    }
                }
                Op::Load8Sp { dst, off } => {
                    let addr = regs[rsp_slot].wrapping_add(off);
                    access(addr);
                    match memory.read8(addr) {
                        Ok(v) => regs[dst as usize & 15] = v,
                        Err(e) => break 'run Err((k, Fault::Memory(e))),
                    }
                }
                Op::Store8Sp { src, off } => {
                    let addr = regs[rsp_slot].wrapping_add(off);
                    access(addr);
                    if let Err(e) = memory.write8(addr, regs[src as usize & 15]) {
                        break 'run Err((k, Fault::Memory(e)));
                    }
                }
                Op::StoreLoad8Sp {
                    src,
                    store_off,
                    dst,
                    load_off,
                } => {
                    let addr = regs[rsp_slot].wrapping_add(store_off);
                    access(addr);
                    if let Err(e) = memory.write8(addr, regs[src as usize & 15]) {
                        break 'run Err((k, Fault::Memory(e)));
                    }
                    let addr = regs[rsp_slot].wrapping_add(load_off);
                    access(addr);
                    match memory.read8(addr) {
                        Ok(v) => regs[dst as usize & 15] = v,
                        Err(e) => break 'run Err((k + 1, Fault::Memory(e))),
                    }
                    k += 1;
                }
                Op::MovAluImm { op, dst, src, imm } => {
                    regs[dst as usize & 15] = regs[src as usize & 15];
                    if matches!(op, AluOp::Div | AluOp::Rem) && imm == 0 {
                        break 'run Err((k + 1, Fault::DivZero));
                    }
                    let lhs = regs[dst as usize & 15] as i64;
                    regs[dst as usize & 15] = op.eval(lhs, imm) as u64;
                    k += 1;
                }
                Op::Load { dst, mem, size } => {
                    let addr = mem.ea(regs);
                    access(addr);
                    match memory.read(addr, size as u64) {
                        Ok(v) => regs[dst as usize & 15] = v,
                        Err(e) => break 'run Err((k, Fault::Memory(e))),
                    }
                }
                Op::Store { src, mem, size } => {
                    let addr = mem.ea(regs);
                    access(addr);
                    if let Err(e) = memory.write(addr, size as u64, regs[src as usize & 15]) {
                        break 'run Err((k, Fault::Memory(e)));
                    }
                }
                Op::Push { src } => {
                    let rsp = regs[rsp_slot] - 8;
                    regs[rsp_slot] = rsp;
                    access(rsp);
                    if let Err(e) = memory.write8(rsp, regs[src as usize & 15]) {
                        break 'run Err((k, Fault::Memory(e)));
                    }
                }
                Op::Pop { dst } => {
                    let rsp = regs[rsp_slot];
                    access(rsp);
                    match memory.read8(rsp) {
                        Ok(v) => regs[dst as usize & 15] = v,
                        Err(e) => break 'run Err((k, Fault::Memory(e))),
                    }
                    regs[rsp_slot] = rsp + 8;
                }
                Op::BndCheck {
                    mem,
                    bound,
                    upper,
                    region,
                } => {
                    let addr = mem.ea(regs);
                    let violated = if upper { addr >= bound } else { addr < bound };
                    if violated {
                        break 'run Err((k, bounds(addr, region)));
                    }
                }
                Op::CheckedLoad8 {
                    dst,
                    mem,
                    lo,
                    hi,
                    region,
                } => {
                    let addr = mem.ea(regs);
                    if addr < lo {
                        break 'run Err((k, bounds(addr, region)));
                    }
                    if addr >= hi {
                        break 'run Err((k + 1, bounds(addr, region)));
                    }
                    access(addr);
                    match memory.read8(addr) {
                        Ok(v) => regs[dst as usize & 15] = v,
                        Err(e) => break 'run Err((k + 2, Fault::Memory(e))),
                    }
                    k += 2;
                }
                Op::CheckedStore8 {
                    src,
                    mem,
                    lo,
                    hi,
                    region,
                } => {
                    let addr = mem.ea(regs);
                    if addr < lo {
                        break 'run Err((k, bounds(addr, region)));
                    }
                    if addr >= hi {
                        break 'run Err((k + 1, bounds(addr, region)));
                    }
                    access(addr);
                    if let Err(e) = memory.write8(addr, regs[src as usize & 15]) {
                        break 'run Err((k + 2, Fault::Memory(e)));
                    }
                    k += 2;
                }
                Op::CheckPair {
                    mem,
                    lo,
                    hi,
                    region,
                } => {
                    let addr = mem.ea(regs);
                    if addr < lo {
                        break 'run Err((k, bounds(addr, region)));
                    }
                    if addr >= hi {
                        break 'run Err((k + 1, bounds(addr, region)));
                    }
                    k += 1;
                }
                Op::LoadCode { dst, addr } => {
                    let w = regs[addr as usize & 15];
                    regs[dst as usize & 15] =
                        image.code_words.get(w as usize).copied().unwrap_or(0);
                }
                Op::ChkStk => {
                    let rsp = regs[rsp_slot];
                    let base = image.layout.thread_stack_base(t.tid);
                    let top = base + image.layout.thread_stack_size;
                    if rsp < base || rsp > top {
                        break 'run Err((k, Fault::StackCheck { rsp }));
                    }
                }
            }
            k += 1;
        }
        Ok(())
    };
    *hits += hit_count;
    *misses += miss_count;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use confllvm_machine::program::FuncSym;
    use confllvm_machine::{MagicPrefixes, Scheme};

    /// Hand-assemble a tiny program: main() { return 41 + 1; }
    fn tiny_program(scheme: Scheme) -> Program {
        Program {
            name: "tiny".into(),
            insts: vec![
                MInst::MovImm {
                    dst: Reg::Rax,
                    imm: 41,
                },
                MInst::Alu {
                    op: AluOp::Add,
                    dst: Reg::Rax,
                    src: RegImm::Imm(1),
                },
                MInst::Ret,
            ],
            functions: vec![FuncSym {
                name: "main".into(),
                magic_word: None,
                entry_word: 0,
                arg_taints: [Taint::Private; 4],
                ret_taint: Taint::Public,
            }],
            globals: vec![],
            externs: vec![],
            entry_function: 0,
            prefixes: MagicPrefixes::test_defaults(),
            scheme,
            cfi: false,
            separate_trusted_memory: false,
            split_stacks: false,
        }
    }

    #[test]
    fn runs_a_hand_assembled_program() {
        let result = Vm::new(
            &tiny_program(Scheme::None),
            VmOptions::default(),
            World::new(),
        )
        .unwrap()
        .run();
        assert_eq!(result.exit_code(), Some(42));
        assert!(result.stats.instructions >= 3);
        assert!(result.stats.cycles > 0);
    }

    #[test]
    fn bound_check_faults_outside_region() {
        let mut p = tiny_program(Scheme::Mpx);
        // Check an address far outside the public region.
        p.insts.insert(
            0,
            MInst::MovImm {
                dst: Reg::Rcx,
                imm: 0x10,
            },
        );
        p.insts.insert(
            1,
            MInst::BndCheck {
                bnd: confllvm_machine::BndReg::Bnd0,
                mem: MemOperand::base(Reg::Rcx),
                upper: false,
            },
        );
        let result = Vm::new(&p, VmOptions::default(), World::new())
            .unwrap()
            .run();
        assert!(matches!(
            result.outcome,
            Outcome::Fault(Fault::Bounds { .. })
        ));
    }

    #[test]
    fn guard_region_access_faults() {
        let mut p = tiny_program(Scheme::Segment);
        // Load from an unmapped address (below the public region).
        p.insts.insert(
            0,
            MInst::MovImm {
                dst: Reg::Rcx,
                imm: 0x100,
            },
        );
        p.insts.insert(
            1,
            MInst::Load {
                dst: Reg::Rdx,
                mem: MemOperand::base(Reg::Rcx),
                size: 8,
            },
        );
        let result = Vm::new(&p, VmOptions::default(), World::new())
            .unwrap()
            .run();
        assert!(matches!(result.outcome, Outcome::Fault(Fault::Memory(_))));
    }

    #[test]
    fn wall_cycles_aggregates_round_robin() {
        let stats = ExecStats {
            thread_cycles: vec![100, 100, 100, 100, 100],
            ..Default::default()
        };
        assert_eq!(stats.wall_cycles(4), 200);
        assert_eq!(stats.wall_cycles(8), 100);
        assert_eq!(stats.wall_cycles(1), 500);
    }

    #[test]
    fn snapshot_restore_rewinds_globals_heaps_and_world() {
        // main() { return ++counter; } against a global counter: without a
        // restore the second run sees the first run's store; with one it
        // re-executes from identical state.
        let mut p = tiny_program(Scheme::None);
        p.insts = vec![
            MInst::MovGlobal {
                dst: Reg::Rcx,
                index: 0,
            },
            MInst::Load {
                dst: Reg::Rax,
                mem: MemOperand::base(Reg::Rcx),
                size: 8,
            },
            MInst::Alu {
                op: AluOp::Add,
                dst: Reg::Rax,
                src: RegImm::Imm(1),
            },
            MInst::Store {
                mem: MemOperand::base(Reg::Rcx),
                src: Reg::Rax,
                size: 8,
            },
            MInst::Ret,
        ];
        p.globals = vec![confllvm_machine::program::GlobalSpec {
            name: "counter".into(),
            size: 8,
            taint: Taint::Public,
            init: vec![0; 8],
        }];
        let mut vm = Vm::new(&p, VmOptions::default(), World::new()).unwrap();
        vm.world.log.extend_from_slice(b"boot");
        let snap = vm.snapshot();
        assert!(snap.captured_pages() > 0);
        assert_eq!(vm.run().exit_code(), Some(1));
        vm.world.log.extend_from_slice(b"req");
        assert_eq!(
            vm.run().exit_code(),
            Some(2),
            "state persists without restore"
        );
        let r = vm.restore(&snap);
        assert!(r.dirty_pages > 0, "the counter page (and stack) were dirty");
        // World fields rewound to their snapshot state.
        assert_eq!(vm.world.log, b"boot".to_vec());
        assert_eq!(vm.run().exit_code(), Some(1), "restore rewound the global");
    }

    /// main() { return ++counter; } against a global counter — any state
    /// shared between two VMs running this is immediately visible in the
    /// exit code.
    fn counter_program() -> Program {
        let mut p = tiny_program(Scheme::None);
        p.insts = vec![
            MInst::MovGlobal {
                dst: Reg::Rcx,
                index: 0,
            },
            MInst::Load {
                dst: Reg::Rax,
                mem: MemOperand::base(Reg::Rcx),
                size: 8,
            },
            MInst::Alu {
                op: AluOp::Add,
                dst: Reg::Rax,
                src: RegImm::Imm(1),
            },
            MInst::Store {
                mem: MemOperand::base(Reg::Rcx),
                src: Reg::Rax,
                size: 8,
            },
            MInst::Ret,
        ];
        p.globals = vec![confllvm_machine::program::GlobalSpec {
            name: "counter".into(),
            size: 8,
            taint: Taint::Public,
            init: vec![0; 8],
        }];
        p
    }

    #[test]
    fn forks_of_one_snapshot_never_observe_each_others_writes() {
        let p = counter_program();
        let mut base = Vm::new(&p, VmOptions::default(), World::new()).unwrap();
        let snap = base.snapshot();
        let mut f1 = base.fork(&snap, World::new());
        let mut f2 = base.fork(&snap, World::new());
        assert_eq!(f1.resident_private_pages(), 0, "a fresh fork owns nothing");
        assert_eq!(f1.run().exit_code(), Some(1));
        assert_eq!(f1.run().exit_code(), Some(2));
        assert_eq!(f2.run().exit_code(), Some(1), "f2 never saw f1's store");
        assert_eq!(base.run().exit_code(), Some(1), "base untouched by forks");
        assert!(f1.cow_faults() > 0, "the counter store CoW-faulted");
        assert!(f1.resident_private_pages() > 0);
        // Restoring a fork to the shared snapshot releases its private
        // copies: per-session resident cost returns to zero.
        f1.restore(&snap);
        assert_eq!(f1.resident_private_pages(), 0);
        assert_eq!(f1.run().exit_code(), Some(1), "fork rewound to template");
    }

    #[test]
    fn forked_data_caches_are_private_to_each_session() {
        // If forks shared cache state, f2's first run would hit lines f1
        // already warmed and report fewer misses than f1's first run did.
        let p = counter_program();
        let mut base = Vm::new(&p, VmOptions::default(), World::new()).unwrap();
        let snap = base.snapshot();
        let mut f1 = base.fork(&snap, World::new());
        let mut f2 = base.fork(&snap, World::new());
        f1.run();
        let f1_first_run_misses = f1.stats.cache_misses;
        f1.run(); // warm f1's cache further
        f2.run();
        assert_eq!(
            f2.stats.cache_misses, f1_first_run_misses,
            "a fork's cache starts from the snapshot state, not a sibling's"
        );
    }

    #[test]
    fn a_fork_of_an_unrun_forks_snapshot_runs_like_a_direct_fork() {
        // The base runs first, so its snapshot carries a warm cache; a fork
        // that never ran passes that state on through its own snapshot.
        let p = counter_program();
        let mut base = Vm::new(&p, VmOptions::default(), World::new()).unwrap();
        base.run();
        let snap = base.snapshot();
        let mut idle = base.fork(&snap, World::new());
        let idle_snap = idle.snapshot();
        let mut direct = base.fork(&snap, World::new());
        let mut second = idle.fork(&idle_snap, World::new());
        let (a, b) = (direct.run(), second.run());
        assert_eq!(a.exit_code(), Some(2));
        assert_eq!(b.exit_code(), Some(2));
        assert!(a.stats.cache_hits > 0, "the inherited cache is warm");
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn executing_a_magic_word_faults() {
        let prefixes = MagicPrefixes::test_defaults();
        let mut p = tiny_program(Scheme::None);
        p.insts.insert(
            0,
            MInst::MagicWord {
                value: prefixes.call_word([Taint::Public; 4], Taint::Public),
            },
        );
        // Entry still points at word 0, which now is the magic word.
        let result = Vm::new(&p, VmOptions::default(), World::new())
            .unwrap()
            .run();
        assert!(matches!(
            result.outcome,
            Outcome::Fault(Fault::ExecutedMagic { .. })
        ));
    }
}
