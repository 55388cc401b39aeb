//! The functional interpreter.

use std::fmt;
use std::time::{Duration, Instant};

use loopspec_asm::Program;
use loopspec_isa::{Addr, Instruction, Reg};

use crate::mem::Memory;
use crate::tracer::{ArchReg, ControlOutcome, InstrEvent, MemAccess, RegRead, RegWrite, Tracer};

/// Why a run stopped without error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// The program executed a `halt` instruction.
    Halted,
    /// The instruction budget ([`RunLimits::max_instrs`]) was exhausted.
    OutOfFuel,
}

/// Result of a successful [`Cpu::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Number of retired instructions.
    pub retired: u64,
    /// Why execution stopped.
    pub completion: Completion,
    /// Wall-clock time the run took (diagnostic; see
    /// [`instrs_per_sec`](RunSummary::instrs_per_sec)).
    pub elapsed: Duration,
}

impl RunSummary {
    /// `true` when the program halted of its own accord.
    pub fn halted(&self) -> bool {
        self.completion == Completion::Halted
    }

    /// Interpreter throughput for this run: retired instructions per
    /// wall-clock second (`0.0` for an empty or unmeasurably short
    /// run).
    pub fn instrs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.retired as f64 / secs
        } else {
            0.0
        }
    }
}

/// Simulator faults (distinct from orderly completion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuError {
    /// Control flowed outside the program code.
    PcOutOfRange {
        /// The faulting program counter.
        pc: Addr,
    },
    /// An indirect jump/call/return targeted an address that does not fit
    /// the code address space.
    BadIndirectTarget {
        /// PC of the faulting instruction.
        pc: Addr,
        /// The register value used as a target.
        value: u64,
    },
    /// The data-memory footprint exceeded [`RunLimits::max_pages`].
    MemoryLimit {
        /// Pages allocated when the limit tripped.
        pages: usize,
    },
    /// A `KernelCall` named an id absent from the kernel registry
    /// (see [`loopspec_isa::kernel`]).
    UnknownKernel {
        /// The unregistered kernel id.
        id: u32,
        /// PC of the faulting `KernelCall`.
        pc: Addr,
    },
}

impl fmt::Display for CpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuError::PcOutOfRange { pc } => write!(f, "pc {pc} outside program code"),
            CpuError::BadIndirectTarget { pc, value } => {
                write!(
                    f,
                    "indirect target {value:#x} at {pc} is not a code address"
                )
            }
            CpuError::MemoryLimit { pages } => {
                write!(f, "data memory exceeded limit ({pages} pages allocated)")
            }
            CpuError::UnknownKernel { id, pc } => {
                write!(f, "kernel call at {pc} names unregistered kernel id {id}")
            }
        }
    }
}

impl std::error::Error for CpuError {}

/// Resource limits for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLimits {
    /// Maximum instructions to retire before stopping with
    /// [`Completion::OutOfFuel`].
    pub max_instrs: u64,
    /// Maximum data-memory pages (32 KiB each) before faulting with
    /// [`CpuError::MemoryLimit`].
    pub max_pages: usize,
}

impl Default for RunLimits {
    /// 100 M instructions, 64 Ki pages (2 GiB of data memory).
    fn default() -> Self {
        RunLimits {
            max_instrs: 100_000_000,
            max_pages: 1 << 16,
        }
    }
}

impl RunLimits {
    /// Limits with a specific instruction budget.
    pub fn with_fuel(max_instrs: u64) -> Self {
        RunLimits {
            max_instrs,
            ..Self::default()
        }
    }
}

/// The SLA functional simulator.
///
/// Holds the architectural state (integer and FP register files, data
/// memory); [`Cpu::run`] executes a [`Program`] from its entry point,
/// invoking a [`Tracer`] on every retired instruction. State persists
/// across `run` calls, so phased execution is possible, but the common
/// pattern is one fresh `Cpu` per program.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Cpu {
    pub(crate) regs: [u64; 32],
    pub(crate) fregs: [f64; 32],
    pub(crate) pc: Addr,
    pub(crate) mem: Memory,
    pub(crate) retired: u64,
    /// Out-of-band dispatch counters (see [`crate::DecodedTelemetry`]):
    /// bumped by the decoded front-end, never serialized by
    /// [`Cpu::save_state`], never read by execution.
    pub(crate) telem: crate::DecodedTelemetry,
    /// Mid-body kernel pause cursor (see [`crate::kernel`]); `None`
    /// whenever the CPU sits between whole instructions.
    pub(crate) kernel: Option<crate::kernel::KernelResume>,
    /// How `KernelCall` bodies execute. Not architectural: every mode
    /// produces the same events, state and snapshot bytes.
    pub(crate) kernel_mode: crate::KernelMode,
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Cpu {
    /// Creates a CPU with zeroed registers and empty memory.
    pub fn new() -> Self {
        Cpu {
            regs: [0; 32],
            fregs: [0.0; 32],
            pc: Addr::ZERO,
            mem: Memory::new(),
            retired: 0,
            telem: crate::DecodedTelemetry::default(),
            kernel: None,
            kernel_mode: crate::KernelMode::Native,
        }
    }

    /// Selects how `KernelCall` bodies execute (see
    /// [`crate::KernelMode`]). Purely an implementation choice: every
    /// mode yields identical events, architectural state and snapshot
    /// bytes, so this can be flipped at any instruction boundary —
    /// even between the fuel slices of one paused kernel.
    pub fn set_kernel_mode(&mut self, mode: crate::KernelMode) {
        self.kernel_mode = mode;
    }

    /// The current kernel execution mode.
    pub fn kernel_mode(&self) -> crate::KernelMode {
        self.kernel_mode
    }

    /// Returns the decoded-dispatch telemetry accumulated since the
    /// last take (or construction) and resets it to zero. Purely
    /// observational: taking (or ignoring) it never affects execution,
    /// snapshots, or reports.
    pub fn take_decoded_telemetry(&mut self) -> crate::DecodedTelemetry {
        std::mem::take(&mut self.telem)
    }

    /// Reads an integer register.
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Reads an FP register.
    #[inline]
    pub fn freg(&self, r: loopspec_isa::FReg) -> f64 {
        self.fregs[r.index()]
    }

    /// Writes an integer register (writes to `r0` are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Immutable view of data memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable view of data memory (for pre-loading inputs).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Total instructions retired by this CPU across all runs.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Runs `program` from its entry point until `halt`, a fault, or fuel
    /// exhaustion, reporting every retired instruction to `tracer`.
    ///
    /// # Errors
    ///
    /// Returns a [`CpuError`] when control leaves the code, an indirect
    /// target is not a code address, or the memory limit is exceeded.
    pub fn run<T: Tracer>(
        &mut self,
        program: &Program,
        tracer: &mut T,
        limits: RunLimits,
    ) -> Result<RunSummary, CpuError> {
        self.pc = program.entry();
        self.resume(program, tracer, limits)
    }

    /// Continues execution from the **current** program counter — the
    /// resumable half of [`Cpu::run`].
    ///
    /// After a fuel-exhausted `run`/`resume`, the CPU's cursor (pc,
    /// registers, memory, retired count) sits exactly at the next
    /// retirement boundary, so a later `resume` call picks up the
    /// instruction stream where the previous call stopped — including
    /// across a [`Cpu::save_state`]/[`Cpu::load_state`] round trip in
    /// another process. `limits.max_instrs` is the budget for *this*
    /// call, not a cumulative cap.
    ///
    /// # Errors
    ///
    /// Returns a [`CpuError`] when control leaves the code, an indirect
    /// target is not a code address, or the memory limit is exceeded.
    pub fn resume<T: Tracer>(
        &mut self,
        program: &Program,
        tracer: &mut T,
        limits: RunLimits,
    ) -> Result<RunSummary, CpuError> {
        let started = Instant::now();
        let start_retired = self.retired;
        let budget = limits.max_instrs;
        // Demand-mask fast path: the reads array is the expensive part
        // of event assembly (a reg_use walk per retirement); skip it
        // for tracers that declare they never look (e.g. NullTracer,
        // loop-only pipelines).
        let wants_reads = tracer.demand().reads();

        while self.retired - start_retired < budget {
            let pc = self.pc;
            let instr = *program.fetch(pc).ok_or(CpuError::PcOutOfRange { pc })?;

            // Kernel dispatch retires nothing itself (no event, no
            // counter bump); the body's instructions retire through
            // the shared kernel executor, and the pc moves past the
            // call only when the body completes.
            if let Instruction::KernelCall { id } = instr {
                let fuel = budget - (self.retired - start_retired);
                if self.exec_kernel(id, fuel, tracer, limits.max_pages)? {
                    self.pc = pc.next();
                }
                continue;
            }

            let mut ev = InstrEvent {
                seq: self.retired,
                pc,
                instr,
                control: ControlOutcome {
                    kind: instr.control_kind(),
                    taken: false,
                    target: pc.next(),
                },
                reads: [None; 5],
                write: None,
                mem_read: None,
                mem_write: None,
            };
            if wants_reads {
                self.capture_reads(&instr, &mut ev);
            }

            let mut next_pc = pc.next();
            let mut halted = false;

            match instr {
                Instruction::Nop => {}
                Instruction::Halt => halted = true,
                Instruction::Alu { op, rd, ra, rb } => {
                    let v = op.eval(self.reg(ra), self.reg(rb));
                    self.write_int(rd, v, &mut ev);
                }
                Instruction::AluImm { op, rd, ra, imm } => {
                    let v = op.eval(self.reg(ra), imm as i64 as u64);
                    self.write_int(rd, v, &mut ev);
                }
                Instruction::LoadImm { rd, imm } => {
                    self.write_int(rd, imm as u64, &mut ev);
                }
                Instruction::Load { rd, base, offset } => {
                    let addr = self.reg(base).wrapping_add(offset as i64 as u64);
                    let v = self.mem.read(addr);
                    ev.mem_read = Some(MemAccess { addr, value: v });
                    self.write_int(rd, v, &mut ev);
                }
                Instruction::Store { src, base, offset } => {
                    let addr = self.reg(base).wrapping_add(offset as i64 as u64);
                    let v = self.reg(src);
                    self.mem.write(addr, v);
                    ev.mem_write = Some(MemAccess { addr, value: v });
                }
                Instruction::FAlu { op, fd, fa, fb } => {
                    let v = op.eval(self.fregs[fa.index()], self.fregs[fb.index()]);
                    self.write_fp(fd, v, &mut ev);
                }
                Instruction::FUn { op, fd, fa } => {
                    let v = op.eval(self.fregs[fa.index()]);
                    self.write_fp(fd, v, &mut ev);
                }
                Instruction::FLoadImm { fd, value } => {
                    self.write_fp(fd, value as f64, &mut ev);
                }
                Instruction::FLoad { fd, base, offset } => {
                    let addr = self.reg(base).wrapping_add(offset as i64 as u64);
                    let bits = self.mem.read(addr);
                    ev.mem_read = Some(MemAccess { addr, value: bits });
                    self.write_fp(fd, f64::from_bits(bits), &mut ev);
                }
                Instruction::FStore { fsrc, base, offset } => {
                    let addr = self.reg(base).wrapping_add(offset as i64 as u64);
                    let bits = self.fregs[fsrc.index()].to_bits();
                    self.mem.write(addr, bits);
                    ev.mem_write = Some(MemAccess { addr, value: bits });
                }
                Instruction::FCmp { cond, rd, fa, fb } => {
                    // Compare through the IEEE total order of the raw
                    // values as signed integers is wrong for FP; evaluate
                    // numerically (NaN compares false except Ne).
                    let a = self.fregs[fa.index()];
                    let b = self.fregs[fb.index()];
                    let holds = match cond {
                        loopspec_isa::Cond::Eq => a == b,
                        loopspec_isa::Cond::Ne => a != b,
                        loopspec_isa::Cond::LtS | loopspec_isa::Cond::LtU => a < b,
                        loopspec_isa::Cond::LeS => a <= b,
                        loopspec_isa::Cond::GtS => a > b,
                        loopspec_isa::Cond::GeS | loopspec_isa::Cond::GeU => a >= b,
                    };
                    self.write_int(rd, holds as u64, &mut ev);
                }
                Instruction::ItoF { fd, ra } => {
                    let v = self.reg(ra) as i64 as f64;
                    self.write_fp(fd, v, &mut ev);
                }
                Instruction::FtoI { rd, fa } => {
                    // Rust `as` saturates and maps NaN to 0 — exactly the
                    // no-trap semantics we want.
                    let v = self.fregs[fa.index()] as i64 as u64;
                    self.write_int(rd, v, &mut ev);
                }
                Instruction::Branch {
                    cond,
                    ra,
                    rb,
                    target,
                } => {
                    if cond.eval(self.reg(ra), self.reg(rb)) {
                        ev.control.taken = true;
                        ev.control.target = target;
                        next_pc = target;
                    }
                }
                Instruction::Jump { target } => {
                    ev.control.taken = true;
                    ev.control.target = target;
                    next_pc = target;
                }
                Instruction::JumpInd { base } => {
                    let target = self.indirect_target(pc, self.reg(base))?;
                    ev.control.taken = true;
                    ev.control.target = target;
                    next_pc = target;
                }
                Instruction::Call { target, link } => {
                    self.write_int(link, pc.next().index() as u64, &mut ev);
                    ev.control.taken = true;
                    ev.control.target = target;
                    next_pc = target;
                }
                Instruction::CallInd { base, link } => {
                    let target = self.indirect_target(pc, self.reg(base))?;
                    self.write_int(link, pc.next().index() as u64, &mut ev);
                    ev.control.taken = true;
                    ev.control.target = target;
                    next_pc = target;
                }
                Instruction::Ret { link } => {
                    let target = self.indirect_target(pc, self.reg(link))?;
                    ev.control.taken = true;
                    ev.control.target = target;
                    next_pc = target;
                }
                Instruction::KernelCall { .. } => {
                    unreachable!("kernel calls are intercepted before event assembly")
                }
            }

            self.retired += 1;
            tracer.on_retire(&ev);

            if self.mem.pages_allocated() > limits.max_pages {
                return Err(CpuError::MemoryLimit {
                    pages: self.mem.pages_allocated(),
                });
            }
            if halted {
                return Ok(RunSummary {
                    retired: self.retired - start_retired,
                    completion: Completion::Halted,
                    elapsed: started.elapsed(),
                });
            }
            self.pc = next_pc;
        }

        Ok(RunSummary {
            retired: self.retired - start_retired,
            completion: Completion::OutOfFuel,
            elapsed: started.elapsed(),
        })
    }

    /// Serializes the full architectural state — pc, integer and FP
    /// register files, retired-instruction count, and every materialised
    /// memory page — as the CPU cursor section of a checkpoint.
    ///
    /// The bytes are deterministic (equal state → equal bytes) and carry
    /// no reference to the [`Program`]: a checkpoint is only meaningful
    /// against the same program it was taken from, which the caller is
    /// responsible for re-providing at resume time.
    pub fn save_state(&self, out: &mut loopspec_isa::snap::Enc) {
        for &r in &self.regs {
            out.u64(r);
        }
        for &f in &self.fregs {
            out.u64(f.to_bits());
        }
        out.u32(self.pc.index());
        out.u64(self.retired);
        self.mem.save_state(out);
        // Kernel pause cursor: fixed layout (flag + id + body pc) so
        // equal state means equal bytes whether or not a kernel is in
        // flight.
        let r = self
            .kernel
            .unwrap_or(crate::kernel::KernelResume { id: 0, bpc: 0 });
        out.bool(self.kernel.is_some());
        out.u32(r.id);
        out.u32(r.bpc);
    }

    /// Restores state written by [`Cpu::save_state`], replacing the
    /// current registers, pc, retired count and memory. A subsequent
    /// [`Cpu::resume`] continues the interrupted instruction stream.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`](loopspec_isa::snap::SnapError) on
    /// truncated or corrupt input; the CPU state is unspecified (but
    /// memory-safe) after an error.
    pub fn load_state(
        &mut self,
        src: &mut loopspec_isa::snap::Dec<'_>,
    ) -> Result<(), loopspec_isa::snap::SnapError> {
        for r in self.regs.iter_mut() {
            *r = src.u64()?;
        }
        for f in self.fregs.iter_mut() {
            *f = f64::from_bits(src.u64()?);
        }
        self.pc = Addr::new(src.u32()?);
        self.retired = src.u64()?;
        self.mem.load_state(src)?;
        let active = src.bool()?;
        let id = src.u32()?;
        let bpc = src.u32()?;
        self.kernel = active.then_some(crate::kernel::KernelResume { id, bpc });
        Ok(())
    }

    pub(crate) fn indirect_target(&self, pc: Addr, value: u64) -> Result<Addr, CpuError> {
        if value > u32::MAX as u64 {
            return Err(CpuError::BadIndirectTarget { pc, value });
        }
        Ok(Addr::new(value as u32))
    }

    #[inline]
    fn write_int(&mut self, rd: Reg, v: u64, ev: &mut InstrEvent) {
        ev.write = Some(RegWrite {
            reg: ArchReg::Int(rd),
            value: v,
        });
        self.set_reg(rd, v);
    }

    #[inline]
    fn write_fp(&mut self, fd: loopspec_isa::FReg, v: f64, ev: &mut InstrEvent) {
        ev.write = Some(RegWrite {
            reg: ArchReg::Fp(fd),
            value: v.to_bits(),
        });
        self.fregs[fd.index()] = v;
    }

    #[inline]
    fn capture_reads(&self, instr: &Instruction, ev: &mut InstrEvent) {
        let u = instr.reg_use();
        let mut slot = 0;
        for r in u.reads.iter().flatten() {
            ev.reads[slot] = Some(RegRead {
                reg: ArchReg::Int(*r),
                value: self.reg(*r),
            });
            slot += 1;
        }
        for r in u.freads.iter().flatten() {
            ev.reads[slot] = Some(RegRead {
                reg: ArchReg::Fp(*r),
                value: self.fregs[r.index()].to_bits(),
            });
            slot += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{CountingTracer, NullTracer};
    use loopspec_asm::ProgramBuilder;
    use loopspec_isa::{AluOp, Cond, ControlKind};

    fn run_counting(program: &Program) -> (Cpu, CountingTracer, RunSummary) {
        let mut cpu = Cpu::new();
        let mut t = CountingTracer::default();
        let s = cpu
            .run(program, &mut t, RunLimits::default())
            .expect("run succeeds");
        (cpu, t, s)
    }

    #[test]
    fn sum_loop_computes_correctly() {
        // sum = Σ i for i in 0..10 — checked through architectural state.
        let mut b = ProgramBuilder::new();
        let sum = b.alloc_reg();
        b.li(sum, 0);
        b.counted_loop(10, |b, i| {
            b.op(AluOp::Add, sum, sum, i);
        });
        let out = b.alloc_static(1);
        b.store_static(sum, out);
        let p = b.finish().unwrap();
        let (cpu, _, s) = run_counting(&p);
        assert!(s.halted());
        assert_eq!(cpu.mem().read(out as u64), 45);
    }

    #[test]
    fn while_loop_runs_expected_iterations() {
        let mut b = ProgramBuilder::new();
        let x = b.alloc_reg();
        let n = b.alloc_reg();
        b.li(x, 0);
        b.li(n, 7);
        b.while_loop(
            |_| (Cond::LtS, x, n),
            |b| {
                b.addi(x, x, 1);
            },
        );
        let out = b.alloc_static(1);
        b.store_static(x, out);
        let p = b.finish().unwrap();
        let (cpu, _, _) = run_counting(&p);
        assert_eq!(cpu.mem().read(out as u64), 7);
    }

    #[test]
    fn function_call_round_trips() {
        let mut b = ProgramBuilder::new();
        b.define_func("double", |b| {
            // ret = arg0 * 2
            b.op(
                AluOp::Add,
                ProgramBuilder::RET_REG,
                ProgramBuilder::ARG_REGS[0],
                ProgramBuilder::ARG_REGS[0],
            );
        });
        b.set_arg(0, 21);
        b.call_func("double");
        let out = b.alloc_static(1);
        b.store_static(ProgramBuilder::RET_REG, out);
        let p = b.finish().unwrap();
        let (cpu, t, _) = run_counting(&p);
        assert_eq!(cpu.mem().read(out as u64), 42);
        assert_eq!(t.calls, 1);
        assert_eq!(t.returns, 1);
    }

    #[test]
    fn recursion_computes_factorial() {
        // fact(n): if n <= 1 { 1 } else { n * fact(n-1) }
        let mut b = ProgramBuilder::new();
        b.define_func("fact", |b| {
            let n = b.alloc_reg();
            b.mov(n, ProgramBuilder::ARG_REGS[0]);
            b.with_reg(|b, one| {
                b.li(one, 1);
                b.if_else(
                    Cond::LeS,
                    n,
                    one,
                    |b| b.set_ret(1i64),
                    |b| {
                        b.addi(ProgramBuilder::ARG_REGS[0], n, -1);
                        b.call_func("fact");
                        b.op(
                            AluOp::Mul,
                            ProgramBuilder::RET_REG,
                            ProgramBuilder::RET_REG,
                            n,
                        );
                    },
                );
            });
            b.free_reg(n);
        });
        b.set_arg(0, 10);
        b.call_func("fact");
        let out = b.alloc_static(1);
        b.store_static(ProgramBuilder::RET_REG, out);
        let p = b.finish().unwrap();
        let (cpu, t, _) = run_counting(&p);
        assert_eq!(cpu.mem().read(out as u64), 3_628_800);
        assert_eq!(t.calls, 10);
        assert_eq!(t.returns, 10);
    }

    #[test]
    fn switch_table_dispatches_each_arm() {
        let mut b = ProgramBuilder::new();
        let out = b.alloc_static(4);
        let idx = b.alloc_reg();
        let val = b.alloc_reg();
        b.counted_loop(4, |b, i| {
            b.mov(idx, i);
            b.switch_table(idx, 4, |b, k| {
                b.li(val, (k as i64 + 1) * 100);
                b.store_idx(val, out, i);
            });
        });
        let p = b.finish().unwrap();
        let (cpu, _, _) = run_counting(&p);
        for k in 0..4u64 {
            assert_eq!(cpu.mem().read(out as u64 + k), (k + 1) * 100);
        }
    }

    #[test]
    fn fuel_exhaustion_reports_out_of_fuel() {
        let mut b = ProgramBuilder::new();
        b.loop_forever(|b| b.work(1));
        let p = b.finish().unwrap();
        let mut cpu = Cpu::new();
        let s = cpu
            .run(&p, &mut NullTracer, RunLimits::with_fuel(1000))
            .unwrap();
        assert_eq!(s.completion, Completion::OutOfFuel);
        assert_eq!(s.retired, 1000);
    }

    #[test]
    fn fp_pipeline_works() {
        use loopspec_isa::{FReg, Instruction};
        let mut b = ProgramBuilder::new();
        b.emit(Instruction::FLoadImm {
            fd: FReg::F1,
            value: 1.5,
        });
        b.emit(Instruction::FLoadImm {
            fd: FReg::F2,
            value: 2.0,
        });
        b.emit(Instruction::FAlu {
            op: loopspec_isa::FAluOp::Mul,
            fd: FReg::F3,
            fa: FReg::F1,
            fb: FReg::F2,
        });
        b.emit(Instruction::FtoI {
            rd: Reg::R8,
            fa: FReg::F3,
        });
        let out = b.alloc_static(1);
        b.store_static(Reg::R8, out);
        let p = b.finish().unwrap();
        let (cpu, _, _) = run_counting(&p);
        assert_eq!(cpu.mem().read(out as u64), 3);
    }

    #[test]
    fn zero_register_is_immutable() {
        let mut b = ProgramBuilder::new();
        b.op_imm(AluOp::Add, Reg::R0, Reg::R0, 99);
        let out = b.alloc_static(1);
        b.store_static(Reg::R0, out);
        let p = b.finish().unwrap();
        let (cpu, _, _) = run_counting(&p);
        assert_eq!(cpu.mem().read(out as u64), 0);
        assert_eq!(cpu.reg(Reg::R0), 0);
    }

    #[test]
    fn rng_below_is_in_range_and_deterministic() {
        let mut b = ProgramBuilder::with_seed(7);
        let r = b.alloc_reg();
        let out = b.alloc_static(16);
        b.counted_loop(16, |b, i| {
            b.rng_below(r, 10);
            b.store_idx(r, out, i);
        });
        let p = b.finish().unwrap();
        let (cpu1, _, _) = run_counting(&p);
        let (cpu2, _, _) = run_counting(&p);
        let mut distinct = std::collections::HashSet::new();
        for k in 0..16u64 {
            let v = cpu1.mem().read(out as u64 + k);
            assert!(v < 10, "rng_below out of range: {v}");
            assert_eq!(v, cpu2.mem().read(out as u64 + k), "determinism");
            distinct.insert(v);
        }
        assert!(distinct.len() > 3, "rng values look degenerate");
    }

    #[test]
    fn event_reads_report_pre_write_values() {
        struct Probe {
            seen: Vec<(u64, u64)>,
        }
        impl Tracer for Probe {
            fn on_retire(&mut self, ev: &InstrEvent) {
                if let Instruction::AluImm { .. } = ev.instr {
                    if let Some(r) = ev.reads[0] {
                        let w = ev.write.unwrap();
                        self.seen.push((r.value, w.value));
                    }
                }
            }
        }
        let mut b = ProgramBuilder::new();
        let x = b.alloc_reg();
        b.li(x, 5);
        b.addi(x, x, 1); // reads 5, writes 6
        let p = b.finish().unwrap();
        let mut cpu = Cpu::new();
        let mut probe = Probe { seen: Vec::new() };
        cpu.run(&p, &mut probe, RunLimits::default()).unwrap();
        assert!(probe.seen.contains(&(5, 6)));
    }

    #[test]
    fn resume_continues_an_interrupted_run() {
        // sum = Σ i for i in 0..10 in three fuel slices must equal the
        // uninterrupted run, architecturally and in retirement count.
        let mut b = ProgramBuilder::new();
        let sum = b.alloc_reg();
        b.li(sum, 0);
        b.counted_loop(10, |b, i| {
            b.op(AluOp::Add, sum, sum, i);
        });
        let out = b.alloc_static(1);
        b.store_static(sum, out);
        let p = b.finish().unwrap();

        let (reference, _, ref_summary) = run_counting(&p);

        let mut cpu = Cpu::new();
        let mut t = CountingTracer::default();
        let first = cpu.run(&p, &mut t, RunLimits::with_fuel(7)).unwrap();
        assert_eq!(first.completion, Completion::OutOfFuel);
        loop {
            let s = cpu.resume(&p, &mut t, RunLimits::with_fuel(9)).unwrap();
            if s.halted() {
                break;
            }
        }
        assert_eq!(cpu.retired(), ref_summary.retired);
        assert_eq!(t.retired, ref_summary.retired);
        assert_eq!(cpu.mem().read(out as u64), reference.mem().read(out as u64));
    }

    #[test]
    fn state_round_trips_across_a_fresh_cpu() {
        let mut b = ProgramBuilder::new();
        let acc = b.alloc_reg();
        b.li(acc, 0);
        b.counted_loop(50, |b, i| {
            b.op(AluOp::Add, acc, acc, i);
            b.store_idx(acc, 0x100, i);
        });
        let out = b.alloc_static(1);
        b.store_static(acc, out);
        let p = b.finish().unwrap();

        let (reference, _, _) = run_counting(&p);

        let mut cpu = Cpu::new();
        cpu.run(&p, &mut NullTracer, RunLimits::with_fuel(101))
            .unwrap();

        // Snapshot, restore into a fresh CPU, and finish the run there.
        let mut enc = loopspec_isa::snap::Enc::new();
        cpu.save_state(&mut enc);
        let bytes = enc.into_bytes();

        // Determinism: saving the same state twice yields the same bytes.
        let mut enc2 = loopspec_isa::snap::Enc::new();
        cpu.save_state(&mut enc2);
        assert_eq!(bytes, enc2.into_bytes());

        let mut fresh = Cpu::new();
        let mut dec = loopspec_isa::snap::Dec::new(&bytes);
        fresh.load_state(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(fresh.retired(), 101);

        let s = fresh
            .resume(&p, &mut NullTracer, RunLimits::default())
            .unwrap();
        assert!(s.halted());
        assert_eq!(fresh.retired(), reference.retired());
        assert_eq!(
            fresh.mem().read(out as u64),
            reference.mem().read(out as u64)
        );
        for r in 0..32usize {
            let reg = Reg::from_index(r).unwrap();
            assert_eq!(fresh.reg(reg), reference.reg(reg));
        }
    }

    #[test]
    fn truncated_state_is_rejected() {
        let cpu = Cpu::new();
        let mut enc = loopspec_isa::snap::Enc::new();
        cpu.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut fresh = Cpu::new();
        let mut dec = loopspec_isa::snap::Dec::new(&bytes[..bytes.len() - 1]);
        assert!(fresh.load_state(&mut dec).is_err());
    }

    #[test]
    fn control_outcome_targets_resolve_returns() {
        struct RetProbe {
            ret_target: Option<Addr>,
            call_pc: Option<Addr>,
        }
        impl Tracer for RetProbe {
            fn on_retire(&mut self, ev: &InstrEvent) {
                match ev.control.kind {
                    ControlKind::Ret => self.ret_target = Some(ev.control.target),
                    ControlKind::Call { .. } => self.call_pc = Some(ev.pc),
                    _ => {}
                }
            }
        }
        let mut b = ProgramBuilder::new();
        b.define_func("f", |b| b.work(1));
        b.call_func("f");
        let p = b.finish().unwrap();
        let mut probe = RetProbe {
            ret_target: None,
            call_pc: None,
        };
        Cpu::new()
            .run(&p, &mut probe, RunLimits::default())
            .unwrap();
        assert_eq!(probe.ret_target.unwrap(), probe.call_pc.unwrap().next());
    }
}
