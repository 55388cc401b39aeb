//! The ATOM-style instrumentation interface.

use loopspec_isa::{Addr, ControlKind, FReg, Instruction, Reg};

/// Either an integer or a floating-point architectural register.
///
/// The live-in analysis of the paper's §4 treats integer and FP registers
/// uniformly ("live-in registers"), so the instrumentation reports them in
/// one namespace. FP values are reported as their IEEE-754 bit patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ArchReg {
    /// An integer register.
    Int(Reg),
    /// A floating-point register.
    Fp(FReg),
}

impl std::fmt::Display for ArchReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchReg::Int(r) => write!(f, "{r}"),
            ArchReg::Fp(r) => write!(f, "{r}"),
        }
    }
}

/// A register read observed at retirement: the register and the value it
/// held *when read* (before any write by the same instruction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegRead {
    /// Which register was read.
    pub reg: ArchReg,
    /// Value observed (FP values as bits).
    pub value: u64,
}

/// A register write observed at retirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegWrite {
    /// Which register was written.
    pub reg: ArchReg,
    /// Value written (FP values as bits).
    pub value: u64,
}

/// A data-memory access observed at retirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Word address accessed.
    pub addr: u64,
    /// Value loaded or stored.
    pub value: u64,
}

/// Control-flow outcome of a retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlOutcome {
    /// Static classification of the instruction.
    pub kind: ControlKind,
    /// Whether the transfer was taken. Unconditional transfers (jumps,
    /// calls, returns) are always `true`; non-control instructions `false`.
    pub taken: bool,
    /// The *dynamic* target: next PC if taken (resolves indirect targets
    /// and return addresses). Equal to `pc + 1` for not-taken branches and
    /// non-control instructions.
    pub target: Addr,
}

/// Everything the instrumentation reports about one retired instruction.
///
/// Mirrors the information an ATOM analysis routine can request: PC,
/// opcode, branch outcome and effective addresses/values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstrEvent {
    /// Zero-based dynamic instruction index (retirement order).
    pub seq: u64,
    /// Address of the instruction.
    pub pc: Addr,
    /// The instruction itself.
    pub instr: Instruction,
    /// Control-flow outcome.
    pub control: ControlOutcome,
    /// Register reads with observed values (at most 3 int + 2 fp).
    pub reads: [Option<RegRead>; 5],
    /// Register write with written value, if any.
    pub write: Option<RegWrite>,
    /// Memory load, if any.
    pub mem_read: Option<MemAccess>,
    /// Memory store, if any.
    pub mem_write: Option<MemAccess>,
}

impl InstrEvent {
    /// Iterates over the register reads.
    pub fn reads_iter(&self) -> impl Iterator<Item = RegRead> + '_ {
        self.reads.iter().flatten().copied()
    }

    /// The dynamic stream position *after* this instruction commits; this
    /// is the position at which loop events triggered by the instruction
    /// (iteration starts, execution ends) take effect.
    #[inline]
    pub fn next_pos(&self) -> u64 {
        self.seq + 1
    }
}

/// The event fields a [`Tracer`] actually consumes — a capability mask
/// the interpreter queries once per run to skip assembling data nobody
/// reads.
///
/// `seq`, `pc`, `instr` and the full [`ControlOutcome`] are **always**
/// populated (the interpreter computes them to execute the instruction
/// anyway); the mask covers only the optional payload:
///
/// * [`READS`](Demand::READS) — the `reads` array (register values at
///   read time, the expensive part: a `reg_use` walk per retirement);
/// * [`WRITE`](Demand::WRITE) — the `write` record;
/// * [`MEM`](Demand::MEM) — `mem_read` / `mem_write` records.
///
/// A tracer that declares a field un-demanded must not read it: the
/// interpreter is free to leave it `None`. Composite tracers (such as
/// a `loopspec_pipeline::Session`'s sink list) take the union of their
/// parts, so under-declaring is the only way to go wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Demand(u8);

impl Demand {
    /// Only the always-populated fields (seq, pc, instr, control).
    pub const NONE: Demand = Demand(0);
    /// The `reads` array.
    pub const READS: Demand = Demand(1);
    /// The `write` record.
    pub const WRITE: Demand = Demand(1 << 1);
    /// The `mem_read` / `mem_write` records.
    pub const MEM: Demand = Demand(1 << 2);
    /// Every event field — the conservative default.
    pub const ALL: Demand = Demand(0b111);

    /// Combines two masks (used by composite tracers).
    #[must_use]
    pub const fn union(self, other: Demand) -> Demand {
        Demand(self.0 | other.0)
    }

    /// `true` when the `reads` array is demanded.
    #[inline]
    pub const fn reads(self) -> bool {
        self.0 & Demand::READS.0 != 0
    }

    /// `true` when the `write` record is demanded.
    #[inline]
    pub const fn write(self) -> bool {
        self.0 & Demand::WRITE.0 != 0
    }

    /// `true` when the memory-access records are demanded.
    #[inline]
    pub const fn mem(self) -> bool {
        self.0 & Demand::MEM.0 != 0
    }
}

/// Per-retired-instruction analysis callback — the ATOM substitute.
///
/// Implementations must be cheap: they run inline in the interpreter
/// loop. To run several analyses in one pass, register them with a
/// `loopspec_pipeline::Session`, whose sink list is the one fan-out.
pub trait Tracer {
    /// Called once per retired instruction, in program order.
    fn on_retire(&mut self, ev: &InstrEvent);

    /// Which optional event fields this tracer reads; see [`Demand`].
    /// The interpreter queries it once at the start of a run and skips
    /// assembling un-demanded fields. Defaults to [`Demand::ALL`], so
    /// existing tracers keep seeing fully populated events.
    fn demand(&self) -> Demand {
        Demand::ALL
    }
}

/// A tracer that ignores every event (pure functional execution).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTracer;

impl Tracer for NullTracer {
    #[inline]
    fn on_retire(&mut self, _ev: &InstrEvent) {}

    fn demand(&self) -> Demand {
        Demand::NONE
    }
}

/// A tracer that counts retired instructions by category — handy in tests
/// and as a smoke-check that instrumentation is wired up.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingTracer {
    /// Total retired instructions.
    pub retired: u64,
    /// Retired conditional branches.
    pub branches: u64,
    /// ... of which taken.
    pub taken_branches: u64,
    /// Retired calls (direct + indirect).
    pub calls: u64,
    /// Retired returns.
    pub returns: u64,
    /// Retired loads (int + fp).
    pub loads: u64,
    /// Retired stores (int + fp).
    pub stores: u64,
}

impl Tracer for CountingTracer {
    fn on_retire(&mut self, ev: &InstrEvent) {
        self.retired += 1;
        match ev.control.kind {
            ControlKind::CondBranch { .. } => {
                self.branches += 1;
                if ev.control.taken {
                    self.taken_branches += 1;
                }
            }
            ControlKind::Call { .. } | ControlKind::IndirectCall => self.calls += 1,
            ControlKind::Ret => self.returns += 1,
            _ => {}
        }
        if ev.mem_read.is_some() {
            self.loads += 1;
        }
        if ev.mem_write.is_some() {
            self.stores += 1;
        }
    }

    fn demand(&self) -> Demand {
        // Control outcomes are always populated; only the memory
        // records are optional payload this tracer touches.
        Demand::MEM
    }
}

impl<T: Tracer + ?Sized> Tracer for &mut T {
    #[inline]
    fn on_retire(&mut self, ev: &InstrEvent) {
        (**self).on_retire(ev);
    }

    fn demand(&self) -> Demand {
        (**self).demand()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_event() -> InstrEvent {
        InstrEvent {
            seq: 0,
            pc: Addr::ZERO,
            instr: Instruction::Nop,
            control: ControlOutcome {
                kind: ControlKind::None,
                taken: false,
                target: Addr::new(1),
            },
            reads: [None; 5],
            write: None,
            mem_read: None,
            mem_write: None,
        }
    }

    #[test]
    fn mut_ref_tracer_delegates() {
        let mut c = CountingTracer::default();
        {
            let mut r: &mut CountingTracer = &mut c;
            Tracer::on_retire(&mut r, &dummy_event());
        }
        assert_eq!(c.retired, 1);
    }

    #[test]
    fn next_pos_is_seq_plus_one() {
        let mut ev = dummy_event();
        ev.seq = 41;
        assert_eq!(ev.next_pos(), 42);
    }

    #[test]
    fn arch_reg_display() {
        assert_eq!(ArchReg::Int(Reg::R3).to_string(), "r3");
        assert_eq!(ArchReg::Fp(FReg::F9).to_string(), "f9");
    }

    #[test]
    fn demand_flags_decompose() {
        assert!(Demand::ALL.reads() && Demand::ALL.write() && Demand::ALL.mem());
        assert!(!Demand::NONE.reads() && !Demand::NONE.write() && !Demand::NONE.mem());
        let rw = Demand::READS.union(Demand::WRITE);
        assert!(rw.reads() && rw.write() && !rw.mem());
    }

    #[test]
    fn tracers_declare_and_forward_their_demand() {
        assert_eq!(NullTracer.demand(), Demand::NONE);
        assert_eq!(CountingTracer::default().demand(), Demand::MEM);
        let mut c = CountingTracer::default();
        let r: &mut CountingTracer = &mut c;
        assert_eq!(r.demand(), Demand::MEM);
        // Custom tracers keep the conservative default.
        struct Plain;
        impl Tracer for Plain {
            fn on_retire(&mut self, _ev: &InstrEvent) {}
        }
        assert_eq!(Plain.demand(), Demand::ALL);
    }
}
