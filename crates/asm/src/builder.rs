//! Structured program construction: loops, conditionals, functions.
//!
//! [`ProgramBuilder`] is the "compiler" used by the workload suite. It
//! lowers structured control flow onto the [`Assembler`] using fixed
//! software conventions:
//!
//! * `r0` — hardwired zero; `r1` — function return value;
//! * `r2..r5` — function arguments;
//! * `r6` — global LCG random-number state;
//! * `r8..r19` — main-program register pool ([`ProgramBuilder::alloc_reg`]);
//! * `r20..r28` — function-scratch pool (saved/restored by every function
//!   prologue/epilogue, so recursion and nested calls are safe);
//! * `r29` (`SP`) — stack pointer, grows downward from [`STACK_BASE`];
//! * `r30` (`RA`) — link register; `r31` (`AT`) — builder scratch.

use std::collections::BTreeMap;

use loopspec_isa::{Addr, AluOp, Cond, FAluOp, FReg, Instruction, Reg};

use crate::{AsmError, Assembler, LabelId, Program};

/// Initial stack-pointer value (word address). The stack grows downward.
pub const STACK_BASE: i64 = 1 << 30;

/// First word address of the static data region managed by
/// [`ProgramBuilder::alloc_static`].
pub const STATIC_BASE: i64 = 1 << 16;

/// Registers available to [`ProgramBuilder::alloc_reg`] in main code.
const MAIN_POOL: [Reg; 12] = [
    Reg::R8,
    Reg::R9,
    Reg::R10,
    Reg::R11,
    Reg::R12,
    Reg::R13,
    Reg::R14,
    Reg::R15,
    Reg::R16,
    Reg::R17,
    Reg::R18,
    Reg::R19,
];

/// Registers available to [`ProgramBuilder::alloc_reg`] inside functions.
const FUNC_POOL: [Reg; 9] = [
    Reg::R20,
    Reg::R21,
    Reg::R22,
    Reg::R23,
    Reg::R24,
    Reg::R25,
    Reg::R26,
    Reg::R27,
    Reg::R28,
];

/// Function stack-frame size in words: RA plus the nine scratch registers.
const FRAME_WORDS: i32 = 1 + FUNC_POOL.len() as i32;

/// LCG multiplier (glibc `rand` constants, 31-bit state).
const LCG_MUL: i32 = 1_103_515_245;
/// LCG increment.
const LCG_INC: i32 = 12_345;
/// LCG state mask (31 bits).
const LCG_MASK: i32 = 0x7fff_ffff;

/// A register-or-immediate operand accepted by several builder methods.
///
/// ```
/// use loopspec_asm::Operand;
/// use loopspec_isa::Reg;
/// let a: Operand = 5i64.into();
/// let b: Operand = Reg::R8.into();
/// assert!(matches!(a, Operand::Imm(5)));
/// assert!(matches!(b, Operand::Reg(Reg::R8)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A register operand.
    Reg(Reg),
    /// An immediate operand.
    Imm(i64),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

impl From<i32> for Operand {
    fn from(v: i32) -> Self {
        Operand::Imm(v as i64)
    }
}

impl From<u32> for Operand {
    fn from(v: u32) -> Self {
        Operand::Imm(v as i64)
    }
}

#[derive(Debug)]
struct LoopCtx {
    continue_label: LabelId,
    break_label: LabelId,
}

#[derive(Debug)]
struct FuncState {
    label: LabelId,
    defined: bool,
}

type FuncBody = Box<dyn FnOnce(&mut ProgramBuilder)>;

/// Structured code generator for SLA programs.
///
/// See the [crate docs](crate) for register conventions and an
/// end-to-end example.
pub struct ProgramBuilder {
    asm: Assembler,
    main_free: Vec<Reg>,
    func_free: Vec<Reg>,
    in_function: bool,
    epilogue: Option<LabelId>,
    loops: Vec<LoopCtx>,
    funcs: BTreeMap<String, FuncState>,
    pending: Vec<(String, FuncBody)>,
    static_brk: i64,
    work_counter: u32,
}

impl std::fmt::Debug for ProgramBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramBuilder")
            .field("code_len", &self.asm.here().index())
            .field("in_function", &self.in_function)
            .field("open_loops", &self.loops.len())
            .field("pending_funcs", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramBuilder {
    /// Creates a builder with the standard startup sequence (stack pointer
    /// and RNG-state initialisation) already emitted.
    pub fn new() -> Self {
        Self::with_seed(0x1234_5678)
    }

    /// Creates a builder whose global LCG register is seeded with `seed`.
    pub fn with_seed(seed: i64) -> Self {
        let mut b = ProgramBuilder {
            asm: Assembler::new(),
            main_free: MAIN_POOL.iter().rev().copied().collect(),
            func_free: Vec::new(),
            in_function: false,
            epilogue: None,
            loops: Vec::new(),
            funcs: BTreeMap::new(),
            pending: Vec::new(),
            static_brk: STATIC_BASE,
            work_counter: 0,
        };
        b.asm
            .define_symbol("main")
            .expect("fresh assembler has no symbols");
        b.li(Reg::SP, STACK_BASE);
        b.li(Reg::R6, seed & LCG_MASK as i64);
        b
    }

    // ----------------------------------------------------------------
    // Raw emission and sugar
    // ----------------------------------------------------------------

    /// Gives direct access to the underlying assembler.
    pub fn asm(&mut self) -> &mut Assembler {
        &mut self.asm
    }

    /// Emits a raw instruction.
    pub fn emit(&mut self, i: Instruction) -> Addr {
        self.asm.emit(i)
    }

    /// `rd <- imm` (any 48-bit immediate).
    pub fn li(&mut self, rd: Reg, imm: i64) {
        self.emit(Instruction::LoadImm { rd, imm });
    }

    /// `rd <- rs` (register move via `or rd, rs, r0`).
    pub fn mov(&mut self, rd: Reg, rs: Reg) {
        self.emit(Instruction::Alu {
            op: AluOp::Or,
            rd,
            ra: rs,
            rb: Reg::ZERO,
        });
    }

    /// `rd <- op(ra, rb)`.
    pub fn op(&mut self, op: AluOp, rd: Reg, ra: Reg, rb: Reg) {
        self.emit(Instruction::Alu { op, rd, ra, rb });
    }

    /// `rd <- op(ra, imm)`.
    pub fn op_imm(&mut self, op: AluOp, rd: Reg, ra: Reg, imm: i32) {
        self.emit(Instruction::AluImm { op, rd, ra, imm });
    }

    /// `rd <- ra + imm`.
    pub fn addi(&mut self, rd: Reg, ra: Reg, imm: i32) {
        self.op_imm(AluOp::Add, rd, ra, imm);
    }

    // ----------------------------------------------------------------
    // Register pool
    // ----------------------------------------------------------------

    /// Allocates a register from the active pool (main or function
    /// scratch).
    ///
    /// # Panics
    ///
    /// Panics when the pool is exhausted; this indicates a builder-usage
    /// bug (too many live temporaries), not a runtime condition.
    pub fn alloc_reg(&mut self) -> Reg {
        let pool = if self.in_function {
            &mut self.func_free
        } else {
            &mut self.main_free
        };
        pool.pop().expect("register pool exhausted")
    }

    /// Returns a register to the active pool.
    pub fn free_reg(&mut self, r: Reg) {
        let pool = if self.in_function {
            &mut self.func_free
        } else {
            &mut self.main_free
        };
        debug_assert!(!pool.contains(&r), "double free of {r}");
        pool.push(r);
    }

    /// How many registers the active pool (main or function scratch)
    /// still has free — the headroom compilers building on top of this
    /// builder (the `loopspec-gen` lowering pass) consult before
    /// choosing between register-resident and memory-resident loop
    /// counters.
    pub fn free_regs(&self) -> usize {
        if self.in_function {
            self.func_free.len()
        } else {
            self.main_free.len()
        }
    }

    /// Allocates a register, runs `f` with it, then frees it.
    pub fn with_reg<T>(&mut self, f: impl FnOnce(&mut Self, Reg) -> T) -> T {
        let r = self.alloc_reg();
        let out = f(self, r);
        self.free_reg(r);
        out
    }

    fn materialize(&mut self, v: Operand) -> (Reg, bool) {
        match v {
            Operand::Reg(r) => (r, false),
            Operand::Imm(i) => {
                let r = self.alloc_reg();
                self.li(r, i);
                (r, true)
            }
        }
    }

    // ----------------------------------------------------------------
    // Loops
    // ----------------------------------------------------------------

    /// Emits a canonical counted loop executing `count` iterations
    /// (zero-trip guarded). The body receives the induction register,
    /// which counts `0, 1, …, count-1`.
    ///
    /// Shape (`do_while` with guard — the closing instruction is a
    /// *backward conditional branch*, the paper's archetypal loop):
    ///
    /// ```text
    ///       li   i, 0
    ///       b.ge i, n, exit      ; zero-trip guard (forward)
    /// top:  <body>
    /// cont: addi i, i, 1
    ///       b.lt i, n, top       ; closing backward branch
    /// exit:
    /// ```
    pub fn counted_loop(&mut self, count: impl Into<Operand>, body: impl FnOnce(&mut Self, Reg)) {
        let (n, owned) = self.materialize(count.into());
        let i = self.alloc_reg();
        self.li(i, 0);
        self.loop_from_reg(i, n, body);
        self.free_reg(i);
        if owned {
            self.free_reg(n);
        }
    }

    /// Like [`ProgramBuilder::counted_loop`] but the induction register
    /// `i` (already initialised by the caller) runs up to the bound
    /// register `n` by `+1` steps.
    pub fn loop_from_reg(&mut self, i: Reg, n: Reg, body: impl FnOnce(&mut Self, Reg)) {
        let top = self.asm.new_label();
        let cont = self.asm.new_label();
        let exit = self.asm.new_label();
        self.asm.branch(Cond::GeS, i, n, exit);
        self.asm.bind(top).expect("fresh label");
        self.loops.push(LoopCtx {
            continue_label: cont,
            break_label: exit,
        });
        body(self, i);
        self.loops.pop();
        self.asm.bind(cont).expect("fresh label");
        self.addi(i, i, 1);
        self.asm.branch(Cond::LtS, i, n, top);
        self.asm.bind(exit).expect("fresh label");
    }

    /// Emits a head-tested `while` loop. `cond` emits code computing the
    /// *continue* condition and returns `(cond, ra, rb)`; the loop runs
    /// while it holds.
    ///
    /// Shape (the closing instruction is a *backward jump*, the paper's
    /// other loop archetype):
    ///
    /// ```text
    /// top:  <cond code>
    ///       b.!cond exit         ; forward exit
    ///       <body>
    ///       j top                ; closing backward jump
    /// exit:
    /// ```
    pub fn while_loop(
        &mut self,
        cond: impl FnOnce(&mut Self) -> (Cond, Reg, Reg),
        body: impl FnOnce(&mut Self),
    ) {
        let top = self.asm.label_here();
        let exit = self.asm.new_label();
        let (c, ra, rb) = cond(self);
        self.asm.branch(c.negate(), ra, rb, exit);
        self.loops.push(LoopCtx {
            continue_label: top,
            break_label: exit,
        });
        body(self);
        self.loops.pop();
        self.asm.jump(top);
        self.asm.bind(exit).expect("fresh label");
    }

    /// Emits a tail-tested `do … while` loop (runs at least once). `cond`
    /// emits the continue-condition code after the body.
    pub fn do_while(
        &mut self,
        body: impl FnOnce(&mut Self),
        cond: impl FnOnce(&mut Self) -> (Cond, Reg, Reg),
    ) {
        let top = self.asm.label_here();
        let cont = self.asm.new_label();
        let exit = self.asm.new_label();
        self.loops.push(LoopCtx {
            continue_label: cont,
            break_label: exit,
        });
        body(self);
        self.loops.pop();
        self.asm.bind(cont).expect("fresh label");
        let (c, ra, rb) = cond(self);
        self.asm.branch(c, ra, rb, top);
        self.asm.bind(exit).expect("fresh label");
    }

    /// Emits an infinite loop; the body must [`ProgramBuilder::break_loop`]
    /// (or return from the enclosing function) to terminate.
    pub fn loop_forever(&mut self, body: impl FnOnce(&mut Self)) {
        let top = self.asm.label_here();
        let exit = self.asm.new_label();
        self.loops.push(LoopCtx {
            continue_label: top,
            break_label: exit,
        });
        body(self);
        self.loops.pop();
        self.asm.jump(top);
        self.asm.bind(exit).expect("fresh label");
    }

    fn innermost_loop(&self) -> &LoopCtx {
        self.loops.last().expect("not inside a loop")
    }

    /// Unconditionally exits the innermost loop.
    ///
    /// # Panics
    ///
    /// Panics if not inside a loop.
    pub fn break_loop(&mut self) {
        let l = self.innermost_loop().break_label;
        self.asm.jump(l);
    }

    /// Exits the innermost loop when `cond(ra, rb)` holds.
    ///
    /// # Panics
    ///
    /// Panics if not inside a loop.
    pub fn break_if(&mut self, cond: Cond, ra: Reg, rb: Reg) {
        let l = self.innermost_loop().break_label;
        self.asm.branch(cond, ra, rb, l);
    }

    /// Continues the innermost loop when `cond(ra, rb)` holds.
    ///
    /// # Panics
    ///
    /// Panics if not inside a loop.
    pub fn continue_if(&mut self, cond: Cond, ra: Reg, rb: Reg) {
        let l = self.innermost_loop().continue_label;
        self.asm.branch(cond, ra, rb, l);
    }

    // ----------------------------------------------------------------
    // Conditionals
    // ----------------------------------------------------------------

    /// Emits `if cond(ra, rb) { then_f } else { else_f }`.
    pub fn if_else(
        &mut self,
        cond: Cond,
        ra: Reg,
        rb: Reg,
        then_f: impl FnOnce(&mut Self),
        else_f: impl FnOnce(&mut Self),
    ) {
        let else_l = self.asm.new_label();
        let end = self.asm.new_label();
        self.asm.branch(cond.negate(), ra, rb, else_l);
        then_f(self);
        self.asm.jump(end);
        self.asm.bind(else_l).expect("fresh label");
        else_f(self);
        self.asm.bind(end).expect("fresh label");
    }

    /// Emits `if cond(ra, rb) { then_f }`.
    pub fn if_then(&mut self, cond: Cond, ra: Reg, rb: Reg, then_f: impl FnOnce(&mut Self)) {
        let end = self.asm.new_label();
        self.asm.branch(cond.negate(), ra, rb, end);
        then_f(self);
        self.asm.bind(end).expect("fresh label");
    }

    /// Emits an N-way dispatch through a jump table: `arm(b, k)` generates
    /// the code of arm `k`. `idx` must be in `[0, n)` at run time (the
    /// builder does not emit a bounds check).
    ///
    /// Lowered as an indirect jump into a table of `j armK` trampolines —
    /// the classic `switch` shape that exercises
    /// [`loopspec_isa::ControlKind::IndirectJump`].
    pub fn switch_table(&mut self, idx: Reg, n: usize, mut arm: impl FnMut(&mut Self, usize)) {
        assert!(n > 0, "switch_table needs at least one arm");
        let table = self.asm.new_label();
        let end = self.asm.new_label();
        let arm_labels: Vec<LabelId> = (0..n).map(|_| self.asm.new_label()).collect();
        self.asm.load_label_addr(Reg::AT, table);
        self.op(AluOp::Add, Reg::AT, Reg::AT, idx);
        self.emit(Instruction::JumpInd { base: Reg::AT });
        self.asm.bind(table).expect("fresh label");
        for &l in &arm_labels {
            self.asm.jump(l);
        }
        for (k, &l) in arm_labels.iter().enumerate() {
            self.asm.bind(l).expect("fresh label");
            arm(self, k);
            self.asm.jump(end);
        }
        self.asm.bind(end).expect("fresh label");
    }

    // ----------------------------------------------------------------
    // Functions
    // ----------------------------------------------------------------

    /// Argument registers of the calling convention (`r2..r5`).
    pub const ARG_REGS: [Reg; 4] = [Reg::R2, Reg::R3, Reg::R4, Reg::R5];

    /// Return-value register of the calling convention (`r1`).
    pub const RET_REG: Reg = Reg::R1;

    fn func_label(&mut self, name: &str) -> LabelId {
        if let Some(st) = self.funcs.get(name) {
            return st.label;
        }
        let label = self.asm.new_label();
        self.funcs.insert(
            name.to_string(),
            FuncState {
                label,
                defined: false,
            },
        );
        label
    }

    /// Defines a function body; the code is emitted after the main program
    /// during [`ProgramBuilder::finish`]. Inside the body the register
    /// pool switches to the function-scratch set, all of which the
    /// prologue saves, so functions (including recursive ones) may call
    /// anything.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already defined.
    pub fn define_func(&mut self, name: &str, body: impl FnOnce(&mut Self) + 'static) {
        let st = self.func_label(name);
        let state = self.funcs.get_mut(name).expect("just inserted");
        assert!(!state.defined, "function `{name}` defined twice");
        state.defined = true;
        let _ = st;
        self.pending.push((name.to_string(), Box::new(body)));
    }

    /// Emits a call to a named function (definable before or after the
    /// call site). Arguments go in [`ProgramBuilder::ARG_REGS`], the result
    /// comes back in [`ProgramBuilder::RET_REG`].
    pub fn call_func(&mut self, name: &str) {
        let label = self.func_label(name);
        self.asm.call(label, Reg::RA);
    }

    /// Emits a `KernelCall` to registered kernel `id` — the
    /// native-precompiled counterpart of
    /// [`ProgramBuilder::call_func`]. The same calling convention
    /// applies: arguments go in [`ProgramBuilder::ARG_REGS`], the
    /// result comes back in [`ProgramBuilder::RET_REG`], and the
    /// kernel clobbers only `r1`–`r5`, `r7` and `r31` (see
    /// [`loopspec_isa::kernel`] for the registry and ABI).
    pub fn kernel_call(&mut self, id: u32) {
        self.emit(Instruction::KernelCall { id });
    }

    /// Loads the entry address of function `name` into `rd` — the
    /// building block for function-pointer tables. The function may be
    /// defined before or after this point; an address taken of a
    /// function that is never defined fails [`ProgramBuilder::finish`].
    pub fn func_addr(&mut self, rd: Reg, name: &str) {
        let label = self.func_label(name);
        self.asm.load_label_addr(rd, label);
    }

    /// Emits an indirect call through `target` (a register holding a
    /// function entry address, e.g. one produced by
    /// [`ProgramBuilder::func_addr`] or loaded from a function-pointer
    /// table). Uses the same `RA` linkage as [`ProgramBuilder::call_func`],
    /// so the callee's prologue/epilogue work unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `target` is `RA` (the link write would race the read).
    pub fn call_reg(&mut self, target: Reg) {
        assert_ne!(target, Reg::RA, "indirect-call target must not be RA");
        self.emit(Instruction::CallInd {
            base: target,
            link: Reg::RA,
        });
    }

    /// Sets argument `k` of an upcoming call.
    ///
    /// # Panics
    ///
    /// Panics if `k >= 4`.
    pub fn set_arg(&mut self, k: usize, v: impl Into<Operand>) {
        let dst = Self::ARG_REGS[k];
        match v.into() {
            Operand::Reg(r) => self.mov(dst, r),
            Operand::Imm(i) => self.li(dst, i),
        }
    }

    /// Moves `v` into the return-value register.
    pub fn set_ret(&mut self, v: impl Into<Operand>) {
        match v.into() {
            Operand::Reg(r) => self.mov(Self::RET_REG, r),
            Operand::Imm(i) => self.li(Self::RET_REG, i),
        }
    }

    /// Returns early from the current function (jumps to the epilogue).
    ///
    /// # Panics
    ///
    /// Panics if not inside a function body.
    pub fn ret_fn(&mut self) {
        let ep = self.epilogue.expect("ret_fn outside function body");
        self.asm.jump(ep);
    }

    fn emit_prologue(&mut self) {
        self.addi(Reg::SP, Reg::SP, -FRAME_WORDS);
        self.emit(Instruction::Store {
            src: Reg::RA,
            base: Reg::SP,
            offset: 0,
        });
        for (k, r) in FUNC_POOL.iter().enumerate() {
            self.emit(Instruction::Store {
                src: *r,
                base: Reg::SP,
                offset: 1 + k as i32,
            });
        }
    }

    fn emit_epilogue(&mut self) {
        self.emit(Instruction::Load {
            rd: Reg::RA,
            base: Reg::SP,
            offset: 0,
        });
        for (k, r) in FUNC_POOL.iter().enumerate() {
            self.emit(Instruction::Load {
                rd: *r,
                base: Reg::SP,
                offset: 1 + k as i32,
            });
        }
        self.addi(Reg::SP, Reg::SP, FRAME_WORDS);
        self.emit(Instruction::Ret { link: Reg::RA });
    }

    // ----------------------------------------------------------------
    // Data and filler work
    // ----------------------------------------------------------------

    /// Reserves `words` words of static data and returns the base address.
    pub fn alloc_static(&mut self, words: i64) -> i64 {
        let base = self.static_brk;
        self.static_brk += words;
        base
    }

    /// `rd <- mem[addr]` for a static address.
    pub fn load_static(&mut self, rd: Reg, addr: i64) {
        self.li(Reg::AT, addr);
        self.emit(Instruction::Load {
            rd,
            base: Reg::AT,
            offset: 0,
        });
    }

    /// `mem[addr] <- src` for a static address.
    pub fn store_static(&mut self, src: Reg, addr: i64) {
        assert_ne!(src, Reg::AT, "AT is clobbered by store_static");
        self.li(Reg::AT, addr);
        self.emit(Instruction::Store {
            src,
            base: Reg::AT,
            offset: 0,
        });
    }

    /// `rd <- mem[base + idx]` — array element load.
    pub fn load_idx(&mut self, rd: Reg, base: i64, idx: Reg) {
        assert_ne!(idx, Reg::AT, "AT is clobbered by load_idx");
        self.li(Reg::AT, base);
        self.op(AluOp::Add, Reg::AT, Reg::AT, idx);
        self.emit(Instruction::Load {
            rd,
            base: Reg::AT,
            offset: 0,
        });
    }

    /// `mem[base + idx] <- src` — array element store.
    pub fn store_idx(&mut self, src: Reg, base: i64, idx: Reg) {
        assert_ne!(src, Reg::AT, "AT is clobbered by store_idx");
        assert_ne!(idx, Reg::AT, "AT is clobbered by store_idx");
        self.li(Reg::AT, base);
        self.op(AluOp::Add, Reg::AT, Reg::AT, idx);
        self.emit(Instruction::Store {
            src,
            base: Reg::AT,
            offset: 0,
        });
    }

    /// `rd <- mem[base + offset]` — register-indirect load through a
    /// pointer register (pointer chasing, stack slots). Unlike
    /// [`ProgramBuilder::load_static`] this never touches `AT`, so it is
    /// safe while `AT` holds live builder state.
    pub fn load_at(&mut self, rd: Reg, base: Reg, offset: i32) {
        self.emit(Instruction::Load { rd, base, offset });
    }

    /// `mem[base + offset] <- src` — register-indirect store through a
    /// pointer register. Never touches `AT`.
    pub fn store_at(&mut self, src: Reg, base: Reg, offset: i32) {
        self.emit(Instruction::Store { src, base, offset });
    }

    /// Emits `n` filler integer ALU instructions (a fresh constant load
    /// into the scratch accumulator followed by a deterministic mix of
    /// add/xor/shift). Used to pad loop bodies to a target size. The
    /// leading write means the scratch register is *not* live-in to
    /// enclosing loop iterations — filler models freshly computed
    /// temporaries, not loop-carried state.
    pub fn work(&mut self, n: u32) {
        for step in 0..n {
            let k = self.work_counter;
            self.work_counter = self.work_counter.wrapping_add(1);
            if step == 0 {
                self.emit(Instruction::LoadImm {
                    rd: Reg::AT,
                    imm: (k % 251) as i64,
                });
                continue;
            }
            let i = match k % 4 {
                0 => Instruction::AluImm {
                    op: AluOp::Add,
                    rd: Reg::AT,
                    ra: Reg::AT,
                    imm: (k % 97) as i32 + 1,
                },
                1 => Instruction::AluImm {
                    op: AluOp::Xor,
                    rd: Reg::AT,
                    ra: Reg::AT,
                    imm: 0x5a5a,
                },
                2 => Instruction::AluImm {
                    op: AluOp::Shl,
                    rd: Reg::AT,
                    ra: Reg::AT,
                    imm: 1,
                },
                _ => Instruction::AluImm {
                    op: AluOp::Shr,
                    rd: Reg::AT,
                    ra: Reg::AT,
                    imm: 1,
                },
            };
            self.emit(i);
        }
    }

    /// Emits `n` filler floating-point instructions on `f0`/`f1` —
    /// FP-heavy loop bodies for the numeric workloads.
    pub fn fwork(&mut self, n: u32) {
        for k in 0..n {
            let op = FAluOp::ALL[(k as usize) % 4];
            self.emit(Instruction::FAlu {
                op,
                fd: FReg::F0,
                fa: FReg::F0,
                fb: FReg::F1,
            });
        }
    }

    // ----------------------------------------------------------------
    // Pseudo-random numbers (guest-side LCG)
    // ----------------------------------------------------------------

    /// Advances an LCG whose state lives in `state` (31-bit state):
    /// `state = (state * 1103515245 + 12345) & 0x7fffffff`.
    pub fn lcg_next(&mut self, state: Reg) {
        self.op_imm(AluOp::Mul, state, state, LCG_MUL);
        self.op_imm(AluOp::Add, state, state, LCG_INC);
        self.op_imm(AluOp::And, state, state, LCG_MASK);
    }

    /// Advances the *global* RNG register (`r6`) and writes
    /// `rd <- r6 % modulo`.
    pub fn rng_below(&mut self, rd: Reg, modulo: i32) {
        assert!(modulo > 0, "modulo must be positive");
        self.lcg_next(Reg::R6);
        self.op_imm(AluOp::Rem, rd, Reg::R6, modulo);
    }

    // ----------------------------------------------------------------
    // Finish
    // ----------------------------------------------------------------

    /// Terminates the main program with `halt`, emits all pending function
    /// bodies (with prologue/epilogue), resolves labels and returns the
    /// assembled [`Program`].
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::UndefinedFunction`] if a called function was
    /// never defined, or any label/validation error from the assembler.
    pub fn finish(mut self) -> Result<Program, AsmError> {
        self.emit(Instruction::Halt);
        while let Some((name, body)) = self.pending.pop() {
            let label = self.funcs[&name].label;
            self.asm.bind(label)?;
            self.asm.define_symbol(&name)?;
            self.in_function = true;
            self.func_free = FUNC_POOL.iter().rev().copied().collect();
            let ep = self.asm.new_label();
            self.epilogue = Some(ep);
            self.emit_prologue();
            body(&mut self);
            self.asm.bind(ep)?;
            self.emit_epilogue();
            self.in_function = false;
            self.epilogue = None;
        }
        for (name, st) in &self.funcs {
            if !st.defined {
                return Err(AsmError::UndefinedFunction { name: name.clone() });
            }
        }
        self.asm.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopspec_isa::ControlKind;

    fn backward_branches(p: &Program) -> usize {
        p.code()
            .iter()
            .enumerate()
            .filter(|(i, instr)| match instr.control_kind() {
                ControlKind::CondBranch { target } | ControlKind::Jump { target } => {
                    target.index() <= *i as u32
                }
                _ => false,
            })
            .count()
    }

    #[test]
    fn counted_loop_has_backward_closing_branch() {
        let mut b = ProgramBuilder::new();
        b.counted_loop(5, |b, _i| b.work(2));
        let p = b.finish().unwrap();
        assert_eq!(backward_branches(&p), 1);
    }

    #[test]
    fn nested_loops_have_two_backward_branches() {
        let mut b = ProgramBuilder::new();
        b.counted_loop(5, |b, _| {
            b.counted_loop(3, |b, _| b.work(1));
        });
        let p = b.finish().unwrap();
        assert_eq!(backward_branches(&p), 2);
    }

    #[test]
    fn while_loop_closes_with_backward_jump() {
        let mut b = ProgramBuilder::new();
        let x = b.alloc_reg();
        b.li(x, 10);
        b.while_loop(
            |b| {
                b.op_imm(AluOp::Add, x, x, -1);
                (Cond::GtS, x, Reg::ZERO)
            },
            |b| b.work(1),
        );
        let p = b.finish().unwrap();
        assert_eq!(backward_branches(&p), 1);
    }

    #[test]
    fn functions_are_emitted_after_halt() {
        let mut b = ProgramBuilder::new();
        b.define_func("leaf", |b| {
            b.work(1);
        });
        b.call_func("leaf");
        let p = b.finish().unwrap();
        let main_halt = p
            .code()
            .iter()
            .position(|i| matches!(i, Instruction::Halt))
            .unwrap();
        let leaf = p.symbol("leaf").unwrap();
        assert!(leaf.index() as usize > main_halt);
        // The call must target the function entry.
        let call = p
            .code()
            .iter()
            .find_map(|i| match i {
                Instruction::Call { target, .. } => Some(*target),
                _ => None,
            })
            .unwrap();
        assert_eq!(call, leaf);
    }

    #[test]
    fn undefined_function_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.call_func("ghost");
        assert!(matches!(
            b.finish().unwrap_err(),
            AsmError::UndefinedFunction { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn double_definition_panics() {
        let mut b = ProgramBuilder::new();
        b.define_func("f", |_| {});
        b.define_func("f", |_| {});
    }

    #[test]
    fn break_and_continue_target_loop_labels() {
        let mut b = ProgramBuilder::new();
        b.counted_loop(10, |b, i| {
            b.continue_if(Cond::Eq, i, Reg::ZERO);
            b.break_if(Cond::GtS, i, Reg::ZERO);
            b.work(1);
        });
        let p = b.finish().unwrap();
        // Forward branches exist besides the closing one.
        assert!(p.len() > 8);
    }

    #[test]
    fn switch_table_emits_indirect_jump_and_trampolines() {
        let mut b = ProgramBuilder::new();
        let idx = b.alloc_reg();
        b.li(idx, 2);
        b.switch_table(idx, 3, |b, k| b.work(k as u32 + 1));
        let p = b.finish().unwrap();
        let indirect = p
            .code()
            .iter()
            .filter(|i| matches!(i.control_kind(), ControlKind::IndirectJump))
            .count();
        assert_eq!(indirect, 1);
        // Three trampoline jumps + three arm-exit jumps.
        let jumps = p
            .code()
            .iter()
            .filter(|i| matches!(i.control_kind(), ControlKind::Jump { .. }))
            .count();
        assert!(jumps >= 6);
    }

    #[test]
    fn register_pool_is_scoped_and_recycled() {
        let mut b = ProgramBuilder::new();
        let r1 = b.alloc_reg();
        b.free_reg(r1);
        let r2 = b.alloc_reg();
        assert_eq!(r1, r2);
        b.with_reg(|b, r| {
            assert_ne!(r, r2);
            b.li(r, 1);
        });
        b.free_reg(r2);
    }

    #[test]
    #[should_panic(expected = "register pool exhausted")]
    fn pool_exhaustion_panics() {
        let mut b = ProgramBuilder::new();
        for _ in 0..13 {
            let _ = b.alloc_reg();
        }
    }

    #[test]
    fn prologue_epilogue_balance() {
        let mut b = ProgramBuilder::new();
        b.define_func("f", |b| b.work(1));
        b.call_func("f");
        let p = b.finish().unwrap();
        let stores = p
            .code()
            .iter()
            .filter(|i| matches!(i, Instruction::Store { .. }))
            .count();
        let loads = p
            .code()
            .iter()
            .filter(|i| matches!(i, Instruction::Load { .. }))
            .count();
        assert_eq!(stores, loads);
        assert_eq!(stores, FRAME_WORDS as usize);
    }

    #[test]
    fn free_regs_tracks_the_active_pool() {
        let mut b = ProgramBuilder::new();
        let full = b.free_regs();
        let r = b.alloc_reg();
        assert_eq!(b.free_regs(), full - 1);
        b.free_reg(r);
        assert_eq!(b.free_regs(), full);
    }

    #[test]
    fn indirect_call_through_func_addr() {
        let mut b = ProgramBuilder::new();
        b.define_func("leaf", |b| b.work(1));
        let r = b.alloc_reg();
        b.func_addr(r, "leaf");
        b.call_reg(r);
        b.free_reg(r);
        let p = b.finish().unwrap();
        let leaf = p.symbol("leaf").unwrap();
        let indirect = p
            .code()
            .iter()
            .filter(|i| matches!(i.control_kind(), ControlKind::IndirectCall))
            .count();
        assert_eq!(indirect, 1);
        // The address materialized for the call is the function entry.
        let loaded = p
            .code()
            .iter()
            .find_map(|i| match i {
                Instruction::LoadImm { imm, .. } if *imm == leaf.index() as i64 => Some(*imm),
                _ => None,
            })
            .is_some();
        assert!(loaded, "func_addr must materialize the entry address");
    }

    #[test]
    fn indirect_addressing_never_touches_at() {
        let mut b = ProgramBuilder::new();
        let p = b.alloc_reg();
        b.li(p, STATIC_BASE);
        b.load_at(p, p, 3);
        b.store_at(p, p, -1);
        b.free_reg(p);
        let prog = b.finish().unwrap();
        let at_writes = prog
            .code()
            .iter()
            .filter(|i| {
                matches!(i, Instruction::Load { base, .. } | Instruction::Store { base, .. } if *base == Reg::AT)
            })
            .count();
        assert_eq!(at_writes, 0);
    }

    #[test]
    fn static_allocation_bumps() {
        let mut b = ProgramBuilder::new();
        let a = b.alloc_static(10);
        let c = b.alloc_static(4);
        assert_eq!(a, STATIC_BASE);
        assert_eq!(c, STATIC_BASE + 10);
    }
}
