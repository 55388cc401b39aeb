//! Native kernel dispatch: the execution side of the
//! [`loopspec_isa::kernel`] registry.
//!
//! A [`KernelCall`](loopspec_isa::Instruction::KernelCall) escapes the
//! general interpreter into a specialized loop over the registered
//! body. The escape is **observationally invisible**: the body's
//! instructions retire one by one — each advancing the retirement
//! counter, each reported to the tracer as an [`InstrEvent`] at its
//! virtual address ([`loopspec_isa::kernel::virtual_pc`]) — exactly as
//! if the body were inlined at those addresses and run by the ordinary
//! interpreter. Loop detection, dual-sink reports, fuel accounting and
//! snapshot bytes all come out bit-identical; only wall-clock time
//! changes.
//!
//! Two execution modes ([`KernelMode`], selected per CPU with
//! [`Cpu::set_kernel_mode`]; a new CPU starts in `native`):
//!
//! * **`native`** — the production path: a tight loop over the body
//!   with pre-computed per-pc event metadata (the kernel twin of the
//!   decoded interpreter's superblock walk). It keeps its own ALU,
//!   load and store arms: retiring the body through the decoded
//!   interpreter's `exec_flat_op` read slower on the kernel-stream
//!   benchmark (CHANGES.md has the pairs).
//! * **`interp`** — the kernel-body reference oracle, a deliberately
//!   independent implementation in the legacy interpreter's style:
//!   re-classify, re-walk `reg_use`, and rebuild the virtual-address
//!   remap on every step, sharing no per-pc tables with `native`.
//!   Tests compare the two: the unit tests of this module event for
//!   event and byte for byte on every registered kernel and every
//!   fuel cut inside a body, `tests/kernel_equivalence.rs` through the
//!   loop detector and the batch engine on every `kern:` driver and
//!   generated kernel program.
//!
//! Fuel can run out mid-body. The pause is recorded as a
//! [`KernelResume`] cursor (kernel id + body pc) — everything else the
//! body needs lives in architectural registers — and the program
//! counter stays on the `KernelCall`, so the next resume (on either
//! interpreter, in either mode, in another process via
//! [`Cpu::save_state`]) re-enters the body where it stopped.

use loopspec_isa::kernel::{self, virtual_pc};
use loopspec_isa::{Addr, ControlKind, Instruction, RegUse};

use crate::cpu::{Cpu, CpuError};
use crate::tracer::{ControlOutcome, Demand, InstrEvent, MemAccess, Tracer};

/// How the CPU executes registered kernel bodies. See the
/// `cpu::kernel` module docs for what each mode does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Tight pre-computed dispatch loop (the production path).
    #[default]
    Native,
    /// Independent step-at-a-time reference implementation (the
    /// kernel-body oracle).
    Interp,
}

/// Mid-body pause cursor: which kernel is in flight and the body pc to
/// re-enter at. All loop state (induction variable, accumulator,
/// addresses) is architectural, so this pair is the *entire*
/// non-architectural kernel state a snapshot must carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KernelResume {
    pub(crate) id: u32,
    pub(crate) bpc: u32,
}

/// Per-kernel tables the native loop consumes: the body (body-local
/// branch targets) and its register uses, borrowed from the static
/// [`kernel::KernelDef`], plus the body in event form (branch targets
/// remapped to virtual addresses) with its classification per body pc.
struct KernelImage {
    id: u32,
    body: &'static [Instruction],
    uses: &'static [RegUse],
    vinstrs: Vec<Instruction>,
    vkinds: Vec<ControlKind>,
}

/// Rewrites one body instruction into the form events report: branch
/// targets become virtual addresses, everything else is unchanged.
fn remap(id: u32, instr: Instruction) -> Instruction {
    match instr {
        Instruction::Branch {
            cond,
            ra,
            rb,
            target,
        } => Instruction::Branch {
            cond,
            ra,
            rb,
            target: virtual_pc(id, target.index()),
        },
        other => other,
    }
}

fn images() -> &'static [KernelImage] {
    static IMAGES: std::sync::OnceLock<Vec<KernelImage>> = std::sync::OnceLock::new();
    IMAGES.get_or_init(|| {
        kernel::all()
            .iter()
            .map(|k| {
                let vinstrs: Vec<Instruction> = k.body().iter().map(|&i| remap(k.id, i)).collect();
                KernelImage {
                    id: k.id,
                    body: k.body(),
                    uses: k.uses(),
                    vkinds: vinstrs.iter().map(|i| i.control_kind()).collect(),
                    vinstrs,
                }
            })
            .collect()
    })
}

fn image(id: u32) -> Option<&'static KernelImage> {
    images().iter().find(|k| k.id == id)
}

impl Cpu {
    /// Executes (or resumes) kernel `id` for at most `fuel` retirements,
    /// under the CPU's [`KernelMode`]. Returns `Ok(true)` when the body
    /// completed, `Ok(false)` on a mid-body fuel pause (the resume
    /// cursor is parked in the CPU and serialized by
    /// [`Cpu::save_state`]). The caller owns the program counter: it
    /// advances past the `KernelCall` only on completion.
    ///
    /// Both interpreters funnel their `KernelCall` dispatch through
    /// here, which is what makes kernel execution identical across the
    /// legacy and decoded paths by construction.
    pub(crate) fn exec_kernel<T: Tracer>(
        &mut self,
        id: u32,
        fuel: u64,
        tracer: &mut T,
        max_pages: usize,
    ) -> Result<bool, CpuError> {
        let img = image(id).ok_or(CpuError::UnknownKernel { id, pc: self.pc })?;
        let start = match self.kernel.take() {
            Some(r) if r.id == id => r.bpc,
            _ => {
                self.telem.kernel_calls += 1;
                0
            }
        };
        let (bpc, fault) = match self.kernel_mode {
            KernelMode::Native => self.kernel_native(img, start, fuel, tracer, max_pages),
            KernelMode::Interp => self.kernel_interp(img, start, fuel, tracer, max_pages),
        };
        if bpc as usize != img.body.len() {
            // Pause (fuel) or fault mid-body: park the cursor so resume
            // — and the snapshot — lands exactly here on every path.
            self.kernel = Some(KernelResume { id, bpc });
        }
        match fault {
            Some(e) => Err(e),
            None => Ok(bpc as usize == img.body.len()),
        }
    }

    /// The production body loop: pre-computed event metadata, demand-
    /// gated field assembly (the decoded interpreter's style). Returns
    /// the body pc reached and the fault that stopped it, if any.
    fn kernel_native<T: Tracer>(
        &mut self,
        img: &KernelImage,
        start: u32,
        fuel: u64,
        tracer: &mut T,
        max_pages: usize,
    ) -> (u32, Option<CpuError>) {
        let demand = tracer.demand();
        let len = img.body.len();
        let mut bpc = start as usize;
        let mut used = 0u64;
        while used < fuel && bpc < len {
            let pc = virtual_pc(img.id, bpc as u32);
            let mut ev = InstrEvent {
                seq: self.retired,
                pc,
                instr: img.vinstrs[bpc],
                control: ControlOutcome {
                    kind: img.vkinds[bpc],
                    taken: false,
                    target: Addr::new(pc.index().wrapping_add(1)),
                },
                reads: [None; 5],
                write: None,
                mem_read: None,
                mem_write: None,
            };
            if demand.reads() {
                self.capture_reads_from(&img.uses[bpc], &mut ev);
            }
            let mut next = bpc + 1;
            let mut stored = false;
            match img.body[bpc] {
                Instruction::Nop => {}
                Instruction::Alu { op, rd, ra, rb } => {
                    let v = op.eval(self.regs[ra.index()], self.regs[rb.index()]);
                    self.write_int_flat(rd.index() as u8, v, &mut ev, demand);
                }
                Instruction::AluImm { op, rd, ra, imm } => {
                    let v = op.eval(self.regs[ra.index()], imm as i64 as u64);
                    self.write_int_flat(rd.index() as u8, v, &mut ev, demand);
                }
                Instruction::LoadImm { rd, imm } => {
                    self.write_int_flat(rd.index() as u8, imm as u64, &mut ev, demand);
                }
                Instruction::Load { rd, base, offset } => {
                    let addr = self.regs[base.index()].wrapping_add(offset as i64 as u64);
                    let v = self.mem.read(addr);
                    if demand.mem() {
                        ev.mem_read = Some(MemAccess { addr, value: v });
                    }
                    self.write_int_flat(rd.index() as u8, v, &mut ev, demand);
                }
                Instruction::Store { src, base, offset } => {
                    let addr = self.regs[base.index()].wrapping_add(offset as i64 as u64);
                    let v = self.regs[src.index()];
                    self.mem.write(addr, v);
                    if demand.mem() {
                        ev.mem_write = Some(MemAccess { addr, value: v });
                    }
                    stored = true;
                }
                Instruction::Branch {
                    cond,
                    ra,
                    rb,
                    target,
                } => {
                    if cond.eval(self.regs[ra.index()], self.regs[rb.index()]) {
                        ev.control.taken = true;
                        ev.control.target = virtual_pc(img.id, target.index());
                        next = target.index() as usize;
                    }
                }
                _ => unreachable!("instruction outside the validated kernel subset"),
            }
            self.retired += 1;
            self.telem.kernel_instrs += 1;
            used += 1;
            tracer.on_retire(&ev);
            bpc = next;
            if stored && self.mem.pages_allocated() > max_pages {
                return (
                    bpc as u32,
                    Some(CpuError::MemoryLimit {
                        pages: self.mem.pages_allocated(),
                    }),
                );
            }
        }
        (bpc as u32, None)
    }

    /// Reference body loop in the legacy interpreter's style: remap,
    /// classify and walk `reg_use` afresh on every step, assemble the
    /// full event unconditionally. Architecturally and observably
    /// identical to [`Cpu::kernel_native`] (it may fill event fields a
    /// demand mask waived — fields the tracer promised not to read).
    fn kernel_interp<T: Tracer>(
        &mut self,
        img: &KernelImage,
        start: u32,
        fuel: u64,
        tracer: &mut T,
        max_pages: usize,
    ) -> (u32, Option<CpuError>) {
        let body = img.body;
        let mut bpc = start as usize;
        let mut used = 0u64;
        while used < fuel && bpc < body.len() {
            let instr = remap(img.id, body[bpc]);
            let pc = virtual_pc(img.id, bpc as u32);
            let mut ev = InstrEvent {
                seq: self.retired,
                pc,
                instr,
                control: ControlOutcome {
                    kind: instr.control_kind(),
                    taken: false,
                    target: Addr::new(pc.index().wrapping_add(1)),
                },
                reads: [None; 5],
                write: None,
                mem_read: None,
                mem_write: None,
            };
            self.capture_reads_from(&instr.reg_use(), &mut ev);
            let mut next = bpc + 1;
            let mut stored = false;
            match body[bpc] {
                Instruction::Nop => {}
                Instruction::Alu { op, rd, ra, rb } => {
                    let v = op.eval(self.reg(ra), self.reg(rb));
                    self.write_int_flat(rd.index() as u8, v, &mut ev, Demand::ALL);
                }
                Instruction::AluImm { op, rd, ra, imm } => {
                    let v = op.eval(self.reg(ra), imm as i64 as u64);
                    self.write_int_flat(rd.index() as u8, v, &mut ev, Demand::ALL);
                }
                Instruction::LoadImm { rd, imm } => {
                    self.write_int_flat(rd.index() as u8, imm as u64, &mut ev, Demand::ALL);
                }
                Instruction::Load { rd, base, offset } => {
                    let addr = self.reg(base).wrapping_add(offset as i64 as u64);
                    let v = self.mem.read(addr);
                    ev.mem_read = Some(MemAccess { addr, value: v });
                    self.write_int_flat(rd.index() as u8, v, &mut ev, Demand::ALL);
                }
                Instruction::Store { src, base, offset } => {
                    let addr = self.reg(base).wrapping_add(offset as i64 as u64);
                    let v = self.reg(src);
                    self.mem.write(addr, v);
                    ev.mem_write = Some(MemAccess { addr, value: v });
                    stored = true;
                }
                Instruction::Branch {
                    cond,
                    ra,
                    rb,
                    target,
                } => {
                    if cond.eval(self.reg(ra), self.reg(rb)) {
                        ev.control.taken = true;
                        ev.control.target = virtual_pc(img.id, target.index());
                        next = target.index() as usize;
                    }
                }
                _ => unreachable!("instruction outside the validated kernel subset"),
            }
            self.retired += 1;
            self.telem.kernel_instrs += 1;
            used += 1;
            tracer.on_retire(&ev);
            bpc = next;
            if stored && self.mem.pages_allocated() > max_pages {
                return (
                    bpc as u32,
                    Some(CpuError::MemoryLimit {
                        pages: self.mem.pages_allocated(),
                    }),
                );
            }
        }
        (bpc as u32, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{RunLimits, RunSummary};
    use crate::tracer::NullTracer;
    use loopspec_asm::{Program, ProgramBuilder};

    /// A program that primes the argument registers and calls `id`,
    /// then stores the result.
    fn call_program(id: u32, args: [i64; 3]) -> (Program, i64) {
        let mut b = ProgramBuilder::new();
        for (k, v) in args.iter().enumerate() {
            b.set_arg(k, *v);
        }
        b.emit(Instruction::KernelCall { id });
        let out = b.alloc_static(1);
        b.store_static(ProgramBuilder::RET_REG, out);
        (b.finish().unwrap(), out)
    }

    /// The same computation written as ordinary program instructions
    /// (what the kernel body is defined to be equivalent to).
    fn ksum_reference(n: i64, vals: &[i64]) -> i64 {
        let mut acc = 0i64;
        for i in 0..n {
            acc = acc.wrapping_add(vals[(i & kernel::KMASK as i64) as usize]);
        }
        acc
    }

    fn run_mode(p: &Program, mode: KernelMode, fill: &[(u64, u64)]) -> (Cpu, RunSummary) {
        let mut cpu = Cpu::new();
        cpu.set_kernel_mode(mode);
        for &(a, v) in fill {
            cpu.mem_mut().write(a, v);
        }
        let s = cpu.run(p, &mut NullTracer, RunLimits::default()).unwrap();
        (cpu, s)
    }

    /// Records every event verbatim, demanding every field.
    #[derive(Default)]
    struct Log(Vec<InstrEvent>);
    impl Tracer for Log {
        fn on_retire(&mut self, ev: &InstrEvent) {
            self.0.push(*ev);
        }
    }

    fn state_bytes(cpu: &Cpu) -> Vec<u8> {
        let mut enc = loopspec_isa::snap::Enc::new();
        cpu.save_state(&mut enc);
        enc.into_bytes()
    }

    /// What a mode-vs-mode comparison holds equal: the full event
    /// stream, the state bytes at the fuel cut (when there is one) and
    /// at the end, the result word, the retirement count and the pages
    /// touched.
    #[derive(Debug, PartialEq)]
    struct Trace {
        events: Vec<InstrEvent>,
        at_cut: Option<Vec<u8>>,
        end: Vec<u8>,
        out: u64,
        retired: u64,
        pages: usize,
    }

    /// Runs `p` in `first` mode — up to `cut` retirements when given,
    /// then on to the halt in `rest` mode — recording everything.
    fn trace(
        p: &Program,
        out: i64,
        fill: &[(u64, u64)],
        cut: Option<u64>,
        first: KernelMode,
        rest: KernelMode,
    ) -> Trace {
        let mut cpu = Cpu::new();
        cpu.set_kernel_mode(first);
        for &(a, v) in fill {
            cpu.mem_mut().write(a, v);
        }
        let mut log = Log::default();
        let mut at_cut = None;
        let mut retired = 0;
        cpu.pc = p.entry();
        if let Some(cut) = cut {
            let s = cpu.resume(p, &mut log, RunLimits::with_fuel(cut)).unwrap();
            assert!(!s.halted(), "cut {cut} must land before the halt");
            retired += s.retired;
            at_cut = Some(state_bytes(&cpu));
            cpu.set_kernel_mode(rest);
        }
        let s = cpu.resume(p, &mut log, RunLimits::default()).unwrap();
        assert!(s.halted());
        retired += s.retired;
        assert_eq!(cpu.retired(), retired);
        Trace {
            events: log.0,
            at_cut,
            end: state_bytes(&cpu),
            out: cpu.mem().read(out as u64),
            retired,
            pages: cpu.mem().pages_allocated(),
        }
    }

    /// The kernel-body oracle: on every registered kernel, `Native`
    /// and `Interp` retire the same full event stream and leave the
    /// same state bytes — for a whole call, and paused at every fuel
    /// cut of the run (so at every body pc), continued in the same mode
    /// or in the other one.
    #[test]
    fn native_matches_interp_on_every_kernel() {
        let base = 0x8000u64;
        let vals: Vec<i64> = (0..4096).map(|i| (i * 31 - 7) as i64).collect();
        let fill: Vec<(u64, u64)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (base + i as u64, v as u64))
            .chain((0..4096u64).map(|i| (0x9800 + i, i * 7 + 3)))
            .collect();
        for def in kernel::all() {
            let n = 100i64;
            let (p, out) = call_program(def.id, [n, base as i64, 0x9800]);
            let (native, interp) = (KernelMode::Native, KernelMode::Interp);
            let whole = trace(&p, out, &fill, None, native, native);
            assert_eq!(
                whole,
                trace(&p, out, &fill, None, interp, interp),
                "kernel {}: whole call",
                def.name
            );
            assert!(whole.events.len() as u64 > n as u64 * 5, "{}", def.name);
            match def.name {
                "ksum" => assert_eq!(whole.out, ksum_reference(n, &vals) as u64),
                "khash" => assert_ne!(whole.out, 0),
                _ => {}
            }

            // Every cut inside one short call: each body pc is a pause
            // point at least once.
            let (p, out) = call_program(def.id, [3, base as i64, 0x9800]);
            let reference = trace(&p, out, &fill, None, native, native);
            for cut in 1..reference.retired {
                let a = trace(&p, out, &fill, Some(cut), native, native);
                let b = trace(&p, out, &fill, Some(cut), interp, interp);
                assert_eq!(a, b, "kernel {}: cut at {cut}", def.name);
                assert_eq!(a.events, reference.events, "{}: cut at {cut}", def.name);
                assert_eq!(a.end, reference.end, "{}: cut at {cut}", def.name);
                let switched = trace(&p, out, &fill, Some(cut), native, interp);
                assert_eq!(a, switched, "kernel {}: mode switch at {cut}", def.name);
            }
        }
    }

    #[test]
    fn decoded_path_matches_legacy_on_kernels() {
        use crate::decoded::DecodedProgram;
        for def in kernel::all() {
            let (p, _) = call_program(def.id, [300, 0x9000, 0x9800]);
            let decoded = DecodedProgram::new(&p);

            let mut legacy_cpu = Cpu::new();
            legacy_cpu.set_kernel_mode(KernelMode::Native);
            let mut legacy = Log::default();
            let ls = legacy_cpu
                .run(&p, &mut legacy, RunLimits::default())
                .unwrap();

            let mut dec_cpu = Cpu::new();
            dec_cpu.set_kernel_mode(KernelMode::Native);
            let mut dec = Log::default();
            let ds = dec_cpu
                .run_decoded(&decoded, &mut dec, RunLimits::default())
                .unwrap();

            assert_eq!(ls.retired, ds.retired, "kernel {}", def.name);
            assert_eq!(legacy.0, dec.0, "kernel {}", def.name);

            // Interleave: pause under one interpreter, continue under
            // the other — including pauses that land mid-kernel-body.
            let mut mix = Cpu::new();
            let mut use_decoded = false;
            let mut s = mix
                .run(&p, &mut NullTracer, RunLimits::with_fuel(11))
                .unwrap();
            while !s.halted() {
                s = if use_decoded {
                    mix.resume_decoded(&decoded, &mut NullTracer, RunLimits::with_fuel(11))
                } else {
                    mix.resume(&p, &mut NullTracer, RunLimits::with_fuel(11))
                }
                .unwrap();
                use_decoded = !use_decoded;
            }
            assert_eq!(mix.retired(), legacy_cpu.retired(), "kernel {}", def.name);
            let bytes = |cpu: &Cpu| {
                let mut enc = loopspec_isa::snap::Enc::new();
                cpu.save_state(&mut enc);
                enc.into_bytes()
            };
            assert_eq!(bytes(&mix), bytes(&legacy_cpu), "kernel {}", def.name);
        }
    }

    #[test]
    fn kernel_telemetry_counts_dispatches_and_body_instrs() {
        let (p, _) = call_program(4, [50, 1, 0]);
        let mut cpu = Cpu::new();
        cpu.set_kernel_mode(KernelMode::Native);
        let s = cpu.run(&p, &mut NullTracer, RunLimits::default()).unwrap();
        let t = cpu.take_decoded_telemetry();
        assert_eq!(t.kernel_calls, 1);
        assert!(
            t.kernel_instrs > 50 * 5,
            "body retirements: {}",
            t.kernel_instrs
        );
        assert!(t.kernel_instrs < s.retired);
        assert!(!t.is_empty());
    }

    #[test]
    fn unknown_kernel_faults_cleanly() {
        let (p, _) = call_program(999, [1, 0, 0]);
        let mut cpu = Cpu::new();
        let err = cpu
            .run(&p, &mut NullTracer, RunLimits::default())
            .unwrap_err();
        assert!(matches!(err, CpuError::UnknownKernel { id: 999, .. }));
        assert!(err.to_string().contains("999"));
    }

    #[test]
    fn fuel_pauses_mid_body_and_resumes_exactly() {
        let (p, out) = call_program(4, [500, 99, 0]);
        let (reference, ref_s) = run_mode(&p, KernelMode::Native, &[]);

        let mut cpu = Cpu::new();
        let mut slices = 0;
        let mut first = cpu
            .run(&p, &mut NullTracer, RunLimits::with_fuel(7))
            .unwrap();
        while !first.halted() {
            slices += 1;
            // Round-trip the paused state through bytes (the cursor
            // must survive serialization).
            let mut enc = loopspec_isa::snap::Enc::new();
            cpu.save_state(&mut enc);
            let bytes = enc.into_bytes();
            let mut fresh = Cpu::new();
            let mut dec = loopspec_isa::snap::Dec::new(&bytes);
            fresh.load_state(&mut dec).unwrap();
            dec.finish().unwrap();
            cpu = fresh;
            first = cpu
                .resume(&p, &mut NullTracer, RunLimits::with_fuel(13))
                .unwrap();
        }
        assert!(slices > 10, "the kernel must have been cut many times");
        assert_eq!(cpu.retired(), ref_s.retired);
        assert_eq!(cpu.mem().read(out as u64), reference.mem().read(out as u64));
    }
}
