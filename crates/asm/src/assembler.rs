//! The label-resolving assembler core.

use std::collections::BTreeMap;

use loopspec_isa::{Addr, Cond, Instruction, Reg};

use crate::{AsmError, Program};

/// Handle to an assembler label: a code position that may be referenced
/// before it is bound.
///
/// Created by [`Assembler::new_label`], bound by [`Assembler::bind`], and
/// consumed by the control-flow emitters ([`Assembler::branch`],
/// [`Assembler::jump`], [`Assembler::call`],
/// [`Assembler::load_label_addr`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelId(u32);

/// Which field of a placeholder instruction a fixup patches.
#[derive(Debug, Clone, Copy)]
enum FixKind {
    /// `Branch`/`Jump`/`Call` target field.
    Target,
    /// `LoadImm` immediate holding a code address.
    AddrImm,
}

#[derive(Debug)]
struct Fixup {
    at: usize,
    label: LabelId,
    kind: FixKind,
}

/// A two-pass assembler: emit instructions freely, referencing labels that
/// are bound later; [`Assembler::finish`] patches every reference.
///
/// ```
/// use loopspec_asm::Assembler;
/// use loopspec_isa::{Cond, Instruction, Reg, AluOp};
///
/// let mut a = Assembler::new();
/// let top = a.new_label();
/// a.bind(top).unwrap();
/// a.emit(Instruction::AluImm { op: AluOp::Add, rd: Reg::R1, ra: Reg::R1, imm: 1 });
/// a.branch(Cond::LtS, Reg::R1, Reg::R2, top); // backward branch to `top`
/// a.emit(Instruction::Halt);
/// let program = a.finish().unwrap();
/// assert_eq!(program.len(), 3);
/// ```
#[derive(Debug, Default)]
pub struct Assembler {
    code: Vec<Instruction>,
    labels: Vec<Option<Addr>>,
    fixups: Vec<Fixup>,
    symbols: BTreeMap<String, Addr>,
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The address of the next instruction to be emitted.
    #[inline]
    pub fn here(&self) -> Addr {
        Addr::new(self.code.len() as u32)
    }

    /// Appends an instruction and returns its address.
    pub fn emit(&mut self, instr: Instruction) -> Addr {
        let at = self.here();
        self.code.push(instr);
        at
    }

    /// Creates a fresh, unbound label.
    pub fn new_label(&mut self) -> LabelId {
        let id = LabelId(self.labels.len() as u32);
        self.labels.push(None);
        id
    }

    /// Binds `label` to the current position.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::DoublyBoundLabel`] if the label was already
    /// bound.
    pub fn bind(&mut self, label: LabelId) -> Result<(), AsmError> {
        let slot = &mut self.labels[label.0 as usize];
        if slot.is_some() {
            return Err(AsmError::DoublyBoundLabel { label: label.0 });
        }
        *slot = Some(Addr::new(self.code.len() as u32));
        Ok(())
    }

    /// Convenience: creates a label already bound to the current position.
    pub fn label_here(&mut self) -> LabelId {
        let l = self.new_label();
        self.bind(l).expect("fresh label cannot be double-bound");
        l
    }

    /// Emits a conditional branch to `label` (patched at finish).
    pub fn branch(&mut self, cond: Cond, ra: Reg, rb: Reg, label: LabelId) -> Addr {
        let at = self.emit(Instruction::Branch {
            cond,
            ra,
            rb,
            target: Addr::ZERO,
        });
        self.fixups.push(Fixup {
            at: at.index() as usize,
            label,
            kind: FixKind::Target,
        });
        at
    }

    /// Emits an unconditional jump to `label` (patched at finish).
    pub fn jump(&mut self, label: LabelId) -> Addr {
        let at = self.emit(Instruction::Jump { target: Addr::ZERO });
        self.fixups.push(Fixup {
            at: at.index() as usize,
            label,
            kind: FixKind::Target,
        });
        at
    }

    /// Emits a call to `label` with link register `link` (patched at
    /// finish).
    pub fn call(&mut self, label: LabelId, link: Reg) -> Addr {
        let at = self.emit(Instruction::Call {
            target: Addr::ZERO,
            link,
        });
        self.fixups.push(Fixup {
            at: at.index() as usize,
            label,
            kind: FixKind::Target,
        });
        at
    }

    /// Emits `LoadImm rd, addr_of(label)` — materialises a code address in
    /// a register, for indirect jumps and jump tables (patched at finish).
    pub fn load_label_addr(&mut self, rd: Reg, label: LabelId) -> Addr {
        let at = self.emit(Instruction::LoadImm { rd, imm: 0 });
        self.fixups.push(Fixup {
            at: at.index() as usize,
            label,
            kind: FixKind::AddrImm,
        });
        at
    }

    /// Records a named symbol at the current position.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::DuplicateSymbol`] if the name already exists.
    pub fn define_symbol(&mut self, name: &str) -> Result<(), AsmError> {
        if self.symbols.contains_key(name) {
            return Err(AsmError::DuplicateSymbol { name: name.into() });
        }
        self.symbols.insert(name.to_string(), self.here());
        Ok(())
    }

    /// Resolves all fixups and produces the final [`Program`] with entry
    /// point at address 0.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::UnboundLabel`] for any referenced-but-unbound
    /// label, or a validation error from [`Program::new`].
    pub fn finish(mut self) -> Result<Program, AsmError> {
        for fix in &self.fixups {
            let addr = self.labels[fix.label.0 as usize]
                .ok_or(AsmError::UnboundLabel { label: fix.label.0 })?;
            let instr = &mut self.code[fix.at];
            match (fix.kind, &mut *instr) {
                (FixKind::Target, Instruction::Branch { target, .. })
                | (FixKind::Target, Instruction::Jump { target })
                | (FixKind::Target, Instruction::Call { target, .. }) => *target = addr,
                (FixKind::AddrImm, Instruction::LoadImm { imm, .. }) => *imm = addr.index() as i64,
                _ => unreachable!("fixup recorded against incompatible instruction"),
            }
        }
        Program::new(self.code, Addr::ZERO, self.symbols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopspec_isa::AluOp;

    #[test]
    fn forward_reference_resolves() {
        let mut a = Assembler::new();
        let end = a.new_label();
        a.jump(end);
        a.emit(Instruction::Nop);
        a.bind(end).unwrap();
        a.emit(Instruction::Halt);
        let p = a.finish().unwrap();
        assert_eq!(
            p.code()[0],
            Instruction::Jump {
                target: Addr::new(2)
            }
        );
    }

    #[test]
    fn backward_reference_resolves() {
        let mut a = Assembler::new();
        let top = a.label_here();
        a.emit(Instruction::Nop);
        a.branch(Cond::Ne, Reg::R1, Reg::R0, top);
        a.emit(Instruction::Halt);
        let p = a.finish().unwrap();
        match p.code()[1] {
            Instruction::Branch { target, .. } => assert_eq!(target, Addr::ZERO),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn label_addr_immediate_resolves() {
        let mut a = Assembler::new();
        let tgt = a.new_label();
        a.load_label_addr(Reg::R1, tgt);
        a.emit(Instruction::JumpInd { base: Reg::R1 });
        a.bind(tgt).unwrap();
        a.emit(Instruction::Halt);
        let p = a.finish().unwrap();
        assert_eq!(
            p.code()[0],
            Instruction::LoadImm {
                rd: Reg::R1,
                imm: 2
            }
        );
    }

    #[test]
    fn unbound_label_errors() {
        let mut a = Assembler::new();
        let never = a.new_label();
        a.jump(never);
        assert!(matches!(
            a.finish().unwrap_err(),
            AsmError::UnboundLabel { .. }
        ));
    }

    #[test]
    fn double_bind_errors() {
        let mut a = Assembler::new();
        let l = a.new_label();
        a.bind(l).unwrap();
        assert!(matches!(
            a.bind(l).unwrap_err(),
            AsmError::DoublyBoundLabel { .. }
        ));
    }

    #[test]
    fn duplicate_symbol_errors() {
        let mut a = Assembler::new();
        a.define_symbol("x").unwrap();
        assert!(matches!(
            a.define_symbol("x").unwrap_err(),
            AsmError::DuplicateSymbol { .. }
        ));
    }

    #[test]
    fn call_fixup() {
        let mut a = Assembler::new();
        let f = a.new_label();
        a.call(f, Reg::RA);
        a.emit(Instruction::Halt);
        a.bind(f).unwrap();
        a.emit(Instruction::Ret { link: Reg::RA });
        let p = a.finish().unwrap();
        assert_eq!(
            p.code()[0],
            Instruction::Call {
                target: Addr::new(2),
                link: Reg::RA
            }
        );
    }

    #[test]
    fn emit_tracks_addresses() {
        let mut a = Assembler::new();
        assert_eq!(a.here(), Addr::ZERO);
        let at = a.emit(Instruction::AluImm {
            op: AluOp::Add,
            rd: Reg::R1,
            ra: Reg::R0,
            imm: 0,
        });
        assert_eq!(at, Addr::ZERO);
        assert_eq!(a.here(), Addr::new(1));
    }
}
