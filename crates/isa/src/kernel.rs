//! The kernel registry: named, fingerprinted instruction bodies that a
//! [`Instruction::KernelCall`] dispatches natively.
//!
//! A *kernel* is a short straight-line-plus-backedge body written in a
//! restricted integer subset of the ISA. The CPU may execute a
//! registered kernel through a specialized dispatch loop instead of the
//! general interpreter, but the contract is strict **observational
//! equivalence**: the body's instructions retire one by one, each with
//! a synthesized trace event at a stable *virtual address*
//! ([`virtual_pc`]), bit-identical to inlining the body at those
//! addresses and running it through the ordinary interpreter. The loop
//! detector therefore sees the kernel's backward branch as a perfectly
//! ordinary static loop, keyed by a pc that no real program address can
//! collide with ([`KERNEL_PC_BASE`]).
//!
//! ## The kernel ABI
//!
//! A kernel behaves like a leaf call under the workspace calling
//! convention:
//!
//! * arguments arrive in `r2..r5` (the argument registers),
//! * the result is left in `r1` (the return-value register),
//! * `r1..r5`, `r7` and `r31` may be clobbered; every other register —
//!   including the generated-code virtual-register pools — is
//!   preserved,
//! * memory indices are masked with [`KMASK`] (baked into the body as
//!   an immediate), so a kernel touches at most `KMASK + 1` words per
//!   base pointer regardless of its trip count.
//!
//! ## Fingerprints
//!
//! Each body is hashed (FNV-1a over its id, name and encoded words)
//! into [`KernelDef::fingerprint`]; [`registry_fingerprint`] folds all
//! of them in id order. Snapshots and distributed job specs embed these
//! sums so state can never silently cross a kernel-set boundary: a
//! checkpoint taken under one registry refuses to resume under another
//! ([`check_state`]), and cached reports key on the registry hash.

use std::sync::OnceLock;

use crate::snap::{fnv1a_update, Dec, Enc, SnapError, FNV1A_INIT};
use crate::{Addr, AluOp, Cond, Instruction, Reg, RegUse};

/// Base of the virtual code-address space kernel bodies retire at.
///
/// Real programs are bounded far below this (the assembler's code
/// segment is a few thousand words), so virtual pcs can never collide
/// with a program address — the loop detector keys kernel loops
/// separately from everything else by construction.
pub const KERNEL_PC_BASE: u32 = 0x4000_0000;

/// Index mask baked into kernel bodies: array subscripts are masked to
/// `0..=KMASK`, bounding the memory footprint of any kernel invocation
/// to `KMASK + 1` words (32 KiB) per base pointer.
pub const KMASK: i32 = 4095;

/// The virtual address at which body instruction `bpc` of kernel `id`
/// retires: `KERNEL_PC_BASE | id << 16 | bpc`.
///
/// Stable across interpreters, shards and processes — it depends only
/// on the registry, never on machine state — which is what makes the
/// synthesized event stream reproducible.
#[inline]
pub fn virtual_pc(id: u32, bpc: u32) -> Addr {
    debug_assert!(id <= MAX_ID && bpc <= 0xffff);
    Addr::new(KERNEL_PC_BASE | id << 16 | bpc)
}

/// Largest registrable kernel id (ids pack into bits `[16, 30)` of the
/// virtual pc).
pub const MAX_ID: u32 = (1 << 14) - 1;

/// A registered kernel: a stable id, a human name, the body, and the
/// static tables the native dispatch loop consumes.
#[derive(Debug, Clone)]
pub struct KernelDef {
    /// Stable registry id (the `KernelCall` immediate).
    pub id: u32,
    /// Human-readable name (`kern:<name>` workload selectors use it).
    pub name: &'static str,
    /// One-line description for catalogs and docs.
    pub description: &'static str,
    body: Vec<Instruction>,
    uses: Vec<RegUse>,
    fingerprint: u64,
}

impl KernelDef {
    fn new(id: u32, name: &'static str, description: &'static str, body: Vec<Instruction>) -> Self {
        assert!((1..=MAX_ID).contains(&id), "kernel id {id} out of range");
        if let Err(why) = validate_body(&body) {
            panic!("kernel {name} (id {id}) has an invalid body: {why}");
        }
        let mut h = fnv1a_update(FNV1A_INIT, &id.to_le_bytes());
        h = fnv1a_update(h, name.as_bytes());
        h = fnv1a_update(h, &(body.len() as u64).to_le_bytes());
        for i in &body {
            h = fnv1a_update(h, &i.encode().to_le_bytes());
        }
        KernelDef {
            id,
            name,
            description,
            uses: body.iter().map(|i| i.reg_use()).collect(),
            fingerprint: h,
            body,
        }
    }

    /// The kernel body: the exact instruction sequence whose retirement
    /// the dispatch synthesizes.
    pub fn body(&self) -> &[Instruction] {
        &self.body
    }

    /// Pre-computed [`RegUse`] per body pc.
    pub fn uses(&self) -> &[RegUse] {
        &self.uses
    }

    /// FNV-1a sum over the kernel's id, name and encoded body words.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// Why a body is not a valid kernel. See [`validate_body`].
pub type BodyError = &'static str;

/// Checks the kernel-body subset rules:
///
/// * non-empty, at most `0xffff` instructions (bodies pack their pc
///   into 16 virtual-address bits);
/// * integer straight-line ops and conditional branches only — no
///   halt, no calls or returns, no jumps, no FP, no nested kernels;
/// * branch targets stay inside `0..=len` (`len` — one past the end —
///   is the completion exit);
/// * every register read or written is in the kernel ABI set
///   (`r0..r5`, `r7`, `r31`), so a kernel can never disturb the
///   caller's preserved registers.
pub fn validate_body(body: &[Instruction]) -> Result<(), BodyError> {
    if body.is_empty() {
        return Err("empty body");
    }
    if body.len() > 0xffff {
        return Err("body exceeds 65535 instructions");
    }
    let ok_reg = |r: Reg| matches!(r.index(), 0..=5 | 7 | 31);
    for instr in body {
        match *instr {
            Instruction::Nop
            | Instruction::Alu { .. }
            | Instruction::AluImm { .. }
            | Instruction::LoadImm { .. }
            | Instruction::Load { .. }
            | Instruction::Store { .. } => {}
            Instruction::Branch { target, .. } => {
                if target.index() as usize > body.len() {
                    return Err("branch target outside the body");
                }
            }
            _ => return Err("instruction outside the kernel subset"),
        }
        let u = instr.reg_use();
        if !u.reads_iter().all(ok_reg) || !u.write.is_none_or(ok_reg) {
            return Err("register outside the kernel ABI set");
        }
    }
    Ok(())
}

fn li(rd: Reg, imm: i64) -> Instruction {
    Instruction::LoadImm { rd, imm }
}
fn alu(op: AluOp, rd: Reg, ra: Reg, rb: Reg) -> Instruction {
    Instruction::Alu { op, rd, ra, rb }
}
fn alui(op: AluOp, rd: Reg, ra: Reg, imm: i32) -> Instruction {
    Instruction::AluImm { op, rd, ra, imm }
}
fn branch(cond: Cond, ra: Reg, rb: Reg, target: u32) -> Instruction {
    Instruction::Branch {
        cond,
        ra,
        rb,
        target: Addr::new(target),
    }
}

/// The built-in kernels. Bodies follow one shape — init, guard branch
/// for the zero-trip case, counted loop with a backward branch — so the
/// loop detector sees each as one static loop at its virtual address.
///
/// ABI reminder: `r2` is the first argument (always the trip count
/// `n`), `r1` the result, `r7`/`r31` scratch.
fn builtins() -> Vec<KernelDef> {
    use AluOp::*;
    use Reg::{R0, R1, R2, R3, R31, R4, R5, R7};
    let ksum = vec![
        li(R1, 0),                     // 0: acc <- 0
        li(R31, 0),                    // 1: i <- 0
        branch(Cond::GeS, R31, R2, 9), // 2: zero-trip guard
        alui(And, R7, R31, KMASK),     // 3: idx <- i & KMASK
        alu(Add, R7, R7, R3),          // 4: addr <- base + idx
        Instruction::Load {
            rd: R7,
            base: R7,
            offset: 0,
        }, // 5: tmp <- mem[addr]
        alu(Add, R1, R1, R7),          // 6: acc += tmp
        alui(Add, R31, R31, 1),        // 7: i += 1
        branch(Cond::LtS, R31, R2, 3), // 8: loop back edge
    ];
    let kfill = vec![
        alu(Add, R1, R4, R0),          // 0: val <- seed
        li(R31, 0),                    // 1: i <- 0
        branch(Cond::GeS, R31, R2, 9), // 2: zero-trip guard
        alui(And, R7, R31, KMASK),     // 3: idx <- i & KMASK
        alu(Add, R7, R7, R3),          // 4: addr <- base + idx
        Instruction::Store {
            src: R1,
            base: R7,
            offset: 0,
        }, // 5: mem[addr] <- val
        alui(Add, R1, R1, 5),          // 6: val += 5
        alui(Add, R31, R31, 1),        // 7: i += 1
        branch(Cond::LtS, R31, R2, 3), // 8: loop back edge
    ];
    let kdot = vec![
        li(R1, 0),                      // 0: acc <- 0
        li(R31, 0),                     // 1: i <- 0
        branch(Cond::GeS, R31, R2, 12), // 2: zero-trip guard
        alui(And, R7, R31, KMASK),      // 3: idx <- i & KMASK
        alu(Add, R5, R7, R3),           // 4: pa <- a + idx
        Instruction::Load {
            rd: R5,
            base: R5,
            offset: 0,
        }, // 5: va <- mem[pa]
        alu(Add, R7, R7, R4),           // 6: pb <- b + idx
        Instruction::Load {
            rd: R7,
            base: R7,
            offset: 0,
        }, // 7: vb <- mem[pb]
        alu(Mul, R5, R5, R7),           // 8: va *= vb
        alu(Add, R1, R1, R5),           // 9: acc += va
        alui(Add, R31, R31, 1),         // 10: i += 1
        branch(Cond::LtS, R31, R2, 3),  // 11: loop back edge
    ];
    let khash = vec![
        alu(Add, R1, R3, R0),             // 0: h <- seed
        li(R31, 0),                       // 1: i <- 0
        branch(Cond::GeS, R31, R2, 9),    // 2: zero-trip guard
        alui(Mul, R1, R1, 1_103_515_245), // 3: h *= LCG multiplier
        alu(Add, R1, R1, R31),            // 4: h += i
        alui(Shr, R7, R1, 17),            // 5: t <- h >> 17
        alu(Xor, R1, R1, R7),             // 6: h ^= t
        alui(Add, R31, R31, 1),           // 7: i += 1
        branch(Cond::LtS, R31, R2, 3),    // 8: loop back edge
    ];
    vec![
        KernelDef::new(
            1,
            "ksum",
            "sum of a masked array window: r1 <- Σ mem[r3 + (i & KMASK)]",
            ksum,
        ),
        KernelDef::new(
            2,
            "kfill",
            "arithmetic fill: mem[r3 + (i & KMASK)] <- r4 + 5i",
            kfill,
        ),
        KernelDef::new(
            3,
            "kdot",
            "dot product of two masked windows at r3 and r4",
            kdot,
        ),
        KernelDef::new(
            4,
            "khash",
            "pure-register LCG/xorshift mix of r3 over n rounds",
            khash,
        ),
    ]
}

fn registry() -> &'static [KernelDef] {
    static REGISTRY: OnceLock<Vec<KernelDef>> = OnceLock::new();
    REGISTRY.get_or_init(builtins)
}

/// All registered kernels, in id order.
pub fn all() -> &'static [KernelDef] {
    registry()
}

/// Looks a kernel up by registry id.
pub fn lookup(id: u32) -> Option<&'static KernelDef> {
    registry().iter().find(|k| k.id == id)
}

/// Looks a kernel up by name (the `kern:<name>` selector).
pub fn by_name(name: &str) -> Option<&'static KernelDef> {
    registry().iter().find(|k| k.name == name)
}

/// FNV-1a fold of every registered kernel's fingerprint, in id order —
/// the one number that identifies "the kernel set this process runs".
pub fn registry_fingerprint() -> u64 {
    let mut h = FNV1A_INIT;
    for k in registry() {
        h = fnv1a_update(h, &k.fingerprint.to_le_bytes());
    }
    h
}

/// Layout tag opening the kernel-registry snapshot section.
const SECTION_TAG: u8 = 0x4b; // 'K'

/// Writes the kernel-registry echo section: tag, kernel count, then
/// each kernel's `(id, fingerprint)` in id order, closed by the folded
/// [`registry_fingerprint`].
///
/// The section describes the *registry*, not machine state — resume-
/// time kernel progress lives in the CPU snapshot. Embedding it lets
/// [`check_state`] refuse checkpoints from a differently built binary.
pub fn save_state(enc: &mut Enc) {
    enc.u8(SECTION_TAG);
    let ks = registry();
    enc.u32(ks.len() as u32);
    for k in ks {
        enc.u32(k.id);
        enc.u64(k.fingerprint);
    }
    enc.u64(registry_fingerprint());
}

/// Bytes [`save_state`] writes: tag, count, 12 bytes per kernel, and
/// the folded fingerprint.
pub fn state_len() -> usize {
    1 + 4 + 12 * registry().len() + 8
}

/// Verifies a section written by [`save_state`] against the live
/// registry.
///
/// # Errors
///
/// [`SnapError::Corrupt`] for a bad tag or impossible count;
/// [`SnapError::Mismatch`] when the snapshot's kernel set differs from
/// this process's — resuming would silently change what `KernelCall`s
/// execute, so it is refused.
pub fn check_state(dec: &mut Dec<'_>) -> Result<(), SnapError> {
    dec.tag(SECTION_TAG, "kernel section tag")?;
    let n = dec.u32()? as usize;
    let ks = registry();
    if n > ks.len() + 1024 {
        return Err(SnapError::Corrupt {
            what: "kernel count",
        });
    }
    if n != ks.len() {
        return Err(SnapError::Mismatch {
            what: "kernel count",
        });
    }
    for k in ks {
        if dec.u32()? != k.id || dec.u64()? != k.fingerprint {
            return Err(SnapError::Mismatch {
                what: "kernel fingerprint",
            });
        }
    }
    if dec.u64()? != registry_fingerprint() {
        return Err(SnapError::Mismatch {
            what: "kernel registry fingerprint",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_register_and_validate() {
        let ks = all();
        assert_eq!(ks.len(), 4);
        for (i, k) in ks.iter().enumerate() {
            assert_eq!(k.id as usize, i + 1, "ids are dense from 1");
            assert!(validate_body(k.body()).is_ok());
            assert_eq!(k.uses().len(), k.body().len());
            assert_eq!(lookup(k.id).unwrap().name, k.name);
            assert_eq!(by_name(k.name).unwrap().id, k.id);
        }
        assert!(lookup(0).is_none());
        assert!(lookup(99).is_none());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn fingerprints_are_distinct_and_fold_into_the_registry_sum() {
        let ks = all();
        for a in ks {
            for b in ks {
                if a.id != b.id {
                    assert_ne!(a.fingerprint(), b.fingerprint());
                }
            }
        }
        // Deterministic across calls.
        assert_eq!(registry_fingerprint(), registry_fingerprint());
    }

    #[test]
    fn virtual_pcs_are_disjoint_per_kernel_and_above_program_space() {
        let a = virtual_pc(1, 0);
        let b = virtual_pc(2, 0);
        assert!(a.index() >= KERNEL_PC_BASE);
        assert_ne!(a, b);
        assert_eq!(virtual_pc(3, 7).index() & 0xffff, 7);
    }

    #[test]
    fn body_validation_rejects_escapes() {
        assert_eq!(validate_body(&[]), Err("empty body"));
        assert!(validate_body(&[Instruction::Halt]).is_err());
        assert!(validate_body(&[Instruction::Ret { link: Reg::RA }]).is_err());
        assert!(validate_body(&[Instruction::KernelCall { id: 1 }]).is_err());
        assert!(validate_body(&[Instruction::Jump {
            target: Addr::new(0)
        }])
        .is_err());
        // Branch past one-past-the-end is invalid; to it is the exit.
        assert!(validate_body(&[branch(Cond::Eq, Reg::R0, Reg::R0, 2)]).is_err());
        assert!(validate_body(&[branch(Cond::Eq, Reg::R0, Reg::R0, 1)]).is_ok());
        // A preserved register outside the ABI set is refused.
        assert!(validate_body(&[alui(AluOp::Add, Reg::R8, Reg::R0, 1)]).is_err());
        assert!(validate_body(&[alui(AluOp::Add, Reg::R1, Reg::R0, 1)]).is_ok());
    }

    #[test]
    fn snapshot_section_round_trips_and_rejects_tampering() {
        let mut enc = Enc::new();
        save_state(&mut enc);
        let bytes = enc.into_bytes();
        assert_eq!(bytes.len(), state_len());
        check_state(&mut Dec::new(&bytes)).unwrap();
        // A flipped fingerprint byte is a mismatch, not a panic.
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 1] ^= 0x40;
        assert!(matches!(
            check_state(&mut Dec::new(&bad)),
            Err(SnapError::Mismatch { .. })
        ));
        // A wrong tag is corrupt.
        let mut bad = bytes.clone();
        bad[0] = 0x00;
        assert!(matches!(
            check_state(&mut Dec::new(&bad)),
            Err(SnapError::Corrupt { .. })
        ));
        // Truncation is a clean typed error.
        for cut in 0..bytes.len() {
            assert!(check_state(&mut Dec::new(&bytes[..cut])).is_err());
        }
    }
}
