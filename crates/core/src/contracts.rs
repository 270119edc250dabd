//! Access contracts for every kernel in the suite, lowered from the kernel
//! IR.
//!
//! Each algorithm module describes its kernels once, as access-level IR
//! ([`ecl_simt::KernelIr`]): per kernel, every buffer it touches, in which
//! [`ecl_simt::AccessMode`], width, and index discipline. The op builders
//! here capture the access *shapes* the [`crate::primitives::AccessPolicy`]
//! layer issues, and the modules assemble their `ir::<F>()` from them under
//! the policies a [`Flavor`] names. The contracts (see
//! [`ecl_simt::KernelContract`]) are the lowering of that IR
//! ([`ecl_simt::lower_all`]), which is where a policy's `write_byte` becomes
//! a byte-wide store in the baselines but a word-wide CAS loop in the
//! race-free conversion (paper Figs. 3–4) — exactly what the simulator
//! records. `output/GOLDEN_CONTRACTS.txt` holds a rendering of every entry
//! of every lowered contract, and a tier-1 test compares against it, so any
//! change to the contracts shows up in review.
//!
//! The contracts are consumed by three tools:
//!
//! - `ecl-analyze` checks them statically (race-freedom proof for the
//!   race-free variants, benign-race census for the baselines);
//! - [`ecl_simt::Gpu::install_contracts`] enforces them dynamically,
//!   failing any launch that touches memory outside its declaration;
//! - the repair pass in `ecl-analyze` rewrites the IR's repairable ops and
//!   re-lowers contracts for the synthesized variant.

use crate::primitives::AccessPolicy;
use crate::suite::{Algorithm, BaselineFlavor, Flavor, RaceFreeFlavor, Variant};
use ecl_simt::BenignClass::{MonotonicUpdate, RePropagatedLostUpdate};
use ecl_simt::IndexDiscipline::{self, OwnedByGlobalId, OwnedRange};
use ecl_simt::{KernelContract, KernelIr};

pub use ecl_simt::IndexDiscipline::Arbitrary;
pub use ecl_simt::{AccessMode, AccessOp, OpWidth};

/// Grid-stride ownership of 4-byte elements (non-chunked `ForEach`: item
/// index equals element index, so `element % num_threads == global_id`).
pub fn own4() -> IndexDiscipline {
    OwnedByGlobalId { elem_bytes: 4 }
}

/// Grid-stride ownership of 8-byte elements.
pub fn own8() -> IndexDiscipline {
    OwnedByGlobalId { elem_bytes: 8 }
}

/// Grid-stride ownership of single bytes.
pub fn own1() -> IndexDiscipline {
    OwnedByGlobalId { elem_bytes: 1 }
}

/// First-touch ownership of 4-byte elements (chunked or data-dependent
/// per-thread partitions).
pub fn claim4() -> IndexDiscipline {
    OwnedRange { elem_bytes: 4 }
}

/// First-touch ownership of 8-byte elements.
pub fn claim8() -> IndexDiscipline {
    OwnedRange { elem_bytes: 8 }
}

/// First-touch ownership of single bytes.
pub fn claim1() -> IndexDiscipline {
    OwnedRange { elem_bytes: 1 }
}

/// Plain read-only loads of CSR structure arrays (row offsets, column
/// indices, weights, edge sources): never written after upload, so any
/// thread may read any element. Hard-coded plain in the kernel bodies
/// (never policy-mediated), hence fixed.
pub fn csr_loads(buffers: &[&'static str]) -> Vec<AccessOp> {
    buffers
        .iter()
        .map(|b| AccessOp::load(b, OpWidth::B4, AccessMode::Plain, Arbitrary).fixed())
        .collect()
}

/// The `u32` load `P::read_u32` issues.
pub fn word_read<P: AccessPolicy>(buffer: &'static str, discipline: IndexDiscipline) -> AccessOp {
    AccessOp::load(buffer, OpWidth::B4, P::READ_MODE, discipline)
}

/// The `u32` store `P::write_u32` issues.
pub fn word_write<P: AccessPolicy>(buffer: &'static str, discipline: IndexDiscipline) -> AccessOp {
    AccessOp::store(buffer, OpWidth::B4, P::WRITE_MODE, discipline)
}

/// The `u64` load `P::read_u64` issues. On devices without native 64-bit
/// accesses the simulator splits plain/volatile loads into two word halves;
/// an 8-byte element discipline maps both halves to the same element.
pub fn word64_read<P: AccessPolicy>(buffer: &'static str, discipline: IndexDiscipline) -> AccessOp {
    AccessOp::load(buffer, OpWidth::B8, P::READ_MODE, discipline)
}

/// A device-scope atomic read-modify-write (counters, tickets, CAS hooks).
pub fn atomic_rmw(buffer: &'static str) -> AccessOp {
    AccessOp::rmw(buffer)
}

/// The accesses of [`crate::common::union_find_rep`] over `buffer`: racy
/// arbitrary-index reads plus path-shortening writes. Lost shortening
/// updates are re-propagated by later hops (the paper's §VI-A benign race).
pub fn union_find_rep<P: AccessPolicy>(buffer: &'static str) -> Vec<AccessOp> {
    vec![
        word_read::<P>(buffer, Arbitrary).benign(RePropagatedLostUpdate),
        word_write::<P>(buffer, Arbitrary).benign(RePropagatedLostUpdate),
    ]
}

/// The accesses of [`crate::common::union_find_hook`] over `buffer`:
/// representative chasing plus the `atomicCAS` hook itself (atomic in both
/// the baseline and the conversion, as in the ECL codes).
pub fn union_find_hook<P: AccessPolicy>(buffer: &'static str) -> Vec<AccessOp> {
    let mut ops = union_find_rep::<P>(buffer);
    ops.push(atomic_rmw(buffer));
    ops
}

/// The byte-array load `P::read_byte` issues: lowering widens an
/// atomic-mode byte load to the containing word (Fig. 3b), which is why the
/// race-free contract entries are `Arbitrary` (the word spans four threads'
/// bytes).
pub fn byte_read<P: AccessPolicy>(buffer: &'static str, discipline: IndexDiscipline) -> AccessOp {
    AccessOp::load(buffer, OpWidth::B1, P::READ_MODE, discipline)
}

/// The byte-array store `P::write_byte` issues: lowering expands an
/// atomic-mode byte store to one `atomicAnd` (zero bytes, Fig. 4b) or an
/// atomic-load + CAS loop on the containing word.
pub fn byte_write<P: AccessPolicy>(buffer: &'static str, discipline: IndexDiscipline) -> AccessOp {
    AccessOp::store(buffer, OpWidth::B1, P::WRITE_MODE, discipline)
}

/// The pair-half load `P::read_pair_first/second` issues (Fig. 5): a `u32`
/// load of either half of the packed `u64`.
pub fn pair_read<P: AccessPolicy>(buffer: &'static str, discipline: IndexDiscipline) -> AccessOp {
    AccessOp::load(buffer, OpWidth::Pair, P::READ_MODE, discipline)
}

/// The pair-half monotonic max `P::max_pair_first/second` issues: a racy
/// load + conditional store of one half in the baselines (lost maxima are
/// re-propagated — monotone convergence), one `atomicMax` per half in the
/// conversion.
pub fn pair_max<P: AccessPolicy>(buffer: &'static str) -> AccessOp {
    AccessOp::update(buffer, OpWidth::Pair, P::WRITE_MODE).benign(MonotonicUpdate)
}

/// The flag raise `P::raise_flag` issues: a store of the constant 1 —
/// idempotent however the racing writers interleave.
pub fn flag_raise<P: AccessPolicy>(buffer: &'static str) -> AccessOp {
    AccessOp::flag(buffer, P::WRITE_MODE)
}

/// The full contract set for one algorithm × variant: the lowering of
/// [`ir_for_algorithm`].
pub fn for_algorithm(algorithm: Algorithm, variant: Variant) -> Vec<KernelContract> {
    ecl_simt::lower_all(&ir_for_algorithm(algorithm, variant))
}

/// The access-level kernel IR for one algorithm × variant, under the
/// policies of the variant's [`Flavor`].
pub fn ir_for_algorithm(algorithm: Algorithm, variant: Variant) -> Vec<KernelIr> {
    match variant {
        Variant::Baseline => ir::<BaselineFlavor>(algorithm),
        Variant::RaceFree => ir::<RaceFreeFlavor>(algorithm),
    }
}

fn ir<F: Flavor>(algorithm: Algorithm) -> Vec<KernelIr> {
    match algorithm {
        Algorithm::Apsp => crate::apsp::ir(),
        Algorithm::Cc => crate::cc::ir::<F>(),
        Algorithm::Gc => crate::gc::ir::<F>(),
        Algorithm::Mis => crate::mis::ir::<F>(),
        Algorithm::Mst => crate::mst::ir::<F>(),
        Algorithm::Scc => crate::scc::ir::<F>(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repairable_ops_are_exactly_the_policy_mediated_sites() {
        // An op is repairable iff its mode changes between the baseline and
        // race-free IRs (policy-mediated), or stays atomic (RMW). Fixed ops
        // must be mode-identical across variants.
        for alg in Algorithm::ALL {
            let base = ir_for_algorithm(alg, Variant::Baseline);
            let free = ir_for_algorithm(alg, Variant::RaceFree);
            assert_eq!(base.len(), free.len());
            for (b, f) in base.iter().zip(&free) {
                assert_eq!(b.kernel, f.kernel);
                assert_eq!(b.ops.len(), f.ops.len(), "{alg:?} {}", b.kernel);
                for (ob, of) in b.ops.iter().zip(&f.ops) {
                    assert_eq!(ob.buffer, of.buffer);
                    assert_eq!(ob.repairable, of.repairable);
                    if !ob.repairable {
                        assert_eq!(
                            ob.mode, of.mode,
                            "{alg:?} {}: fixed op on '{}' changes mode across variants",
                            b.kernel, ob.buffer
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_algorithm_variant_has_contracts() {
        for alg in Algorithm::ALL {
            for variant in [Variant::Baseline, Variant::RaceFree] {
                let contracts = for_algorithm(alg, variant);
                assert!(
                    !contracts.is_empty(),
                    "{alg:?} {variant:?} has no contracts"
                );
                for c in &contracts {
                    assert!(!c.entries.is_empty(), "{} has an empty contract", c.kernel);
                }
            }
        }
    }
}
