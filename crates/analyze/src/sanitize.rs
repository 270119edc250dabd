//! Sanitizer-armed full runs: contracts enforced on every device access.
//!
//! [`sanitize_run`] installs the algorithm's contracts on a fresh GPU
//! ([`ecl_simt::Gpu::install_contracts`]) and runs the variant end to end.
//! Every access of every launch is validated against the declared footprint;
//! the first access outside it fails the launch with a typed
//! [`SimError::ContractViolation`]. A clean pass means the contracts are a
//! sound *over*-approximation of what the kernels actually do — the other
//! half of the story the static checker tells (the checker proves the
//! declarations safe; the sanitizer proves the code stays within them).

use ecl_core::contracts::for_algorithm;
use ecl_core::suite::{run_variant_on, Algorithm, Variant};
use ecl_graph::Csr;
use ecl_simt::{catch_sim, Gpu, GpuConfig, SimError};

/// Runs one algorithm × variant with the contract sanitizer armed,
/// returning the first contract violation (or other launch failure) as a
/// typed error.
pub fn sanitize_run(
    algorithm: Algorithm,
    variant: Variant,
    graph: &Csr,
    cfg: &GpuConfig,
    seed: u64,
) -> Result<(), SimError> {
    let mut gpu = Gpu::new(cfg.clone());
    gpu.set_seed(seed);
    gpu.install_contracts(for_algorithm(algorithm, variant));
    catch_sim(|| drop(run_variant_on(&mut gpu, algorithm, variant, graph)))
}
