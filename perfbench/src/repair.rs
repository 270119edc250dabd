//! `repair-racy`: the static check, then synthesize and verify, for the five
//! codes with races (CC, GC, MIS, MST, SCC) at `repair_tool`'s defaults
//! (test-tiny GPU, scale 0.05). This is the workload on the traced
//! `FullHooks` path: the race detector, the static analysis and the
//! `IrDriven` mode-table policy.
//!
//! APSP is left out. It has no races, so its repair is empty, yet its dense
//! traced runs take about 97% of `repair_tool`'s time (27 s of 28 s on a
//! 2-core box). With it a run would hold a single pass; without it a pass
//! takes about a second.
//!
//! A run here is one algorithm's repair step on one side: the baseline side
//! checks the baseline contracts and synthesizes the repair (which traces the
//! racy baseline); the race-free side checks the race-free contracts and
//! verifies the repair (which executes the repaired and hand-written
//! race-free variants).

use crate::stats::{mix, mix_str};
use crate::sweep::graph_sig;
use crate::trace::{At, Tracer};
use crate::workload::{timed, Pass, Path, Run, Setup, Workload};
use ecl_analyze::check::check_algorithm;
use ecl_analyze::repair::{synthesize, verify, RepairVerification, RepairedVariant};
use ecl_bench::graph_seed;
use ecl_core::suite::Variant;
use ecl_graph::inputs::{directed_catalog, undirected_catalog};
use ecl_graph::props::properties;
use ecl_simt::GpuConfig;

/// `repair_tool`'s default input scale.
const SCALE: f64 = 0.05;

fn add(pass: &mut Pass, key: String, v: f64) {
    *pass.layers.entry(key).or_insert(0.0) += v;
}

pub struct Repair {
    seed: u64,
    cfg: GpuConfig,
}

impl Repair {
    pub fn new(seed: u64) -> Repair {
        Repair {
            seed,
            cfg: GpuConfig::test_tiny(),
        }
    }
}

fn synth_sig(r: &RepairedVariant) -> u64 {
    let h = r
        .flagged
        .iter()
        .fold(0, |h, (k, b)| mix_str(mix_str(h, k), b));
    mix(h, r.rewrites.len() as u64)
}

fn verify_sig(v: &RepairVerification) -> u64 {
    let mut h = mix(0, v.static_conflicts.len() as u64);
    for (k, b) in &v.dynamic_races {
        h = mix_str(mix_str(h, k), b);
    }
    h = mix(h, v.run_failures.len() as u64);
    for c in &v.comparisons {
        h = mix_str(h, &c.input);
        for x in [
            c.synthesized_digest,
            c.hand_written_digest,
            c.synthesized_cycles,
            c.hand_written_cycles,
        ] {
            h = mix(h, x);
        }
    }
    h
}

impl Workload for Repair {
    /// Builds the catalog inputs the differential oracle runs on. `verify`
    /// takes a seed, not graphs, and builds them again itself; set-up here
    /// measures what generating them costs.
    fn setup(&mut self, tr: &Tracer, at: At) -> Setup {
        let gseed = graph_seed(self.seed);
        let mut s = Setup::default();
        for input in undirected_catalog().iter().chain(directed_catalog()) {
            let (g, ns) = timed(tr, "graph.build", at, |_| input.build(SCALE, gseed));
            s.build_s += ns as f64 * 1e-9;
            let (p, ns) = timed(tr, "graph.props", at, |_| properties(&g));
            s.props_s += ns as f64 * 1e-9;
            s.sig = mix(graph_sig(s.sig, &g), p.max_degree as u64);
            s.edges += g.num_edges() as u64;
        }
        s
    }

    fn pass(&self, tr: &Tracer, at: At) -> Pass {
        let gseed = graph_seed(self.seed);
        let mut pass = Pass::default();
        for (k, alg) in crate::SIM_ALGS.into_iter().enumerate() {
            let name = alg.name().to_lowercase();
            let check = |variant: Variant, run_at: At| {
                let (report, ns) = timed(tr, "analyze.check", run_at, |_| {
                    check_algorithm(alg, variant)
                });
                (report.passes(), ns)
            };

            // Baseline side: check, then synthesize.
            let base_at = at.run(at.parent, 2 * k as u64 + 1);
            let ((base, repaired), base_ns) = timed(tr, "repair.run", base_at, |id| {
                let (ok, check_ns) = check(Variant::Baseline, base_at.under(id));
                let (r, ns) = timed(tr, "repair.synthesize", base_at.under(id), |_| {
                    ecl_simt::catch_any(|| synthesize(alg, &self.cfg))
                });
                ((ok, check_ns, ns), r)
            });
            let (ok, check_ns, synth_ns) = base;
            add(&mut pass, "analyze.check_s".into(), check_ns as f64 * 1e-9);
            add(
                &mut pass,
                format!("repair.{name}.synthesize_s"),
                synth_ns as f64 * 1e-9,
            );
            let repaired = match repaired {
                Ok(Ok(r)) if ok => Ok(r),
                Ok(Ok(_)) => Err("baseline contracts left a conflict unclassified".into()),
                Ok(Err(e)) => Err(e.to_string()),
                Err(panic) => Err(panic),
            };
            if let Ok(r) = &repaired {
                add(
                    &mut pass,
                    "repair.flagged_groups".into(),
                    r.flagged.len() as f64,
                );
                add(&mut pass, "repair.rewrites".into(), r.rewrites.len() as f64);
            }
            let outcome = repaired.as_ref().map(synth_sig).map_err(String::clone);
            pass.runs.push(Run::new(
                Path::Repair,
                alg,
                Variant::Baseline,
                base_ns,
                outcome,
            ));

            // Race-free side: check, then verify the repair.
            let free_at = at.run(at.parent, 2 * k as u64 + 2);
            let ((ok, check_ns, verified), free_ns) = timed(tr, "repair.run", free_at, |id| {
                let (ok, check_ns) = check(Variant::RaceFree, free_at.under(id));
                let verified = repaired.as_ref().ok().map(|r| {
                    timed(tr, "repair.verify", free_at.under(id), |_| {
                        ecl_simt::catch_any(|| verify(r, &self.cfg, SCALE, gseed))
                    })
                });
                (ok, check_ns, verified)
            });
            add(&mut pass, "analyze.check_s".into(), check_ns as f64 * 1e-9);
            if let Some((_, ns)) = &verified {
                add(
                    &mut pass,
                    format!("repair.{name}.verify_s"),
                    *ns as f64 * 1e-9,
                );
            }
            let outcome = match verified {
                None => Err("no repair to verify".into()),
                Some((Err(panic), _)) => Err(panic),
                Some((Ok(_), _)) if !ok => Err("race-free contracts conflict".into()),
                Some((Ok(v), _)) if !v.passes() => Err("a repair oracle failed".into()),
                Some((Ok(v), _)) => Ok(verify_sig(&v)),
            };
            pass.runs.push(Run::new(
                Path::Repair,
                alg,
                Variant::RaceFree,
                free_ns,
                outcome,
            ));
        }
        pass
    }
}
