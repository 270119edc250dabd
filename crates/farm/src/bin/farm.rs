//! The sweep farm daemon.
//!
//! ```text
//! cargo run --release -p ecl-farm --bin farm -- [options]
//!
//! --state <dir>        durable state directory        (default ./farm-state)
//! --workers <n>        worker fleet size              (default 2)
//! --listen <addr>      also accept jobs on a TCP socket, e.g. 127.0.0.1:0
//!                      (port 0 = ephemeral; the bound address is announced
//!                      in a "listening" event line)
//! --once               exit when stdin is closed and every job is done
//!                      (exit 1 if any job recorded failures)
//! --max-attempts <n>   worker deaths per cell before quarantine (default 3)
//! --backoff-ms <n>     first restart backoff          (default 100)
//! --backoff-cap-ms <n> restart backoff ceiling        (default 2000)
//! --jitter-seed <n>    restart-jitter seed (deterministic; default fixed)
//! --queue-cap <n>      max queued cells (backpressure) (default 4096)
//! ```
//!
//! An argument the daemon cannot honour (an unknown flag, a missing or
//! unparsable value) exits 2 with one line on stderr, before the state
//! directory is touched. Internally, the daemon runs each cell in
//! `farm --worker-cell <key>` with the job's worker flags.
//!
//! Jobs are `ecl-farm/JOB/v1` JSONL lines on stdin or the TCP socket; each
//! gets one `ecl-farm/ACK/v1` reply on the same channel. Progress events
//! (`ecl-farm/EVENT/v1`) stream on stdout. State (job store, per-job
//! journals, reports, repro bundles) lives under `--state`; a daemon killed
//! at any instant — `kill -9` included — resumes from that directory and
//! finishes every accepted job with byte-identical reports.
//!
//! Signals: the first SIGINT/SIGTERM starts a cooperative drain (new
//! submissions are rejected, accepted jobs run to completion, exit 0); a
//! second SIGINT force-quits immediately — exit 130 — after appending a
//! final note line to every in-flight journal. Nothing is lost either way;
//! the journals carry the progress.

use ecl_bench::cli::{usage_exit, Args};
use ecl_bench::Json;
use ecl_farm::{api, recovery, ActiveJob, CellQueue, Fleet, FleetConfig, FleetOutcome, JobStore};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Duration;

struct Options {
    state: PathBuf,
    workers: usize,
    listen: Option<String>,
    once: bool,
    max_attempts: u32,
    backoff_ms: u64,
    backoff_cap_ms: u64,
    jitter_seed: u64,
    queue_cap: usize,
}

/// The daemon's value flags.
const VALUE_FLAGS: [&str; 8] = [
    "--state",
    "--workers",
    "--listen",
    "--max-attempts",
    "--backoff-ms",
    "--backoff-cap-ms",
    "--jitter-seed",
    "--queue-cap",
];

fn parse_options(argv: &[String]) -> Result<Options, String> {
    let args = Args::parse(argv, &VALUE_FLAGS, &["--once"])?;
    Ok(Options {
        state: PathBuf::from(args.value("--state").unwrap_or("farm-state")),
        workers: args.parsed("--workers")?.unwrap_or(2),
        listen: args.value("--listen").map(str::to_string),
        once: args.has("--once"),
        max_attempts: args.parsed("--max-attempts")?.unwrap_or(3),
        backoff_ms: args.parsed("--backoff-ms")?.unwrap_or(100),
        backoff_cap_ms: args.parsed("--backoff-cap-ms")?.unwrap_or(2_000),
        jitter_seed: args.parsed("--jitter-seed")?.unwrap_or(0xec1f_a3a7),
        queue_cap: args.parsed("--queue-cap")?.unwrap_or(4_096),
    })
}

enum ReplyTo {
    Stdout,
    Chan(Sender<String>),
}

struct Submission {
    line: String,
    reply: ReplyTo,
}

fn emit(doc: &Json) {
    println!("{}", doc.render_compact());
}

fn reply(to: &ReplyTo, ack: &Json) {
    let line = ack.render_compact();
    match to {
        ReplyTo::Stdout => println!("{line}"),
        ReplyTo::Chan(tx) => {
            let _ = tx.send(line);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--worker-cell") {
        if let Err(e) = ecl_farm::worker::run_cell(&argv) {
            usage_exit("farm", &e);
        }
        return;
    }
    let opts = parse_options(&argv).unwrap_or_else(|e| usage_exit("farm", &e));
    std::process::exit(daemon_main(&opts));
}

fn daemon_main(opts: &Options) -> i32 {
    ecl_bench::install_interrupt_handler();

    // The force-quit watcher: a second SIGINT appends one final note line
    // to every in-flight journal (each append is already fsync'd, so this
    // is bookkeeping, not durability) and exits 130 immediately.
    let journals: Arc<std::sync::Mutex<Vec<Arc<ecl_bench::JournalWriter>>>> =
        Arc::new(std::sync::Mutex::new(Vec::new()));
    let watcher_journals = journals.clone();
    ecl_bench::spawn_force_quit_watcher(move || {
        if let Ok(list) = watcher_journals.lock() {
            for w in list.iter() {
                let _ = w.append_note("force-quit", w.cells_recorded());
            }
        }
    });

    let (mut store, stored) = match JobStore::open(&opts.state) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("farm: {e}");
            return 2;
        }
    };

    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("farm: cannot locate own executable: {e}");
            return 2;
        }
    };
    let mut fleet = Fleet::new(FleetConfig {
        workers: opts.workers,
        exe,
        max_attempts: opts.max_attempts,
        backoff_base_ms: opts.backoff_ms,
        backoff_cap_ms: opts.backoff_cap_ms,
        jitter_seed: opts.jitter_seed,
        scratch: recovery::tmp_dir(&opts.state),
    });
    let mut queue = CellQueue::new(opts.queue_cap);
    let mut active: HashMap<String, ActiveJob> = HashMap::new();
    let mut done_ids: Vec<String> = Vec::new();
    let mut any_failures = false;

    // Crash recovery: reopen every unfinished stored job, finalize the ones
    // whose journals are already complete, and re-enqueue the rest. The
    // queue cap is bypassed — this work was accepted durably.
    for sj in stored {
        if sj.done {
            done_ids.push(sj.spec.id.clone());
            continue;
        }
        let id = sj.spec.id.clone();
        match ActiveJob::open(&opts.state, sj.spec) {
            Ok(job) => {
                emit(&api::event(
                    "recovered",
                    vec![
                        ("id", Json::Str(id.clone())),
                        ("remaining", Json::Num(job.remaining.len() as f64)),
                    ],
                ));
                journals.lock().unwrap().push(job.journal_writer());
                let mut keys: Vec<String> = job
                    .keys
                    .iter()
                    .filter(|k| job.remaining.contains(*k))
                    .cloned()
                    .collect();
                keys.sort_by_key(|k| job.keys.iter().position(|x| x == k));
                queue.push_job_forced(&id, job.spec.priority, &keys);
                fleet.register_job(&job.spec);
                active.insert(id, job);
            }
            Err(e) => {
                eprintln!("farm: cannot recover job '{id}': {e}");
                return 2;
            }
        }
    }

    // Intake: stdin always; TCP when asked.
    let (sub_tx, sub_rx) = std::sync::mpsc::channel::<Submission>();
    let stdin_eof = Arc::new(AtomicBool::new(false));
    {
        let tx = sub_tx.clone();
        let eof = stdin_eof.clone();
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                match line {
                    Ok(l) if !l.trim().is_empty() => {
                        if tx
                            .send(Submission {
                                line: l,
                                reply: ReplyTo::Stdout,
                            })
                            .is_err()
                        {
                            break;
                        }
                    }
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            eof.store(true, Ordering::SeqCst);
        });
    }
    if let Some(addr) = &opts.listen {
        match std::net::TcpListener::bind(addr) {
            Ok(listener) => {
                let bound = listener
                    .local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| addr.clone());
                emit(&api::event("listening", vec![("addr", Json::Str(bound))]));
                let tx = sub_tx.clone();
                std::thread::spawn(move || {
                    for conn in listener.incoming() {
                        let Ok(conn) = conn else { continue };
                        let tx = tx.clone();
                        std::thread::spawn(move || {
                            let mut writer = match conn.try_clone() {
                                Ok(w) => w,
                                Err(_) => return,
                            };
                            let reader = std::io::BufReader::new(conn);
                            for line in reader.lines() {
                                let Ok(line) = line else { break };
                                if line.trim().is_empty() {
                                    continue;
                                }
                                let (ack_tx, ack_rx) = std::sync::mpsc::channel();
                                if tx
                                    .send(Submission {
                                        line,
                                        reply: ReplyTo::Chan(ack_tx),
                                    })
                                    .is_err()
                                {
                                    break;
                                }
                                match ack_rx.recv() {
                                    Ok(ack) => {
                                        if writeln!(writer, "{ack}").is_err() {
                                            break;
                                        }
                                    }
                                    Err(_) => break,
                                }
                            }
                        });
                    }
                });
            }
            Err(e) => {
                eprintln!("farm: cannot bind {addr}: {e}");
                return 2;
            }
        }
    }
    drop(sub_tx);

    let mut draining = false;
    loop {
        // Sample EOF *before* draining the channel: the intake thread sets
        // the flag only after its last send, so observing it here means
        // every submission is already drainable below — the `--once` exit
        // cannot race past a job still in flight.
        let eof = stdin_eof.load(Ordering::SeqCst);
        if ecl_bench::interrupted() && !draining {
            draining = true;
            emit(&api::event(
                "draining",
                vec![
                    ("active_jobs", Json::Num(active.len() as f64)),
                    ("queued_cells", Json::Num(queue.len() as f64)),
                ],
            ));
        }

        // Submissions.
        while let Ok(sub) = sub_rx.try_recv() {
            handle_submission(
                &sub,
                opts,
                draining,
                &mut store,
                &mut queue,
                &mut fleet,
                &mut active,
                &done_ids,
                &journals,
            );
        }

        // Supervision + execution.
        let outcomes = fleet.tick(&mut queue, true);
        for outcome in outcomes {
            apply_outcome(outcome, opts, &mut active, &mut any_failures);
        }

        // Finalization.
        let finished: Vec<String> = active
            .iter()
            .filter(|(_, j)| j.is_complete())
            .map(|(id, _)| id.clone())
            .collect();
        for id in finished {
            let job = active.remove(&id).expect("job is active");
            fleet.unregister_job(&id);
            let failures = job.failures();
            if failures > 0 {
                any_failures = true;
            }
            match job.finalize(&opts.state) {
                Ok(path) => {
                    if let Err(e) = store.record_done(&id, failures) {
                        eprintln!("farm: {e}");
                    }
                    done_ids.push(id.clone());
                    emit(&api::event(
                        "job-done",
                        vec![
                            ("id", Json::Str(id)),
                            ("report", Json::Str(path.display().to_string())),
                            ("failures", Json::Num(failures as f64)),
                        ],
                    ));
                }
                Err(e) => {
                    // An incomplete or unusable journal here is a bug, not a
                    // user error; surface it loudly and abandon the job.
                    any_failures = true;
                    eprintln!("farm: cannot finalize job '{id}': {e}");
                    emit(&api::event(
                        "job-error",
                        vec![("id", Json::Str(id)), ("error", Json::Str(e))],
                    ));
                }
            }
        }

        let idle = active.is_empty() && queue.is_empty() && fleet.busy() == 0;
        if draining && idle {
            emit(&api::event("drained", vec![]));
            fleet.shutdown();
            return 0;
        }
        if opts.once && eof && idle {
            fleet.shutdown();
            return if any_failures { 1 } else { 0 };
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_submission(
    sub: &Submission,
    opts: &Options,
    draining: bool,
    store: &mut JobStore,
    queue: &mut CellQueue,
    fleet: &mut Fleet,
    active: &mut HashMap<String, ActiveJob>,
    done_ids: &[String],
    journals: &Arc<std::sync::Mutex<Vec<Arc<ecl_bench::JournalWriter>>>>,
) {
    // The admission contract (ACK only after the record's fsync; typed
    // NACKs for everything else) lives in `ecl_farm::submit` where the
    // fault backend can pin it.
    let admission = ecl_farm::admit(
        &ecl_bench::Storage::real(),
        &opts.state,
        &sub.line,
        draining,
        store,
        |id| active.contains_key(id) || done_ids.iter().any(|d| d == id),
        |cells| {
            (!queue.would_fit(cells)).then(|| {
                format!(
                    "queue full: {} queued + {cells} new > cap {}",
                    queue.len(),
                    opts.queue_cap
                )
            })
        },
    );
    match admission {
        ecl_farm::Admission::Rejected { id, reason } => {
            reply(&sub.reply, &api::ack(&id, false, Some(&reason), 0));
        }
        ecl_farm::Admission::Accepted {
            job,
            active: active_job,
        } => {
            let id = job.id.clone();
            let keys = job.sweep.cell_keys();
            queue
                .push_job(&id, job.priority, &keys)
                .expect("would_fit was checked");
            journals.lock().unwrap().push(active_job.journal_writer());
            fleet.register_job(&job);
            active.insert(id.clone(), *active_job);
            reply(&sub.reply, &api::ack(&id, true, None, keys.len()));
            emit(&api::event(
                "job-accepted",
                vec![
                    ("id", Json::Str(id)),
                    ("cells", Json::Num(keys.len() as f64)),
                ],
            ));
        }
    }
}

fn apply_outcome(
    outcome: FleetOutcome,
    opts: &Options,
    active: &mut HashMap<String, ActiveJob>,
    any_failures: &mut bool,
) {
    match outcome {
        FleetOutcome::CellDone { job, key, ok, body } => {
            let Some(aj) = active.get_mut(&job) else {
                return;
            };
            if !ok {
                *any_failures = true;
            }
            if let Err(e) = aj.record_cell(&key, ok, body) {
                // A divergent duplicate is a determinism violation — the
                // one invariant the whole pipeline exists to protect.
                eprintln!("farm: job '{job}': {e}");
                emit(&api::event(
                    "determinism-violation",
                    vec![
                        ("id", Json::Str(job)),
                        ("key", Json::Str(key)),
                        ("error", Json::Str(e)),
                    ],
                ));
                *any_failures = true;
            }
        }
        FleetOutcome::Quarantined {
            job,
            key,
            body,
            attempts,
        } => {
            *any_failures = true;
            let Some(aj) = active.get_mut(&job) else {
                return;
            };
            let error = body
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("worker process died")
                .to_string();
            let bundle_path =
                ecl_bench::repro::Bundle::for_cell(&aj.spec.sweep, &key, error.clone(), 0)
                    .and_then(|b| {
                        ecl_bench::repro::write_bundle(&recovery::repro_dir(&opts.state), &b)
                            .map_err(|e| e.to_string())
                    })
                    .map(|p| p.display().to_string())
                    .unwrap_or_else(|e| format!("(bundle write failed: {e})"));
            if let Err(e) = aj.record_cell(&key, false, body) {
                eprintln!("farm: job '{job}': {e}");
            }
            emit(&api::event(
                "quarantined",
                vec![
                    ("id", Json::Str(job)),
                    ("key", Json::Str(key)),
                    ("attempts", Json::Num(attempts as f64)),
                    ("error", Json::Str(error)),
                    ("repro", Json::Str(bundle_path)),
                ],
            ));
        }
    }
}
