//! Network scale proof: jobs/sec and cache-hit latency through the full
//! `beer-wire` stack — real TCP clients over loopback against one
//! `NetServer`-fronted service.
//!
//! Two modes per client count (1 / 8 / 64):
//!
//! * **dedup** — clients submit traces drawn from a small pool of
//!   distinct profiles (the paper's "manufacturers reuse a few ECC
//!   functions" scenario): in-flight duplicates coalesce server-side and
//!   completed ones hit the registry cache, so wire throughput decouples
//!   from solver cost. Repeat submissions are fingerprint-only exchanges
//!   (no re-upload).
//! * **raw** — every submission is a distinct profile (unique
//!   fingerprint): each pays a chunked upload and a full recovery,
//!   measuring the end-to-end solve path through the network edge.
//!
//! A final section times submit→done latency for pure cache hits over
//! the wire (p50 / p99): the remote answer path a restarted server
//! serves from its replayed registry.
//!
//! A **connection-scaling** section then holds 256 / 1024 / 4096
//! concurrent live watches open against one server (scale-dependent; see
//! EXPERIMENTS.md §net_throughput for the methodology): raw wire-speaking
//! sockets whose submissions coalesce behind a parked worker, so every
//! connection sits in a real watch. It proves the reactor's two scaling
//! claims — the process gains ZERO threads however many connections are
//! open, and cache-hit latency through the same reactor stays flat while
//! thousands of watchers idle — then releases the worker and times the
//! event fan-out until the last watcher has its terminal frame.

use beer_bench::{banner, fmt_duration, CsvArtifact, Scale};
use beer_core::collect::CollectionPlan;
use beer_core::engine::AnalyticBackend;
use beer_core::pattern::PatternSet;
use beer_core::trace::ProfileTrace;
use beer_core::{ChargedSet, EngineError, MiscorrectionProfile, ProfileSource};
use beer_ecc::{equivalence, hamming, LinearCode};
use beer_net::reactor::raise_nofile_limit;
use beer_net::wire::{read_message, write_message, Message, WIRE_VERSION};
use beer_net::{Client, NetServer, NetServerConfig};
use beer_service::{JobRequest, Priority, RecoveryService, ServiceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn distinct_codes(count: usize, k: usize, seed: u64) -> Vec<LinearCode> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut codes: Vec<LinearCode> = Vec::new();
    while codes.len() < count {
        let candidate = hamming::random_sec(k, &mut rng);
        if !codes.iter().any(|c| equivalence::equivalent(c, &candidate)) {
            codes.push(candidate);
        }
    }
    codes
}

fn record_trace(code: &LinearCode) -> ProfileTrace {
    let patterns = PatternSet::OneTwo.patterns(code.k());
    let mut backend = AnalyticBackend::new(code.clone());
    ProfileTrace::record(&mut backend, &patterns, &CollectionPlan::quick())
}

struct RunStats {
    jobs: usize,
    wall: Duration,
    solves: usize,
    coalesced: u64,
    cache_hits: u64,
}

/// Drives `clients` real TCP connections through `jobs_each` submissions
/// each and waits for every result; panics on any wrong answer.
fn drive(
    service: &Arc<RecoveryService>,
    addr: &str,
    clients: usize,
    jobs_each: usize,
    codes: &[LinearCode],
    traces: &[ProfileTrace],
) -> RunStats {
    let before = service.stats();
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.to_string();
            let codes = codes.to_vec();
            let traces = traces.to_vec();
            std::thread::spawn(move || {
                let mut client =
                    Client::connect(&addr, format!("tenant-{c}"), "").expect("connect");
                // Pipeline: submit everything, then collect everything —
                // the same shape a batch-submitting tenant drives.
                let jobs: Vec<_> = (0..jobs_each)
                    .map(|j| {
                        // Disjoint slices per client: in raw mode (one
                        // trace per job overall) no index is shared, in
                        // dedup mode the small pool cycles.
                        let which = (c * jobs_each + j) % traces.len();
                        (which, client.submit(&traces[which]).expect("admitted"))
                    })
                    .collect();
                for (which, job) in jobs {
                    let output = client
                        .wait(job)
                        .expect("watch completes")
                        .expect("clean profile solves");
                    let code = output.outcome.unique_code().expect("unique recovery");
                    assert!(
                        equivalence::equivalent(code, &codes[which]),
                        "remote answer disagrees with the profiled code"
                    );
                }
                client.close();
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }
    let wall = start.elapsed();
    let after = service.stats();
    RunStats {
        jobs: clients * jobs_each,
        wall,
        solves: (after.completed - before.completed) as usize
            - (after.coalesced - before.coalesced) as usize
            - (after.cache_hits - before.cache_hits) as usize,
        coalesced: after.coalesced - before.coalesced,
        cache_hits: after.cache_hits - before.cache_hits,
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// A profile source that parks its single unit until released, pinning
/// submitted duplicates in a live (queued, coalesced) state.
#[derive(Clone)]
struct GateSource {
    released: Arc<AtomicBool>,
}

impl ProfileSource for GateSource {
    fn k(&self) -> usize {
        8
    }

    fn label(&self) -> String {
        "gate".to_string()
    }

    fn num_units(&self, _patterns: &[ChargedSet], _plan: &CollectionPlan) -> usize {
        1
    }

    fn run_unit(
        &mut self,
        _unit: usize,
        _patterns: &[ChargedSet],
        _plan: &CollectionPlan,
        _profile: &mut MiscorrectionProfile,
    ) -> Result<(), EngineError> {
        while !self.released.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }
}

/// Releases a [`GateSource`] when dropped, so a failing assertion in the
/// connection-scaling cell unwinds instead of leaving the worker parked
/// (dropping the service joins its workers).
struct GateRelease(Arc<AtomicBool>);

impl Drop for GateRelease {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

const MAX_FRAME: usize = 1 << 20;

/// Connects a raw wire-speaking socket and completes the Hello handshake.
fn handshake(addr: &str, tenant: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_message(
        &mut stream,
        &Message::Hello {
            min_version: WIRE_VERSION,
            max_version: WIRE_VERSION,
            tenant: tenant.to_string(),
            token: String::new(),
        },
    )
    .expect("hello");
    match read_message(&mut stream, MAX_FRAME).expect("hello answered") {
        Message::HelloAck { .. } => stream,
        other => panic!("expected HelloAck, got {other:?}"),
    }
}

/// Uploads a trace over a raw socket, returning its fingerprint.
fn upload(stream: &mut TcpStream, trace: &ProfileTrace) -> beer_core::Fingerprint {
    let (fingerprint, chunks) = trace.to_chunks(64 << 10);
    let total_bytes: u64 = chunks.iter().map(|c| c.len() as u64).sum();
    write_message(
        stream,
        &Message::TraceBegin {
            fingerprint,
            total_chunks: chunks.len() as u32,
            total_bytes,
        },
    )
    .expect("begin");
    let last = chunks.len() - 1;
    for (index, data) in chunks.into_iter().enumerate() {
        write_message(
            stream,
            &Message::TraceChunk {
                fingerprint,
                index: index as u32,
                data,
            },
        )
        .expect("chunk");
        if index == last {
            match read_message(stream, MAX_FRAME).expect("upload answered") {
                Message::TraceAck { .. } => {}
                other => panic!("expected TraceAck, got {other:?}"),
            }
        }
    }
    fingerprint
}

fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("Threads line")
        .trim()
        .parse()
        .expect("thread count")
}

struct ConnScalingCell {
    conns: usize,
    setup: Duration,
    threads_before: usize,
    threads_after: usize,
    loaded_p50: Duration,
    loaded_p99: Duration,
    fanout: Duration,
}

/// Holds `conns` live watches open on one server, probes cache-hit
/// latency through the same loaded reactor, then releases the gated
/// worker and times the fan-out until every watcher has its Done frame.
fn conn_scaling_cell(conns: usize, probes: usize) -> ConnScalingCell {
    let warm_secret = hamming::shortened(8);
    let warm_trace = record_trace(&warm_secret);
    let watch_secret = distinct_codes(1, 8, 0xFA11 + conns as u64).remove(0);
    let watch_trace = record_trace(&watch_secret);

    let service =
        Arc::new(RecoveryService::start(ServiceConfig::new().with_workers(1)).expect("start"));
    let server = NetServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetServerConfig::new().with_max_connections(conns + 8),
    )
    .expect("bind");
    let addr = server.local_addr().to_string();

    // Warm the registry with one profile so the loaded-latency probes
    // below are pure cache hits.
    let mut prober = Client::connect(&addr, "prober", "").expect("prober connects");
    let warm_job = prober.submit(&warm_trace).expect("admitted");
    prober.wait(warm_job).expect("watch").expect("solves");

    // Park the single worker so every watcher's job stays live.
    let gate = GateSource {
        released: Arc::new(AtomicBool::new(false)),
    };
    let _release = GateRelease(Arc::clone(&gate.released));
    let gate_job = service
        .submit(JobRequest::source("warden", "gate", Box::new(gate.clone())))
        .expect("gate admitted");

    // Open the watchers: raw sockets, one shared upload, duplicate
    // submissions that coalesce into a single queued primary, and a
    // Watch each. From here every connection sits in a live watch.
    let threads_before = thread_count();
    let setup_start = Instant::now();
    let mut sockets: Vec<TcpStream> = Vec::with_capacity(conns);
    let mut fingerprint = None;
    for _ in 0..conns {
        let mut stream = handshake(&addr, "watchers");
        let fp = match fingerprint {
            Some(fp) => fp,
            None => *fingerprint.insert(upload(&mut stream, &watch_trace)),
        };
        write_message(
            &mut stream,
            &Message::Submit {
                fingerprint: fp,
                priority: Priority::Normal,
                deadline_ms: None,
                trace_id: None,
            },
        )
        .expect("submit");
        let job = match read_message(&mut stream, MAX_FRAME).expect("submit answered") {
            Message::SubmitAck { job } => job,
            other => panic!("expected SubmitAck, got {other:?}"),
        };
        write_message(&mut stream, &Message::Watch { job }).expect("watch");
        sockets.push(stream);
    }
    let setup = setup_start.elapsed();
    let threads_after = thread_count();
    // + 1: the prober's connection is also open.
    assert_eq!(
        server.active_connections(),
        conns + 1,
        "all watchers admitted"
    );
    assert_eq!(
        threads_after, threads_before,
        "{conns} live watches must not add threads"
    );

    // Cache-hit latency through the reactor while all watchers idle.
    let mut latencies: Vec<Duration> = (0..probes)
        .map(|_| {
            let t0 = Instant::now();
            let job = prober.submit(&warm_trace).expect("admitted");
            let output = prober.wait(job).expect("watch").expect("cache answers");
            assert!(output.from_cache, "probe must hit the cache");
            t0.elapsed()
        })
        .collect();
    latencies.sort();
    let (loaded_p50, loaded_p99) = (percentile(&latencies, 0.50), percentile(&latencies, 0.99));
    prober.close();

    // Release the worker and time the fan-out: reading sequentially
    // measures first-submission-to-last-Done wall clock, since reads of
    // already-delivered frames return immediately.
    let fanout_start = Instant::now();
    gate.released.store(true, Ordering::SeqCst);
    let _ = service.wait(gate_job);
    for stream in sockets.iter_mut() {
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        loop {
            match read_message(stream, MAX_FRAME).expect("event stream") {
                Message::Event { .. } => {}
                Message::Done { result, .. } => {
                    assert!(result.is_ok(), "watched job failed");
                    break;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
    let fanout = fanout_start.elapsed();
    drop(sockets);
    server.shutdown(Duration::from_secs(10));
    ConnScalingCell {
        conns,
        setup,
        threads_before,
        threads_after,
        loaded_p50,
        loaded_p99,
        fanout,
    }
}

fn main() {
    let start = Instant::now();
    let scale = Scale::from_env();
    banner(
        "net_throughput",
        "beer-wire over loopback: jobs/sec and cache-hit latency",
        "dedup decouples wire throughput from solver cost; remote cache hits stay sub-ms",
    );

    let k = scale.pick3(8, 8, 16);
    let pool = scale.pick3(2, 8, 16);
    let dedup_jobs_each = scale.pick3(4, 16, 48);
    let raw_jobs_each = scale.pick3(2, 4, 8);
    let cache_probes = scale.pick3(32, 256, 1024);
    let client_counts = [1usize, 8, 64];

    let codes = distinct_codes(pool, k, 0x5EE7);
    let traces: Vec<ProfileTrace> = codes.iter().map(record_trace).collect();
    println!(
        "k = {k}, {pool} distinct profiles, {dedup_jobs_each} dedup / {raw_jobs_each} raw jobs \
         per client\n"
    );

    let mut csv = CsvArtifact::new(
        "net_throughput",
        &[
            "mode",
            "clients",
            "jobs",
            "unique_profiles",
            "wall_ms",
            "jobs_per_sec",
            "solves",
            "coalesced",
            "cache_hits",
        ],
    );
    println!(
        "{:>6} | {:>8} {:>6} {:>9} {:>11} {:>7} {:>9} {:>10}",
        "mode", "clients", "jobs", "wall", "jobs/sec", "solves", "coalesced", "cache hits"
    );
    for &clients in &client_counts {
        for raw in [false, true] {
            let jobs_each = if raw { raw_jobs_each } else { dedup_jobs_each };
            // Raw mode: every (client, job) pair gets its own profile, so
            // nothing dedups and every submission pays upload + solve.
            let (cell_codes, cell_traces) = if raw {
                let codes = distinct_codes(clients * jobs_each, k, 0xC0DE + clients as u64);
                let traces: Vec<ProfileTrace> = codes.iter().map(record_trace).collect();
                (codes, traces)
            } else {
                (codes.clone(), traces.clone())
            };
            // A fresh service + server per cell: cold caches, clean counters.
            let service = Arc::new(
                RecoveryService::start(
                    ServiceConfig::new().with_queue_capacity(clients * jobs_each + 16),
                )
                .expect("start service"),
            );
            let server = NetServer::bind(
                Arc::clone(&service),
                "127.0.0.1:0",
                NetServerConfig::new().with_max_connections(clients + 8),
            )
            .expect("bind server");
            let addr = server.local_addr().to_string();
            let stats = drive(
                &service,
                &addr,
                clients,
                jobs_each,
                &cell_codes,
                &cell_traces,
            );
            let mode = if raw { "raw" } else { "dedup" };
            let jobs_per_sec = stats.jobs as f64 / stats.wall.as_secs_f64();
            if !raw {
                assert_eq!(stats.solves, pool.min(stats.jobs), "one solve per profile");
            } else {
                assert_eq!(stats.solves, stats.jobs, "raw mode solves everything");
            }
            println!(
                "{:>6} | {:>8} {:>6} {:>9} {:>11.1} {:>7} {:>9} {:>10}",
                mode,
                clients,
                stats.jobs,
                fmt_duration(stats.wall),
                jobs_per_sec,
                stats.solves,
                stats.coalesced,
                stats.cache_hits,
            );
            csv.row_display(&[
                mode.to_string(),
                clients.to_string(),
                stats.jobs.to_string(),
                if raw { stats.jobs } else { pool }.to_string(),
                format!("{:.3}", stats.wall.as_secs_f64() * 1e3),
                format!("{jobs_per_sec:.1}"),
                stats.solves.to_string(),
                stats.coalesced.to_string(),
                stats.cache_hits.to_string(),
            ]);
            server.shutdown(Duration::from_secs(5));
        }
    }

    // Remote cache-hit latency: a warm server answering repeats from its
    // registry, one full submit→watch→done exchange per probe.
    let service = Arc::new(
        RecoveryService::start(ServiceConfig::new().with_queue_capacity(pool + 16))
            .expect("start warm service"),
    );
    let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0", NetServerConfig::new())
        .expect("bind warm server");
    let addr = server.local_addr().to_string();
    let _ = drive(&service, &addr, 1, pool, &codes, &traces); // warm every profile
    let mut prober = Client::connect(&addr, "prober", "").expect("prober connects");
    let mut latencies: Vec<Duration> = (0..cache_probes)
        .map(|i| {
            let t0 = Instant::now();
            let job = prober.submit(&traces[i % pool]).expect("admitted");
            let output = prober
                .wait(job)
                .expect("watch completes")
                .expect("cache answers");
            assert!(output.from_cache, "warm server must answer from cache");
            t0.elapsed()
        })
        .collect();
    prober.close();
    latencies.sort();
    let (p50, p99) = (percentile(&latencies, 0.50), percentile(&latencies, 0.99));
    println!(
        "\nremote cache-hit latency over {cache_probes} probes: p50 = {}, p99 = {}",
        fmt_duration(p50),
        fmt_duration(p99)
    );
    csv.meta("cache_probes", cache_probes);
    csv.meta("hit_p50_us", p50.as_micros());
    csv.meta("hit_p99_us", p99.as_micros());
    csv.meta(
        "wall_clock_s",
        format!("{:.3}", start.elapsed().as_secs_f64()),
    );
    csv.write();
    server.shutdown(Duration::from_secs(5));

    // Connection scaling: live watches by the hundreds or thousands on
    // one reactor, zero extra threads, flat cache-hit latency.
    let conn_counts: &[usize] = scale.pick3(&[256], &[256, 1024], &[256, 1024, 4096]);
    let conn_probes = scale.pick3(32, 128, 256);
    let _ = raise_nofile_limit();
    println!(
        "\nconnection scaling ({conn_probes} loaded cache probes per cell):\n\
         {:>6} | {:>9} {:>8} {:>12} {:>12} {:>9}",
        "conns", "setup", "threads", "loaded p50", "loaded p99", "fanout"
    );
    let mut conn_csv = CsvArtifact::new(
        "net_conn_scaling",
        &[
            "conns",
            "setup_ms",
            "threads_before",
            "threads_after",
            "loaded_hit_p50_us",
            "loaded_hit_p99_us",
            "fanout_ms",
        ],
    );
    for &conns in conn_counts {
        let cell = conn_scaling_cell(conns, conn_probes);
        println!(
            "{:>6} | {:>9} {:>8} {:>12} {:>12} {:>9}",
            cell.conns,
            fmt_duration(cell.setup),
            format!("+{}", cell.threads_after - cell.threads_before),
            fmt_duration(cell.loaded_p50),
            fmt_duration(cell.loaded_p99),
            fmt_duration(cell.fanout),
        );
        conn_csv.row_display(&[
            cell.conns.to_string(),
            format!("{:.3}", cell.setup.as_secs_f64() * 1e3),
            cell.threads_before.to_string(),
            cell.threads_after.to_string(),
            cell.loaded_p50.as_micros().to_string(),
            cell.loaded_p99.as_micros().to_string(),
            format!("{:.3}", cell.fanout.as_secs_f64() * 1e3),
        ]);
    }
    conn_csv.meta(
        "wall_clock_s",
        format!("{:.3}", start.elapsed().as_secs_f64()),
    );
    conn_csv.write();
    println!("\ntotal wall clock: {}", fmt_duration(start.elapsed()));
}
