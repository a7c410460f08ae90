//! Remote recovery over `beer-wire`: a server on an ephemeral
//! loopback port, one client submitting a profiled trace, and a second
//! client attaching to the *same fingerprint* — it coalesces onto the
//! in-flight job and streams its events instead of re-solving.
//!
//! ```text
//! cargo run --release --example remote_recovery
//! ```

use beer::net::{Client, NetServer, NetServerConfig, WireEvent, WIRE_VERSION};
use beer::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A tenant profiles a chip (here: the analytic model of a secret
    // code) and records the evidence as a shippable trace.
    let secret = hamming::shortened(16);
    let patterns = PatternSet::OneTwo.patterns(16);
    let mut chip = AnalyticBackend::new(secret.clone());
    let trace = ProfileTrace::record(&mut chip, &patterns, &CollectionPlan::default());
    println!(
        "profiled a secret ({}, {}) code: {} patterns, fingerprint {}",
        secret.n(),
        secret.k(),
        trace.patterns.len(),
        trace.fingerprint()
    );

    // The service and its network edge, on an ephemeral loopback port.
    let service = Arc::new(RecoveryService::start(
        ServiceConfig::new().with_workers(2),
    )?);
    let server = NetServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetServerConfig::new().with_server_name("beer-demo"),
    )?;
    let addr = server.local_addr().to_string();
    println!("server listening on {addr}\n");

    // Client 1 submits the trace and waits.
    let mut alice = Client::connect(&addr, "alice", "")?;
    let job_a = alice.submit(&trace)?;
    println!(
        "alice: submitted as job {} (wire v{WIRE_VERSION})",
        job_a.id
    );

    // Client 2 submits the *same fingerprint* from another connection —
    // the service coalesces it onto alice's in-flight job (or answers
    // from cache if alice already finished) and streams the events.
    let mut bob = Client::connect(&addr, "bob", "")?;
    let job_b = bob.submit(&trace)?;
    println!("bob:   attached as job {} (same fingerprint)", job_b.id);
    let bob_result = bob.wait_with(job_b, |event| match event {
        WireEvent::Coalesced { primary } => {
            println!("bob:   coalesced onto in-flight job {primary}");
        }
        WireEvent::CacheHit => println!("bob:   answered from the registry cache"),
        WireEvent::State { state } => println!("bob:   state → {state}"),
        _ => {}
    })?;

    let alice_result = alice.wait(job_a)?;
    let code_a = alice_result
        .expect("clean profile solves")
        .outcome
        .unique_code()
        .expect("unique recovery")
        .clone();
    let out_b = bob_result.expect("bob shares the result");
    let code_b = out_b
        .outcome
        .unique_code()
        .expect("unique recovery")
        .clone();

    println!("\nalice recovered: P =");
    for row in code_a.parity_submatrix().iter_rows() {
        let bits: String = (0..row.len())
            .map(|j| if row.get(j) { '1' } else { '0' })
            .collect();
        println!("  {bits}");
    }
    assert_eq!(
        code_a.parity_submatrix(),
        code_b.parity_submatrix(),
        "both clients share one recovery"
    );
    assert!(equivalent(&code_a, &secret), "and it matches the secret");
    println!(
        "bob's answer is bit-identical (coalesced into: {:?})",
        out_b.coalesced_into
    );

    let stats = alice.stats()?;
    println!(
        "\nservice: {} submitted, {} completed, {} coalesced, {} cache hits",
        stats.submitted, stats.completed, stats.coalesced, stats.cache_hits
    );
    server.shutdown(Duration::from_secs(2));
    println!("server drained cleanly");
    Ok(())
}
