//! Cursor-paginated registry queries across the full network stack: a
//! client pages a dimension query past the server's per-page cap with no
//! truncation, and cursors survive tampering only as typed BadRequest
//! refusals (the connection stays usable).

use beer::net::wire::ErrorKind;
use beer::net::{Client, ClientError, NetServer, NetServerConfig};
use beer::prelude::*;
use beer::service::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_registry(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("beer_net_pagination_{name}_{}", std::process::id()))
}

/// Fills a registry with `count` unique-outcome records sharing one
/// (n, k), returning the dims and the number of distinct canonical codes
/// actually stored (random codes occasionally collide into one class).
fn populate(path: &PathBuf, count: usize) -> ((u32, u32), usize) {
    let _ = std::fs::remove_dir_all(path);
    let _ = std::fs::remove_file(path);
    let mut registry = Registry::open(path).expect("open fresh registry");
    let mut dims = None;
    let mut classes = HashSet::new();
    for i in 0..count {
        let code = hamming::random_sec(12, &mut StdRng::seed_from_u64(i as u64));
        let canonical = canonicalize(&code);
        dims = Some((canonical.n() as u32, canonical.k() as u32));
        classes.insert(beer::ecc::equivalence::canonical_hash(&canonical));
        registry
            .record(
                Fingerprint(0x5EED_0000 + i as u128),
                "alice",
                &CodeOutcome::Unique(code),
            )
            .expect("record");
    }
    (dims.expect("count > 0"), classes.len())
}

#[test]
fn v2_client_pages_past_the_server_cap_without_truncation() {
    let path = temp_registry("pages");
    let ((n, k), distinct) = populate(&path, 10);
    assert!(distinct > 4, "need more classes than the server cap");

    let service = Arc::new(
        RecoveryService::start(ServiceConfig::new().with_registry_path(&path)).expect("start"),
    );
    let server = NetServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetServerConfig::new().with_max_query_entries(4),
    )
    .expect("bind");
    let mut client =
        Client::connect(server.local_addr().to_string(), "alice", "").expect("connect");

    // Page to completion: every class comes back exactly once.
    let entries = client.query_dims(n, k).expect("paged query");
    let hashes: HashSet<u64> = entries.iter().map(|e| e.hash).collect();
    assert_eq!(entries.len(), distinct, "every entry exactly once");
    assert_eq!(hashes.len(), distinct, "no duplicates across pages");

    // A single explicit page respects the requested limit.
    let (page, next) = client.query_dims_page(n, k, None, 2).expect("first page");
    assert_eq!(page.len(), 2);
    assert!(next.is_some(), "more classes remain");

    // A limit-0 page stops at the server's cap.
    let (page, _) = client.query_dims_page(n, k, None, 0).expect("capped page");
    assert_eq!(page.len(), 4, "pages stop at max_query_entries");

    // Hash pagination drains a bucket the same way.
    let hash = entries[0].hash;
    let by_hash = client.query_hash(hash).expect("hash query");
    assert_eq!(by_hash.len(), 1);
    assert_eq!(by_hash[0].hash, hash);

    client.close();
    drop(server);
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn bad_cursors_are_typed_refusals_and_the_connection_survives() {
    let path = temp_registry("cursors");
    let ((n, k), _) = populate(&path, 10);

    let service = Arc::new(
        RecoveryService::start(ServiceConfig::new().with_registry_path(&path)).expect("start"),
    );
    let server = NetServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetServerConfig::new().with_max_query_entries(4),
    )
    .expect("bind");
    let mut client =
        Client::connect(server.local_addr().to_string(), "alice", "").expect("connect");

    // Garbage bytes: refused, typed.
    match client.query_dims_page(n, k, Some(vec![1, 2, 3]), 0) {
        Err(ClientError::Refused {
            kind: ErrorKind::BadRequest,
            ..
        }) => {}
        other => panic!("garbage cursor must be BadRequest, got {other:?}"),
    }

    // A real cursor with one flipped byte: the checksum catches it.
    let (_, next) = client.query_dims_page(n, k, None, 2).expect("first page");
    let mut tampered = next.clone().expect("more pages");
    tampered[10] ^= 0x40;
    match client.query_dims_page(n, k, tampered.into(), 2) {
        Err(ClientError::Refused {
            kind: ErrorKind::BadRequest,
            ..
        }) => {}
        other => panic!("tampered cursor must be BadRequest, got {other:?}"),
    }

    // A cursor minted for one query refused for another (same shape,
    // different dims).
    match client.query_dims_page(n + 1, k, next.clone(), 2) {
        Err(ClientError::Refused {
            kind: ErrorKind::BadRequest,
            ..
        }) => {}
        other => panic!("mismatched cursor must be BadRequest, got {other:?}"),
    }

    // The refusals did not poison the connection: the honest cursor
    // still resumes.
    let (page, _) = client
        .query_dims_page(n, k, next, 2)
        .expect("valid resume after refusals");
    assert!(!page.is_empty());

    client.close();
    drop(server);
    let _ = std::fs::remove_dir_all(&path);
}
