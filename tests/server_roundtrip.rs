//! End-to-end tests of the served deployment: a real `sero-server`
//! daemon on loopback, real `sero-client` connections, the full command
//! path over actual TCP frames. The headline property is the paper's
//! guarantee surviving the wire: a remote auditor who heats a file,
//! watches an attacker raw-write into its line, and verifies again gets
//! a loud TAMPER-DETECTED error code — never a quiet success.

use sero_client::{ClientError, SeroClient};
use sero_core::device::SeroDevice;
use sero_fs::fs::{FsConfig, SeroFs};
use sero_proto::{ErrorCode, WireClass, WireSchedState, WireVerdict};
use sero_server::{SeroServer, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::thread;

fn spawn_server(blocks: u64, config: ServerConfig) -> (ServerHandle, SocketAddr) {
    let fs = SeroFs::format(SeroDevice::with_blocks(blocks), FsConfig::default()).unwrap();
    let server = SeroServer::bind("127.0.0.1:0", fs, config).unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr();
    (handle, addr)
}

#[test]
fn crud_round_trip_over_the_wire() {
    let (handle, addr) = spawn_server(512, ServerConfig::default());
    let mut client = SeroClient::connect(addr).unwrap();

    client.ping().unwrap();
    let ino = client
        .create("wal.log", b"begin; commit;", WireClass::Normal)
        .unwrap();
    assert!(ino > 0);
    assert_eq!(client.read("wal.log").unwrap(), b"begin; commit;");
    client
        .write("wal.log", b"rewritten", WireClass::Normal)
        .unwrap();
    assert_eq!(client.read("wal.log").unwrap(), b"rewritten");
    let info = client.stat("wal.log").unwrap();
    assert_eq!(info.size, 9);
    assert!(info.heated.is_none());
    assert_eq!(client.list().unwrap(), vec!["wal.log".to_string()]);
    client.remove("wal.log").unwrap();

    let err = client.read("wal.log").unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::NotFound));
    match &err {
        ClientError::Server(e) => assert!(e.detail.contains("wal.log"), "{}", e.detail),
        other => panic!("{other:?}"),
    }

    handle.shutdown();
}

#[test]
fn eight_concurrent_clients_see_consistent_state() {
    let (handle, addr) = spawn_server(4096, ServerConfig::default());

    const CLIENTS: usize = 8;
    const OPS: usize = 12;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            thread::spawn(move || {
                let mut client = SeroClient::connect(addr).unwrap();
                let name = format!("client-{c}.dat");
                let body = vec![c as u8 + 1; 700];
                client.create(&name, &body, WireClass::Normal).unwrap();
                for round in 0..OPS {
                    assert_eq!(
                        client.read(&name).unwrap(),
                        body,
                        "client {c} round {round}"
                    );
                    client.ping().unwrap();
                }
                let names = client.list().unwrap();
                assert!(names.contains(&name), "client {c} lost its own file");
                name
            })
        })
        .collect();
    let created: Vec<String> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    // One more client observes every file all the others wrote.
    let mut observer = SeroClient::connect(addr).unwrap();
    let names = observer.list().unwrap();
    for name in &created {
        assert!(names.contains(name));
    }
    assert_eq!(names.len(), CLIENTS);

    handle.shutdown();
}

#[test]
fn tamper_evidence_crosses_the_wire() {
    let (handle, addr) = spawn_server(
        512,
        ServerConfig {
            allow_raw: true,
            ..ServerConfig::default()
        },
    );
    let mut auditor = SeroClient::connect(addr).unwrap();

    auditor
        .create("ledger.csv", &[7u8; 1500], WireClass::Archival)
        .unwrap();
    let line = auditor
        .heat("ledger.csv", b"2008 audit", 1_199_145_600)
        .unwrap();
    match auditor.verify("ledger.csv").unwrap() {
        WireVerdict::Intact {
            timestamp,
            metadata,
            ..
        } => {
            assert_eq!(timestamp, 1_199_145_600);
            assert_eq!(metadata, b"2008 audit");
        }
        other => panic!("{other:?}"),
    }

    // The attacker connects with their own session — the §5 "laptop with
    // the appropriate interface" — and rewrites a protected block.
    let mut attacker = SeroClient::connect(addr).unwrap();
    attacker.raw_write(line.start + 2, &[0xEE; 512]).unwrap();

    // The auditor's next verify fails loudly with the wire-stable code
    // and the full report text.
    let err = auditor.verify("ledger.csv").unwrap_err();
    assert!(err.is_tamper_detected(), "{err}");
    match &err {
        ClientError::Server(e) => {
            assert_eq!(e.code, ErrorCode::TamperDetected);
            assert!(e.detail.contains("TAMPER EVIDENCE"), "{}", e.detail);
        }
        other => panic!("{other:?}"),
    }

    // The read path itself serves the corrupted bytes without complaint —
    // exactly why the paper's guarantee is *evidence*, not prevention:
    // only verify catches the rewrite.
    let served = auditor.read("ledger.csv").unwrap();
    assert_eq!(served.len(), 1500);
    assert_ne!(served, vec![7u8; 1500], "tampered sector must be visible");

    handle.shutdown();
}

#[test]
fn production_daemon_refuses_raw_writes() {
    let (handle, addr) = spawn_server(256, ServerConfig::default());
    let mut client = SeroClient::connect(addr).unwrap();
    let err = client.raw_write(40, &[0u8; 512]).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::UnsupportedCommand));
    // The refusal did not kill the connection.
    client.ping().unwrap();
    handle.shutdown();
}

#[test]
fn scrub_drives_to_completion_over_the_wire() {
    let (handle, addr) = spawn_server(1024, ServerConfig::default());
    let mut client = SeroClient::connect(addr).unwrap();

    for i in 0..4 {
        let name = format!("vault-{i}");
        client
            .create(&name, &[i as u8 + 1; 1100], WireClass::Archival)
            .unwrap();
        client.heat(&name, b"", i as u64).unwrap();
    }

    let err = client.scrub_tick().unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::NoScrub));

    let (epoch, pending) = client.scrub_start(200_000, 1_000_000, true).unwrap();
    assert_eq!(epoch, 1);
    assert_eq!(pending, 4);
    // Double-start is refused with the wire-stable code.
    let err = client.scrub_start(0, 0, true).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::ScrubActive));

    let mut completed = false;
    for _ in 0..300 {
        let (_, status) = client.scrub_tick().unwrap();
        if status.state == WireSchedState::Complete {
            assert_eq!(status.verified, 4);
            assert_eq!(status.tampered, 0);
            completed = true;
            break;
        }
    }
    assert!(completed, "wire-driven scrub never completed");

    let status = client.scrub_status().unwrap().expect("a pass ran");
    assert_eq!(status.epoch, 1);

    let members = client.fleet_status().unwrap();
    assert_eq!(members.len(), 1);
    assert_eq!(members[0].scrub_epoch, 1);
    assert_eq!(members[0].heated_lines, 4);

    handle.shutdown();
}

#[test]
fn shutdown_stops_serving() {
    let (handle, addr) = spawn_server(256, ServerConfig::default());
    let mut client = SeroClient::connect(addr).unwrap();
    client.ping().unwrap();
    handle.shutdown();
    // The daemon is gone: either the connect is refused or the first
    // command on a half-open stream fails.
    let outcome = SeroClient::connect(addr).and_then(|mut c| c.ping());
    assert!(outcome.is_err(), "daemon still serving after shutdown");
}
