//! Quickstart: the SERO stack in five minutes, through the command API.
//!
//! Every deployment path — in-process embedding, the test suite, and the
//! `sero-server` wire daemon — drives the stack through one door: a
//! [`sero::proto::Request`] handed to [`sero::fs::fs::SeroFs::handle`]
//! (exclusive access) or to a shared [`sero::fs::ConcurrentFs`] (what
//! the daemon's event loop uses). This example formats a file
//! system, stores a file, freezes it under a heated line, tampers
//! through the raw interface, watches the verify command answer with
//! the wire-stable `TAMPER-DETECTED` code — then hands the same file
//! system to concurrent callers sharing one lock.
//!
//! Run with: `cargo run --example quickstart`

use sero::fs::fs::{FsConfig, SeroFs};
use sero::fs::ConcurrentFs;
use sero::proto::{ErrorCode, Request, Response, WireClass};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== SERO quickstart ==\n");

    // A file system over a device with 256 blocks of 512 bytes on a
    // 100 nm-pitch medium.
    let mut fs = SeroFs::format(
        sero::core::device::SeroDevice::with_blocks(256),
        FsConfig::default(),
    )?;
    println!(
        "device: {} blocks, {:.1} Gbit/cm^2 medium",
        fs.device().block_count(),
        fs.device()
            .probe()
            .medium()
            .geometry()
            .areal_density_gbit_per_cm2()
    );

    // 1. Ordinary WMRM use: create and rewrite freely.
    let create = Request::Create {
        name: "ledger.csv".into(),
        data: vec![7u8; 1500],
        class: WireClass::Archival,
    };
    let Response::Created { ino } = fs.handle(create) else {
        panic!("create refused")
    };
    println!("created ledger.csv as inode {ino} (rewritable WMRM phase)");

    // 2. Freeze history: heat the file's line, sealing metadata and a
    // timestamp into its hash block.
    let heat = Request::Heat {
        name: "ledger.csv".into(),
        metadata: b"quarter-end freeze".to_vec(),
        timestamp: 1_199_145_600,
    };
    let Response::Heated { line } = fs.handle(heat) else {
        panic!("heat refused")
    };
    println!("heated line: start={} order={}", line.start, line.order);

    // 3. Data stays readable; rewrites are refused with a wire code.
    let read = Request::Read {
        name: "ledger.csv".into(),
    };
    let Response::Data { bytes } = fs.handle(read.clone()) else {
        panic!("read refused")
    };
    println!("data still readable ({} bytes)", bytes.len());
    let rewrite = Request::Write {
        name: "ledger.csv".into(),
        data: vec![0u8; 8],
        class: WireClass::Archival,
    };
    let Response::Error(e) = fs.handle(rewrite) else {
        panic!("rewrite of a heated file must be refused")
    };
    println!("rewrite refused: {e}");

    // 4. Verification passes…
    let verify = Request::Verify {
        name: "ledger.csv".into(),
    };
    let Response::Verified(verdict) = fs.handle(verify.clone()) else {
        panic!("verify refused")
    };
    println!("verify: {verdict:?}");

    // 5. …until someone rewrites history through the §5 raw interface
    // (the command a production `sero-server` only serves under
    // `--allow-raw`).
    let tamper = Request::RawWrite {
        pba: line.start + 2,
        data: vec![0xEE; 512],
    };
    let Response::RawWritten = fs.handle(tamper) else {
        panic!("raw write refused")
    };
    let Response::Error(evidence) = fs.handle(verify) else {
        panic!("tampering missed")
    };
    assert_eq!(evidence.code, ErrorCode::TamperDetected);
    println!(
        "\nafter raw rewrite of block {}:\n{}",
        line.start + 2,
        evidence.detail
    );

    // 6. Simulated-time and capacity accounting, over the same door.
    let Response::FleetStatus { members } = fs.handle(Request::FleetStatus) else {
        panic!("fleet status refused")
    };
    let m = &members[0];
    println!(
        "device time: {} ns | blocks: {} total, {} read-only | heated lines: {} ({} flagged)",
        m.device_clock_ns, m.total_blocks, m.read_only_blocks, m.heated_lines, m.flagged_lines
    );

    // 7. The concurrent front end: the same door, shared by threads.
    // `ConcurrentFs` puts the file system behind one lock; each
    // `handle_batch` window takes it once, and the admission scheduler
    // merges the window's reads into elevator sweeps. `handle` is a
    // window of one, so these threads take turns. `sero-server`'s event
    // loop passes each sweep's requests as one window
    // (docs/ARCHITECTURE.md has the full concurrency model).
    let cfs = ConcurrentFs::new(fs);
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let cfs = cfs.clone();
            std::thread::spawn(move || {
                for _ in 0..8 {
                    let Response::Data { bytes } = cfs.handle(Request::Read {
                        name: "ledger.csv".into(),
                    }) else {
                        panic!("concurrent read refused")
                    };
                    assert_eq!(bytes.len(), 1500);
                }
            })
        })
        .collect();
    for r in readers {
        r.join().expect("reader thread");
    }
    // A window of four reads, as the daemon passes it when four clients
    // are readable in one sweep, merges into one elevator sweep.
    let window = cfs.handle_batch(vec![read; 4]);
    assert!(window
        .iter()
        .all(|r| matches!(r, Response::Data { bytes } if bytes.len() == 1500)));
    let stats = cfs.admission_stats();
    println!(
        "concurrent phase: 4 threads x 8 reads served, then a 4-read window; \
         {} reads merged into sweeps",
        stats.reads_merged
    );
    Ok(())
}
