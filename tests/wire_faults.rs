//! Wire-path fault injection: stalled peers, dead servers, and torn
//! frames. Pins the self-healing contract — a stalled or dead peer
//! never wedges `sero-client` (deadlines) or pins the `sero-server`
//! event loop (idle reap), idempotent requests heal over a fresh
//! connection, and mutations are never retried.

use sero_client::{ClientConfig, SeroClient};
use sero_core::device::SeroDevice;
use sero_fs::fs::{FsConfig, SeroFs};
use sero_server::{SeroServer, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn spawn_server(blocks: u64, config: ServerConfig) -> (ServerHandle, SocketAddr) {
    let fs = SeroFs::format(SeroDevice::with_blocks(blocks), FsConfig::default()).unwrap();
    let handle = SeroServer::bind("127.0.0.1:0", fs, config)
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr();
    (handle, addr)
}

fn quick_client(addr: SocketAddr) -> SeroClient {
    SeroClient::connect_with(
        addr,
        ClientConfig {
            read_timeout: Some(Duration::from_secs(5)),
            ..ClientConfig::default()
        },
    )
    .unwrap()
}

/// A peer that sends half a frame header and then stalls must not pin
/// the daemon: its single event-loop thread serves the next client while
/// the staller's partial frame waits, and the read deadline reaps it.
#[test]
fn stalled_peer_is_reaped_and_does_not_pin_a_worker() {
    let (handle, addr) = spawn_server(
        256,
        ServerConfig {
            read_timeout: Some(Duration::from_millis(150)),
            ..ServerConfig::default()
        },
    );

    // The stall: four header bytes, then silence. Keep the socket open
    // so only the reap (not an EOF) can close it.
    let mut staller = TcpStream::connect(addr).unwrap();
    staller.write_all(&[0x53, 0x46, 0x52, 0x4D]).unwrap();

    // The victim: one thread serves every socket, so a loop that
    // blocked on the staller's missing bytes would never answer this.
    let t0 = Instant::now();
    let mut client = quick_client(addr);
    client.ping().expect("stalled peer must not block service");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "served only after an unreasonable delay: {:?}",
        t0.elapsed()
    );

    drop(staller);
    handle.shutdown();
}

/// A server that accepts and then never answers must not hang the
/// client: the read deadline surfaces a typed timeout.
#[test]
fn client_deadline_fires_against_a_silent_server() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // Accept and hold connections open without ever responding.
    let sink = thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((conn, _)) = listener.accept() {
            held.push(conn);
            if held.len() >= 3 {
                break;
            }
        }
        thread::sleep(Duration::from_secs(2));
    });

    let mut client = SeroClient::connect_with(
        addr,
        ClientConfig {
            read_timeout: Some(Duration::from_millis(120)),
            max_attempts: 2,
            backoff_base: Duration::from_millis(5),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let t0 = Instant::now();
    let err = client.ping().expect_err("silent server must time out");
    assert!(err.is_transport(), "not a transport error: {err:?}");
    assert!(err.is_timeout(), "not a timeout: {err:?}");
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "deadline did not bound the wait: {:?}",
        t0.elapsed()
    );
    drop(client);
    // The initial connect plus one retry reconnect used two accepts;
    // a throwaway third lets the sink thread exit.
    let _ = TcpStream::connect(addr);
    sink.join().unwrap();
}

/// A proxy that tears the first response mid-frame and then behaves:
/// the idempotent read self-heals over a fresh connection, invisibly to
/// the caller.
#[test]
fn idempotent_read_heals_across_a_torn_frame() {
    let (handle, addr) = spawn_server(512, ServerConfig::default());

    // Seed a file to read, directly.
    let mut seeder = quick_client(addr);
    let body = vec![0xA7u8; 900];
    seeder
        .create("healme.bin", &body, sero_proto::WireClass::Normal)
        .unwrap();

    let proxy_addr = spawn_tearing_proxy(addr, 1);
    let mut client = SeroClient::connect_with(
        proxy_addr,
        ClientConfig {
            read_timeout: Some(Duration::from_secs(5)),
            max_attempts: 3,
            backoff_base: Duration::from_millis(2),
            ..ClientConfig::default()
        },
    )
    .unwrap();

    // First attempt sees the torn frame; the retry reconnects through
    // the now-honest proxy and returns the right bytes.
    assert_eq!(client.read("healme.bin").unwrap(), body);

    handle.shutdown();
}

/// Mutations never retry: a create whose response is torn surfaces the
/// transport error — the client does not silently resend a write whose
/// fate it cannot know. The server, which *did* apply it, still shows
/// exactly one file.
#[test]
fn mutations_surface_transport_errors_instead_of_retrying() {
    let (handle, addr) = spawn_server(512, ServerConfig::default());
    let proxy_addr = spawn_tearing_proxy(addr, 1);

    let mut client = SeroClient::connect_with(
        proxy_addr,
        ClientConfig {
            read_timeout: Some(Duration::from_secs(5)),
            max_attempts: 3,
            backoff_base: Duration::from_millis(2),
            ..ClientConfig::default()
        },
    )
    .unwrap();

    let err = client
        .create("once.bin", b"exactly once", sero_proto::WireClass::Normal)
        .expect_err("torn response must surface");
    // Had the client retried, the second attempt would have answered a
    // typed Exists from the server, not a transport error.
    assert!(err.is_transport(), "mutation was retried: {err:?}");

    // The command *was* applied — the fault hit the response, not the
    // request — and exactly once.
    let mut direct = quick_client(addr);
    let names = direct.list().unwrap();
    assert_eq!(names, vec!["once.bin".to_string()]);

    handle.shutdown();
}

/// A TCP proxy to `upstream` that truncates the response of the first
/// `tears` connections halfway and closes, then forwards every later
/// connection untouched. Returns the proxy's address.
fn spawn_tearing_proxy(upstream: SocketAddr, tears: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let torn = Arc::new(AtomicUsize::new(0));
    thread::spawn(move || {
        for inbound in listener.incoming() {
            let Ok(mut inbound) = inbound else { break };
            let torn = Arc::clone(&torn);
            thread::spawn(move || {
                let Ok(mut out) = TcpStream::connect(upstream) else {
                    return;
                };
                // Forward one request (requests here fit one read).
                let mut buf = [0u8; 65536];
                let Ok(n) = inbound.read(&mut buf) else {
                    return;
                };
                if n == 0 || out.write_all(&buf[..n]).is_err() {
                    return;
                }
                // Collect the full response frame.
                let mut resp = Vec::new();
                loop {
                    match out.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            resp.extend_from_slice(&buf[..n]);
                            if resp.len() >= 10 {
                                let len = u32::from_le_bytes(resp[6..10].try_into().unwrap());
                                if resp.len() >= 14 + len as usize {
                                    break;
                                }
                            }
                        }
                    }
                }
                if torn.fetch_add(1, Ordering::SeqCst) < tears {
                    // Tear: half the frame, then hang up mid-frame.
                    let _ = inbound.write_all(&resp[..resp.len() / 2]);
                    return;
                }
                if inbound.write_all(&resp).is_err() {
                    return;
                }
                // Honest pass-through for the rest of the connection.
                let (Ok(mut in_r), Ok(mut out_r)) = (inbound.try_clone(), out.try_clone()) else {
                    return;
                };
                let up = thread::spawn(move || {
                    let _ = std::io::copy(&mut in_r, &mut out);
                });
                let _ = std::io::copy(&mut out_r, &mut inbound);
                let _ = up.join();
            });
        }
    });
    addr
}
