//! **sero-server** — the TCP daemon serving one SERO file system over
//! the `sero-proto` wire format.
//!
//! The daemon owns a [`SeroFs`](sero_fs::SeroFs) wrapped in a
//! [`ConcurrentFs`](sero_fs::concurrent::ConcurrentFs) and serves the
//! full command set through the one dispatch path — a remote `verify`
//! means exactly what an in-process `verify` means, tamper evidence
//! included.
//!
//! Connections are multiplexed by one readiness-driven event loop, the
//! [`reactor`], owning every socket in non-blocking mode, with
//! per-connection incremental frame reassembly and backpressured write
//! buffers. Every request readable in a sweep dispatches as a *single*
//! `ConcurrentFs::handle_batch` window, so n concurrent clients form the
//! depth-n admission batches the admission scheduler is built for.
//! Deadlines, idle reap, and the `--max-connections` refusal are reactor
//! timers.
//!
//! # Example
//!
//! ```
//! use sero_core::device::SeroDevice;
//! use sero_fs::fs::{FsConfig, SeroFs};
//! use sero_server::{SeroServer, ServerConfig};
//! use sero_proto::frame::{read_frame, write_frame};
//! use sero_proto::{FrameKind, Request, Response};
//! use std::net::TcpStream;
//!
//! let fs = SeroFs::format(SeroDevice::with_blocks(256), FsConfig::default())?;
//! let server = SeroServer::bind("127.0.0.1:0", fs, ServerConfig::default())?;
//! let handle = server.spawn()?;
//!
//! let mut conn = TcpStream::connect(handle.addr())?;
//! write_frame(&mut conn, FrameKind::Request, &Request::Ping.encode())?;
//! let (_, payload) = read_frame(&mut conn)?.expect("response");
//! assert_eq!(Response::decode(&payload)?, Response::Pong);
//!
//! handle.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod reactor;
pub mod server;

pub use server::{SeroServer, ServerConfig, ServerHandle};
