//! The TCP daemon: configuration, bind, and lifecycle around the reactor.

use sero_fs::concurrent::ConcurrentFs;
use sero_fs::SeroFs;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Daemon configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Serve [`RawWrite`](sero_proto::Request::RawWrite) — the §5
    /// attacker interface, for tamper drills and smoke tests. Off by
    /// default: a production daemon refuses raw writes with
    /// [`UnsupportedCommand`](sero_proto::ErrorCode::UnsupportedCommand).
    pub allow_raw: bool,
    /// Per-connection read deadline. A peer that goes quiet mid-frame
    /// (or idles between frames) past this with nothing owed is reaped,
    /// freeing its event-loop slot. `None` disables.
    pub read_timeout: Option<Duration>,
    /// Per-connection write deadline. A peer that stops draining its
    /// responses past this is reaped instead of holding its outbox
    /// forever. `None` disables.
    pub write_timeout: Option<Duration>,
    /// Connection cap: past this many live connections a newcomer is
    /// answered with a typed
    /// [`ServerBusy`](sero_proto::ErrorCode::ServerBusy) refusal frame
    /// and closed, instead of growing the accept queue silently.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            allow_raw: false,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            max_connections: 1024,
        }
    }
}

/// A bound, not-yet-running daemon serving one [`SeroFs`] through a
/// [`ConcurrentFs`]: the reactor dispatches each sweep's requests as one
/// `handle_batch` window, whose runs of reads merge into bulk sweeps.
pub struct SeroServer {
    listener: TcpListener,
    fs: ConcurrentFs,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
}

impl SeroServer {
    /// Binds to `addr` (use port 0 for an OS-assigned port).
    ///
    /// # Errors
    ///
    /// Socket errors from the bind.
    pub fn bind(
        addr: impl ToSocketAddrs,
        fs: SeroFs,
        config: ServerConfig,
    ) -> io::Result<SeroServer> {
        SeroServer::bind_shared(addr, ConcurrentFs::new(fs), config)
    }

    /// Binds sharing an already-wrapped [`ConcurrentFs`]: the caller
    /// keeps a clone and can observe the store (e.g. the simulated
    /// device clock, for benchmarks) while the daemon serves it.
    ///
    /// # Errors
    ///
    /// Socket errors from the bind.
    pub fn bind_shared(
        addr: impl ToSocketAddrs,
        fs: ConcurrentFs,
        config: ServerConfig,
    ) -> io::Result<SeroServer> {
        Ok(SeroServer {
            listener: TcpListener::bind(addr)?,
            fs,
            config,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (the real port after binding port 0).
    ///
    /// # Errors
    ///
    /// Socket errors from the address query.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the readiness reactor ([`crate::reactor`]) on the calling
    /// thread until [`ServerHandle::shutdown`] trips the stop flag.
    ///
    /// # Errors
    ///
    /// Fatal listener errors; per-connection errors are contained to
    /// their connection.
    pub fn run(self) -> io::Result<()> {
        crate::reactor::run_reactor(self.listener, &self.fs, &self.config, &self.stop)
    }

    /// Runs the daemon on a background thread and returns a handle that
    /// can stop it.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::clone(&self.stop);
        let thread = thread::spawn(move || self.run());
        Ok(ServerHandle { addr, stop, thread })
    }
}

/// Handle to a daemon running via [`SeroServer::spawn`].
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the daemon and joins its thread. The reactor checks the
    /// flag at the top of every sweep, so the sweep in hand finishes
    /// (its window answered) and then every connection is severed.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.thread.join();
    }
}
