//! **sero** — tamper-evident SERO storage on simulated patterned magnetic
//! media.
//!
//! A full reproduction of *Towards Tamper-evident Storage on Patterned
//! Media* (Hartel, Abelmann, Khatib — FAST 2008), from the Co/Pt
//! interface-mixing physics up to a heated-line-aware log-structured file
//! system, plus the archival substrates (Venti, fossilised index) and the
//! complete §5 attack battery.
//!
//! This facade crate re-exports the whole stack:
//!
//! | layer | crate |
//! |---|---|
//! | medium physics (anisotropy, XRD, thermal, MFM) | [`media`] |
//! | probe device (bit/sector ops, timing) | [`probe`] |
//! | hashing | [`crypto`] |
//! | Manchester / CRC / Reed–Solomon / WOM codes | [`codec`] |
//! | **SERO device: heat & verify lines** | [`core`] |
//! | LSM metadata index (WAL, segments, blooms, manifest) | [`index`] |
//! | log-structured file system + concurrent front end | [`fs`] |
//! | content-addressed archival store | [`venti`] |
//! | fossilised index | [`fossil`] |
//! | §5 attack battery | [`attack`] |
//! | workload generators | [`workload`] |
//! | wire protocol (commands, frames, error codes) | [`proto`] |
//!
//! # Quickstart
//!
//! ```
//! use sero::core::prelude::*;
//!
//! let mut dev = SeroDevice::with_blocks(32);
//! let line = Line::new(8, 2)?;
//! for pba in line.data_blocks() {
//!     dev.write_block(pba, &[0xAB; 512])?;
//! }
//! dev.heat_line(line, b"frozen evidence".to_vec(), 1_199_145_600)?;
//! assert!(dev.verify_line(line)?.is_intact());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Concurrency
//!
//! A [`fs::fs::SeroFs`] wants exclusive access (`&mut self`). To share
//! one file system across threads — the `sero-server` deployment shape —
//! wrap it in [`fs::ConcurrentFs`]: a cloneable handle over one mutex.
//! Its `handle_batch` takes the lock once per window of requests (the
//! daemon's reactor passes every request readable in one sweep) and lets
//! the admission scheduler ([`core::admission`]) merge the window's
//! queued reads into elevator sweeps, while budgeted scrub slices run
//! inside windows under the same mutex. Any interleaving answers
//! byte-identically to the serialized schedule — tamper evidence
//! included. `docs/ARCHITECTURE.md` documents the model
//! and its invariants; `examples/quickstart.rs` ends with a threaded
//! demo.
//!
//! ```
//! use sero::fs::fs::{FsConfig, SeroFs};
//! use sero::fs::ConcurrentFs;
//! use sero::proto::{Request, Response, WireClass};
//!
//! let mut fs = SeroFs::format(sero::core::device::SeroDevice::with_blocks(64), FsConfig::default())?;
//! fs.handle(Request::Create {
//!     name: "shared.bin".into(),
//!     data: vec![9u8; 700],
//!     class: WireClass::Normal,
//! });
//! let cfs = ConcurrentFs::new(fs); // clone per thread; handle(&self)
//! let reader = {
//!     let cfs = cfs.clone();
//!     std::thread::spawn(move || cfs.handle(Request::Read { name: "shared.bin".into() }))
//! };
//! assert!(matches!(reader.join().unwrap(), Response::Data { .. }));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sero_attack as attack;
pub use sero_codec as codec;
pub use sero_core as core;
pub use sero_crypto as crypto;
pub use sero_fossil as fossil;
pub use sero_fs as fs;
pub use sero_index as index;
pub use sero_media as media;
pub use sero_probe as probe;
pub use sero_proto as proto;
pub use sero_venti as venti;
pub use sero_workload as workload;
