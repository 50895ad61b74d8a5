//! Seeded inputs: the population each workload starts from, the
//! per-connection request streams, and what every response must be.
//!
//! Everything here is a pure function of the seed. The served program
//! sees only the generated requests; the expectations stay with the
//! client thread, which checks every response against them.

use sero_proto::{Request, WireClass};
use std::collections::VecDeque;

/// Blocks on the served device: 32 MiB of 512-byte sectors.
pub const DEVICE_BLOCKS: u64 = 65_536;

/// Connections the client thread keeps open: one window in flight on each.
pub const CONNS: usize = 2;

/// `read_hot`: one-sector files, read uniformly at random.
pub const HOT_FILES: usize = 16_384;
pub const HOT_BYTES: usize = 400;

/// `ingest_seal`: sealed files present before the phase, and the size of
/// every file the phase creates, heats and verifies.
pub const SEALED_FILES: usize = 256;
pub const INGEST_BYTES: usize = 3_000;
/// Files the `ingest_seal` stream may create, over both connections. A
/// file takes 6 data blocks and then an 8-block line, both swept down
/// from the top of the device, and the archival sweep never wraps: this
/// keeps the sealed population (~60k blocks) inside the device.
pub const INGEST_FILE_CAP: usize = 4_000;

/// `meta_churn`: the stable namespace, the file size, each connection's
/// backlog of its own files awaiting removal, and the page size of
/// `List`.
pub const BASE_FILES: usize = 16_384;
pub const META_BYTES: usize = 64;
pub const CHURN_BACKLOG: usize = 64;
pub const LIST_LIMIT: u32 = 64;
/// Files the `meta_churn` stream may create, over both connections. Each
/// takes one fresh block and a removal leaves it dead, not free, so this
/// stays under the ~49k blocks free after population: the cleaner, which
/// reads sectors, never runs inside the phase.
pub const CHURN_CREATE_CAP: usize = 44_000;

/// SplitMix64: a small, fast, well-mixed generator whose whole state is
/// one word, so every stream is reproducible from its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// An independent generator for sub-stream `tag` of this seed.
    pub fn fork(seed: u64, tag: u64) -> SplitMix64 {
        let mut mix = SplitMix64::new(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407));
        SplitMix64::new(mix.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift, no modulo bias worth noting).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadHot,
    IngestSeal,
    MetaChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ReadHot, Workload::IngestSeal, Workload::MetaChurn];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read_hot",
            Workload::IngestSeal => "ingest_seal",
            Workload::MetaChurn => "meta_churn",
        }
    }

    /// Requests each connection pipelines per window.
    pub fn depth(self) -> usize {
        match self {
            Workload::ReadHot | Workload::MetaChurn => 8,
            Workload::IngestSeal => 3,
        }
    }
}

/// What a response must be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// `Data` with the bytes of `Model::contents[i]`.
    Data(usize),
    Created,
    /// `Heated`; the checker remembers the line for the file.
    Heated,
    /// An intact `Verified` for the line the file was heated into, with
    /// the metadata and timestamp sealed by the heat.
    Intact {
        metadata: Vec<u8>,
        timestamp: u64,
    },
    /// `Stat` of an unheated one-block file of `META_BYTES`.
    Stat,
    /// One `List` page after `cursor`.
    Page {
        cursor: String,
    },
    Removed,
}

/// One generated request with its expected answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub req: Request,
    pub expect: Expect,
}

/// The generator's view of the data: the contents of the starting files
/// (what `read_hot` reads back) and, for `meta_churn`, the names that
/// exist for the whole run.
#[derive(Debug, Clone)]
pub struct Model {
    pub workload: Workload,
    pub seed: u64,
    pub contents: Vec<Vec<u8>>,
    /// Sorted names that exist for the whole run.
    pub stable_names: Vec<String>,
}

fn hot_name(i: usize) -> String {
    format!("h{i:05}")
}

fn sealed_name(i: usize) -> String {
    format!("s{i:05}")
}

fn base_name(i: usize) -> String {
    format!("m{i:05}")
}

/// A churn file sorts directly after base file `anchor`, so `List` pages
/// starting anywhere in the namespace meet churn.
fn churn_name(anchor: usize, conn: usize, k: usize) -> String {
    format!("m{anchor:05}.{conn}{k:06}")
}

/// Tags for [`SplitMix64::fork`]: one sub-stream per purpose.
const TAG_POPULATION: u64 = 1;
const TAG_CONN: u64 = 16;

impl Model {
    pub fn new(workload: Workload, seed: u64) -> Model {
        let mut rng = SplitMix64::fork(seed, TAG_POPULATION);
        let (contents, stable_names) = match workload {
            Workload::ReadHot => (
                (0..HOT_FILES).map(|_| rng.bytes(HOT_BYTES)).collect(),
                Vec::new(),
            ),
            Workload::IngestSeal => (
                (0..SEALED_FILES).map(|_| rng.bytes(INGEST_BYTES)).collect(),
                Vec::new(),
            ),
            Workload::MetaChurn => (
                (0..BASE_FILES).map(|_| rng.bytes(META_BYTES)).collect(),
                (0..BASE_FILES).map(base_name).collect(),
            ),
        };
        Model {
            workload,
            seed,
            contents,
            stable_names,
        }
    }

    /// The requests that build the starting state, in order. Every one
    /// must succeed.
    pub fn population(&self) -> Vec<Request> {
        match self.workload {
            Workload::ReadHot => self
                .contents
                .iter()
                .enumerate()
                .map(|(i, data)| create(hot_name(i), data.clone(), WireClass::Normal))
                .collect(),
            Workload::IngestSeal => {
                let mut reqs = Vec::with_capacity(2 * SEALED_FILES);
                for (i, data) in self.contents.iter().enumerate() {
                    reqs.push(create(sealed_name(i), data.clone(), WireClass::Archival));
                    reqs.push(Request::Heat {
                        name: sealed_name(i),
                        metadata: format!("sealed {i}").into_bytes(),
                        timestamp: 1_199_145_600 + i as u64,
                    });
                }
                reqs
            }
            Workload::MetaChurn => {
                let mut reqs: Vec<Request> = self
                    .contents
                    .iter()
                    .enumerate()
                    .map(|(i, data)| create(base_name(i), data.clone(), WireClass::Normal))
                    .collect();
                for conn in 0..CONNS {
                    for name in self.stream(conn).backlog {
                        reqs.push(create(
                            name,
                            vec![conn as u8; META_BYTES],
                            WireClass::Normal,
                        ));
                    }
                }
                reqs
            }
        }
    }

    /// The request stream of connection `conn`.
    pub fn stream(&self, conn: usize) -> ConnStream {
        ConnStream::new(self, conn)
    }

    /// The namespace once the streams stopped after their last window.
    pub fn final_names<'a>(
        &self,
        streams: impl IntoIterator<Item = &'a ConnStream>,
    ) -> Vec<String> {
        let mut names = self.stable_names.clone();
        for s in streams {
            names.extend(s.backlog.iter().cloned());
        }
        names.sort();
        names
    }
}

fn create(name: String, data: Vec<u8>, class: WireClass) -> Request {
    Request::Create { name, data, class }
}

/// One connection's request stream, generated a window at a time.
#[derive(Debug, Clone)]
pub struct ConnStream {
    workload: Workload,
    seed: u64,
    conn: usize,
    rng: SplitMix64,
    /// Windows generated so far.
    windows: usize,
    /// Windows this stream may generate.
    limit: usize,
    /// `meta_churn`: this connection's files, oldest first, whose creates
    /// were acknowledged before the next window is sent.
    backlog: VecDeque<String>,
    /// `meta_churn`: this connection's create counter.
    created: usize,
}

impl ConnStream {
    fn new(model: &Model, conn: usize) -> ConnStream {
        let workload = model.workload;
        let limit = match workload {
            Workload::ReadHot => usize::MAX,
            Workload::IngestSeal => INGEST_FILE_CAP / CONNS,
            // Two creates per window.
            Workload::MetaChurn => CHURN_CREATE_CAP / CONNS / 2,
        };
        let mut stream = ConnStream {
            workload,
            seed: model.seed,
            conn,
            rng: SplitMix64::fork(model.seed, TAG_CONN + conn as u64),
            windows: 0,
            limit,
            backlog: VecDeque::new(),
            created: 0,
        };
        if workload == Workload::MetaChurn {
            for _ in 0..CHURN_BACKLOG {
                let name = stream.next_churn_name();
                stream.backlog.push_back(name);
            }
        }
        stream
    }

    fn next_churn_name(&mut self) -> String {
        let name = churn_name(self.rng.below(BASE_FILES), self.conn, self.created);
        self.created += 1;
        name
    }

    /// The next window, or `None` once the stream is exhausted.
    pub fn next_window(&mut self) -> Option<Vec<Op>> {
        if self.windows >= self.limit {
            return None;
        }
        let k = self.windows;
        self.windows += 1;
        Some(match self.workload {
            Workload::ReadHot => (0..Workload::ReadHot.depth())
                .map(|_| {
                    let i = self.rng.below(HOT_FILES);
                    Op {
                        req: Request::Read { name: hot_name(i) },
                        expect: Expect::Data(i),
                    }
                })
                .collect(),
            Workload::IngestSeal => {
                let name = format!("i{}-{k:05}", self.conn);
                let metadata = format!("e2e seed {} conn {} file {k}", self.seed, self.conn);
                let timestamp = 1_262_304_000 + (k * CONNS + self.conn) as u64;
                vec![
                    Op {
                        req: create(
                            name.clone(),
                            self.rng.bytes(INGEST_BYTES),
                            WireClass::Archival,
                        ),
                        expect: Expect::Created,
                    },
                    Op {
                        req: Request::Heat {
                            name: name.clone(),
                            metadata: metadata.clone().into_bytes(),
                            timestamp,
                        },
                        expect: Expect::Heated,
                    },
                    Op {
                        req: Request::Verify { name },
                        expect: Expect::Intact {
                            metadata: metadata.into_bytes(),
                            timestamp,
                        },
                    },
                ]
            }
            Workload::MetaChurn => {
                let mut ops = Vec::with_capacity(Workload::MetaChurn.depth());
                let mut made = Vec::new();
                for _ in 0..Workload::MetaChurn.depth() / 4 {
                    let name = self.next_churn_name();
                    made.push(name.clone());
                    ops.push(Op {
                        req: create(name, self.rng.bytes(META_BYTES), WireClass::Normal),
                        expect: Expect::Created,
                    });
                    ops.push(Op {
                        req: Request::Stat {
                            name: base_name(self.rng.below(BASE_FILES)),
                        },
                        expect: Expect::Stat,
                    });
                    let cursor = base_name(self.rng.below(BASE_FILES));
                    ops.push(Op {
                        req: Request::List {
                            cursor: Some(cursor.clone()),
                            limit: LIST_LIMIT,
                        },
                        expect: Expect::Page { cursor },
                    });
                    let victim = self
                        .backlog
                        .pop_front()
                        .expect("the backlog outlives every window");
                    ops.push(Op {
                        req: Request::Remove { name: victim },
                        expect: Expect::Removed,
                    });
                }
                // The client sends the next window only after this one is
                // answered, so these creates are acknowledged by then.
                self.backlog.extend(made);
                ops
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windows(workload: Workload, seed: u64, conn: usize, n: usize) -> Vec<Vec<Op>> {
        let model = Model::new(workload, seed);
        let mut stream = model.stream(conn);
        (0..n)
            .map(|_| stream.next_window().expect("window"))
            .collect()
    }

    #[test]
    fn the_same_seed_gives_an_identical_stream() {
        for workload in Workload::ALL {
            assert_eq!(windows(workload, 1, 0, 50), windows(workload, 1, 0, 50));
            assert_eq!(
                Model::new(workload, 1).population(),
                Model::new(workload, 1).population()
            );
        }
    }

    #[test]
    fn another_seed_or_connection_gives_another_stream() {
        for workload in Workload::ALL {
            assert_ne!(windows(workload, 1, 0, 50), windows(workload, 2, 0, 50));
            assert_ne!(windows(workload, 1, 0, 50), windows(workload, 1, 1, 50));
        }
        assert_ne!(
            Model::new(Workload::ReadHot, 1).population(),
            Model::new(Workload::ReadHot, 2).population()
        );
    }

    #[test]
    fn windows_have_the_workload_depth() {
        for workload in Workload::ALL {
            for window in windows(workload, 7, 1, 20) {
                assert_eq!(window.len(), workload.depth());
            }
        }
    }

    #[test]
    fn churn_removes_only_acknowledged_own_files() {
        let model = Model::new(Workload::MetaChurn, 3);
        let mut stream = model.stream(1);
        let mut acknowledged: Vec<String> = stream.backlog.iter().cloned().collect();
        for _ in 0..200 {
            let window = stream.next_window().expect("window");
            let mut created = Vec::new();
            for op in &window {
                match &op.req {
                    Request::Create { name, .. } => created.push(name.clone()),
                    Request::Remove { name } => {
                        let at = acknowledged.iter().position(|n| n == name);
                        assert!(at.is_some(), "{name} removed before it was acknowledged");
                        acknowledged.remove(at.expect("checked"));
                    }
                    _ => {}
                }
            }
            acknowledged.extend(created);
        }
        acknowledged.sort();
        let mut expected = model.final_names([&stream]);
        expected.retain(|n| n.contains('.'));
        assert_eq!(acknowledged, expected);
    }

    #[test]
    fn streams_stop_at_their_caps() {
        let model = Model::new(Workload::IngestSeal, 1);
        let mut stream = model.stream(0);
        let mut n = 0;
        while stream.next_window().is_some() {
            n += 1;
        }
        assert_eq!(n, INGEST_FILE_CAP / CONNS);
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix64::new(9);
        for n in [1usize, 2, 3, 1000] {
            for _ in 0..1000 {
                assert!(rng.below(n) < n);
            }
        }
    }
}
