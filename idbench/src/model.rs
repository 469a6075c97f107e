//! The workloads as data: the tree each Chirp workload stages, the
//! seeded op stream each connection runs, and the oracle that says what
//! every read must return. Both the wire load and the layer-peeling
//! replays consume the same [`Gen`] stream.

use crate::rng::{content, mix, path_key, Rng};
use idbox_acl::Rights;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Meta,
    Churn,
    Bulk,
    BoxMake,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Meta, Kind::Churn, Kind::Bulk, Kind::BoxMake];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Meta => "meta",
            Kind::Churn => "churn",
            Kind::Bulk => "bulk",
            Kind::BoxMake => "box_make",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    pub fn durable(self) -> bool {
        self == Kind::Churn
    }
}

/// Certificate subjects of the two load identities and the admin that
/// reads counters back (outside the timed window).
pub const USERS: [&str; 2] = ["/O=UnivNowhere/CN=User0", "/O=UnivNowhere/CN=User1"];
pub const ADMIN: &str = "/O=UnivNowhere/CN=Admin";
/// The wildcard every load identity matches (root reserve right, shared
/// directory read right).
pub const WILDCARD: &str = "globus:/O=UnivNowhere/*";

/// The qualified identity string the server boxes user `i` under.
pub fn identity(i: usize) -> String {
    format!("globus:{}", USERS[i])
}

// meta: per identity, DIRS x FILES files of META_FILE bytes, plus a
// shared directory of FILES files. 2 x (32 x 32 + 33) + 33 names fit
// the dentry cache (8192); the 67 ACL'd directories fit the ACL cache.
pub const META_DIRS: usize = 32;
pub const META_FILES: usize = 32;
pub const META_FILE: usize = 4096;
// churn: small puts into a work directory, names reused over SLOTS,
// beside a static tree of DIRS x STATIC files the stats and probes hit.
pub const CHURN_FILE: usize = 512;
pub const CHURN_SLOTS: u64 = 4;
pub const CHURN_DIRS: usize = 8;
pub const CHURN_STATIC: usize = 32;
// bulk: reader files, writer files, pwrite chunking, pipeline depth.
pub const MIB: usize = 1 << 20;
pub const BULK_SMALL: usize = 8;
pub const BULK_BIG: usize = 4;
pub const BULK_BIG_SIZE: usize = 16 * MIB;
pub const BULK_PUTS: usize = 4;
pub const PWRITE_CHUNK: usize = 256 << 10;
pub const PIPE_DEPTH: usize = 4;

/// One step of a connection's stream. Each issues one or more RPCs and
/// carries what its replies must be.
#[derive(Debug, Clone)]
pub enum Action {
    /// `stat`: a regular file of `size` bytes.
    Stat {
        path: String,
        size: u64,
    },
    /// `open` + `pread` of the whole (small) file + `close`.
    Read {
        path: String,
    },
    /// `readdir`: every name in `must` is listed (and, with `exact`,
    /// nothing else but `.`, `..` and the ACL file).
    Readdir {
        path: String,
        must: Arc<[String]>,
        exact: bool,
    },
    /// `getacl`: the caller holds `rights` there.
    Getacl {
        path: String,
        rights: Rights,
    },
    /// `get` of a file whose bytes the oracle knows.
    Get {
        path: String,
    },
    /// `get` the caller has no right to: must fail with `EACCES`.
    Probe {
        path: String,
    },
    /// `put` of `content(key, len)`.
    Put {
        path: String,
        key: u64,
        len: usize,
    },
    /// `get` that must return `content(key, len)`.
    GetKey {
        path: String,
        key: u64,
        len: usize,
    },
    Rename {
        from: String,
        to: String,
    },
    Unlink {
        path: String,
    },
    /// `mkdir` where the caller holds only the reserve right.
    Mkdir {
        path: String,
    },
    Rmdir {
        path: String,
    },
    Setacl {
        path: String,
        acl: String,
    },
    Truncate {
        path: String,
        len: u64,
    },
    /// Pipelined `get`s of oracle files, all in flight at once.
    GetBurst {
        paths: Vec<String>,
    },
    /// `put` of a prebuilt buffer.
    PutBuf {
        path: String,
        data: Arc<[u8]>,
    },
    /// `open` for writing, one `pwrite` per chunk, `close`.
    PwriteSeries {
        path: String,
        chunks: Vec<(u64, Arc<[u8]>)>,
    },
}

impl Action {
    /// RPCs this action issues.
    pub fn rpcs(&self) -> u64 {
        match self {
            Action::Read { .. } => 3,
            Action::GetBurst { paths } => paths.len() as u64,
            Action::PwriteSeries { chunks, .. } => chunks.len() as u64 + 2,
            _ => 1,
        }
    }
}

/// What every read must return: the staged files' bytes, plus the
/// bulk writer's buffers (two versions of each, alternating by cycle).
pub struct Oracle {
    pub kind: Kind,
    pub seed: u64,
    /// Staged files, per owning identity, in staging order.
    pub files: [Vec<(String, Arc<[u8]>)>; 2],
    /// Files created by user 0 in the shared directory.
    pub shared: Vec<(String, Arc<[u8]>)>,
    by_path: HashMap<String, Arc<[u8]>>,
    /// Bulk writer: `[version][file]` whole-file put buffers.
    pub put_bufs: [Vec<Arc<[u8]>>; 2],
    /// Bulk writer: `[version][chunk]` pwrite buffers.
    pub chunk_bufs: [Vec<Arc<[u8]>>; 2],
}

impl Oracle {
    pub fn build(kind: Kind, seed: u64) -> Oracle {
        let file = |p: String, len: usize| {
            let data: Arc<[u8]> = content(path_key(seed, &p), len).into();
            (p, data)
        };
        let mut files: [Vec<(String, Arc<[u8]>)>; 2] = [Vec::new(), Vec::new()];
        let mut shared = Vec::new();
        let mut put_bufs: [Vec<Arc<[u8]>>; 2] = [Vec::new(), Vec::new()];
        let mut chunk_bufs: [Vec<Arc<[u8]>>; 2] = [Vec::new(), Vec::new()];
        for (i, owned) in files.iter_mut().enumerate() {
            match kind {
                Kind::Meta => {
                    for d in 0..META_DIRS {
                        for f in 0..META_FILES {
                            owned.push(file(format!("/u{i}/d{d}/f{f}"), META_FILE));
                        }
                    }
                }
                Kind::Churn => {
                    for d in 0..CHURN_DIRS {
                        for f in 0..CHURN_STATIC {
                            owned.push(file(format!("/u{i}/s{d}/f{f}"), CHURN_FILE));
                        }
                    }
                }
                Kind::Bulk if i == 0 => {
                    for f in 0..BULK_SMALL {
                        owned.push(file(format!("/u0/m{f}"), MIB));
                    }
                    for f in 0..BULK_BIG {
                        owned.push(file(format!("/u0/big{f}"), BULK_BIG_SIZE));
                    }
                }
                Kind::Bulk => {
                    for (v, bufs) in put_bufs.iter_mut().enumerate() {
                        for f in 0..BULK_PUTS {
                            let key = mix(path_key(seed, &format!("/u1/p{f}")), v as u64);
                            bufs.push(content(key, MIB).into());
                        }
                    }
                    for (v, bufs) in chunk_bufs.iter_mut().enumerate() {
                        for c in 0..BULK_BIG_SIZE / PWRITE_CHUNK {
                            let key = mix(path_key(seed, "/u1/big"), (c * 2 + v) as u64);
                            bufs.push(content(key, PWRITE_CHUNK).into());
                        }
                    }
                    // Staged at version 0; every later write is checked
                    // by the final read-back.
                    for (f, buf) in put_bufs[0].iter().enumerate() {
                        owned.push((format!("/u1/p{f}"), Arc::clone(buf)));
                    }
                    let big: Vec<u8> = chunk_bufs[0]
                        .iter()
                        .flat_map(|c| c.iter().copied())
                        .collect();
                    owned.push(("/u1/big".to_string(), big.into()));
                }
                Kind::BoxMake => {}
            }
        }
        if kind == Kind::Meta {
            for f in 0..META_FILES {
                shared.push(file(format!("/shared/f{f}"), META_FILE));
            }
        }
        let by_path = files
            .iter()
            .flatten()
            .chain(shared.iter())
            .map(|(p, d)| (p.clone(), Arc::clone(d)))
            .collect();
        Oracle {
            kind,
            seed,
            files,
            shared,
            by_path,
            put_bufs,
            chunk_bufs,
        }
    }

    /// The bytes a `get` of `path` must return (staged content).
    pub fn bytes(&self, path: &str) -> Option<&Arc<[u8]>> {
        self.by_path.get(path)
    }

    /// Directories user `i` stages (parents first), below its home.
    pub fn dirs(&self, i: usize) -> Vec<String> {
        match self.kind {
            Kind::Meta => (0..META_DIRS).map(|d| format!("/u{i}/d{d}")).collect(),
            Kind::Churn => std::iter::once(format!("/u{i}/w"))
                .chain((0..CHURN_DIRS).map(|d| format!("/u{i}/s{d}")))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// The ACL of the shared directory: its creator, plus read and
    /// list for everyone under the wildcard.
    pub fn shared_acl() -> String {
        format!("{} rwlax\n{WILDCARD} rl\n", identity(0))
    }
}

/// A connection's seeded op stream, one job (cycle) at a time.
pub struct Gen {
    kind: Kind,
    user: usize,
    rng: Rng,
    pub cycle: u64,
    /// Bulk writer: the version last written to each put file and
    /// each pwrite chunk (what the final read-back must find).
    pub put_version: Vec<usize>,
    pub chunk_version: Vec<usize>,
    /// The names every meta directory lists.
    meta_names: Arc<[String]>,
}

impl Gen {
    pub fn new(kind: Kind, seed: u64, user: usize) -> Gen {
        Gen {
            kind,
            user,
            rng: Rng::new(mix(seed, 0xC0FFEE + user as u64)),
            cycle: 0,
            put_version: vec![0; BULK_PUTS],
            chunk_version: vec![0; BULK_BIG_SIZE / PWRITE_CHUNK],
            meta_names: (0..META_FILES).map(|f| format!("f{f}")).collect(),
        }
    }

    /// The next job's actions.
    pub fn next_cycle(&mut self, oracle: &Oracle) -> Vec<Action> {
        let c = self.cycle;
        self.cycle += 1;
        match self.kind {
            Kind::Meta => self.meta_cycle(),
            Kind::Churn => self.churn_cycle(c),
            Kind::Bulk => self.bulk_cycle(c, oracle),
            Kind::BoxMake => Vec::new(),
        }
    }

    /// Visit one directory (own home 4 times in 5, else the shared
    /// one): list it, read its ACL, stat 8 files, get 4, read 1
    /// through a descriptor; about one RPC in a hundred is a probe of
    /// the other identity's home.
    fn meta_cycle(&mut self) -> Vec<Action> {
        let i = self.user;
        let dir = if self.rng.below(5) == 0 {
            "/shared".to_string()
        } else {
            format!("/u{i}/d{}", self.rng.below(META_DIRS as u64))
        };
        let file = |rng: &mut Rng| format!("{dir}/f{}", rng.below(META_FILES as u64));
        let mut v = vec![
            Action::Readdir {
                path: dir.clone(),
                must: Arc::clone(&self.meta_names),
                exact: true,
            },
            Action::Getacl {
                path: dir.clone(),
                rights: Rights::READ | Rights::LIST,
            },
        ];
        for _ in 0..8 {
            v.push(Action::Stat {
                path: file(&mut self.rng),
                size: META_FILE as u64,
            });
        }
        for _ in 0..4 {
            v.push(Action::Get {
                path: file(&mut self.rng),
            });
        }
        v.push(Action::Read {
            path: file(&mut self.rng),
        });
        if self.rng.below(6) == 0 {
            let d = self.rng.below(META_DIRS as u64);
            let f = self.rng.below(META_FILES as u64);
            v.push(Action::Probe {
                path: format!("/u{}/d{d}/f{f}", 1 - i),
            });
        }
        v
    }

    /// One balanced mutation cycle: everything created is removed again
    /// in the same cycle, so the tree stays bounded.
    fn churn_cycle(&mut self, c: u64) -> Vec<Action> {
        let i = self.user;
        let s = c % CHURN_SLOTS;
        let key = mix(self.rng.next_u64(), c);
        let (a, b) = (format!("/u{i}/w/a{s}"), format!("/u{i}/w/b{s}"));
        let reserved = format!("/r{i}x{s}");
        let cut = 1 + self.rng.below(CHURN_FILE as u64 - 1);
        let static_file = |rng: &mut Rng, owner: usize| {
            let (d, f) = (rng.below(CHURN_DIRS as u64), rng.below(CHURN_STATIC as u64));
            format!("/u{owner}/s{d}/f{f}")
        };
        let stat_static = static_file(&mut self.rng, i);
        let mut v = vec![
            Action::Put {
                path: a.clone(),
                key,
                len: CHURN_FILE,
            },
            Action::GetKey {
                path: a.clone(),
                key,
                len: CHURN_FILE,
            },
            Action::Rename {
                from: a,
                to: b.clone(),
            },
            Action::Stat {
                path: b.clone(),
                size: CHURN_FILE as u64,
            },
            Action::Truncate {
                path: b.clone(),
                len: cut,
            },
            Action::Stat {
                path: b.clone(),
                size: cut,
            },
            Action::Mkdir {
                path: reserved.clone(),
            },
            Action::Setacl {
                path: reserved.clone(),
                acl: format!("{} rwlax\n{} rl\n", identity(i), identity(1 - i)),
            },
            Action::Getacl {
                path: reserved.clone(),
                rights: Rights::RWLAX,
            },
            Action::Readdir {
                path: format!("/u{i}/w"),
                must: Arc::from([format!("b{s}")]),
                exact: true,
            },
            Action::Rmdir { path: reserved },
            Action::Unlink { path: b },
            Action::Stat {
                path: stat_static,
                size: CHURN_FILE as u64,
            },
        ];
        if self.rng.below(4) == 0 {
            v.push(Action::Probe {
                path: static_file(&mut self.rng, 1 - i),
            });
        }
        v
    }

    /// Reader (user 0): 4 serial 1 MiB gets, then 4 pipelined 16 MiB
    /// gets. Writer (user 1): 4 puts of 1 MiB and a 16 MiB rewrite in
    /// 256 KiB pwrites, alternating content versions by cycle. Each
    /// side probes the other's files once per cycle.
    fn bulk_cycle(&mut self, c: u64, oracle: &Oracle) -> Vec<Action> {
        let ver = (c % 2) as usize;
        let mut v = Vec::new();
        if self.user == 0 {
            for _ in 0..4 {
                v.push(Action::Get {
                    path: format!("/u0/m{}", self.rng.below(BULK_SMALL as u64)),
                });
            }
            v.push(Action::GetBurst {
                paths: (0..PIPE_DEPTH)
                    .map(|f| format!("/u0/big{}", f % BULK_BIG))
                    .collect(),
            });
            v.push(Action::Probe {
                path: format!("/u1/p{}", self.rng.below(BULK_PUTS as u64)),
            });
        } else {
            for f in 0..BULK_PUTS {
                v.push(Action::PutBuf {
                    path: format!("/u1/p{f}"),
                    data: Arc::clone(&oracle.put_bufs[ver][f]),
                });
                self.put_version[f] = ver;
            }
            let chunks = oracle.chunk_bufs[ver]
                .iter()
                .enumerate()
                .map(|(k, buf)| ((k * PWRITE_CHUNK) as u64, Arc::clone(buf)))
                .collect();
            self.chunk_version.iter_mut().for_each(|x| *x = ver);
            v.push(Action::PwriteSeries {
                path: "/u1/big".to_string(),
                chunks,
            });
            v.push(Action::Probe {
                path: format!("/u0/m{}", self.rng.below(BULK_SMALL as u64)),
            });
        }
        v
    }

    /// Bulk writer: what its files must hold now.
    pub fn written(&self, oracle: &Oracle) -> Vec<(String, Vec<u8>)> {
        if self.kind != Kind::Bulk || self.user != 1 {
            return Vec::new();
        }
        let mut out: Vec<(String, Vec<u8>)> = (0..BULK_PUTS)
            .map(|f| {
                (
                    format!("/u1/p{f}"),
                    oracle.put_bufs[self.put_version[f]][f].to_vec(),
                )
            })
            .collect();
        let big = self
            .chunk_version
            .iter()
            .enumerate()
            .flat_map(|(k, &ver)| oracle.chunk_bufs[ver][k].iter().copied())
            .collect();
        out.push(("/u1/big".to_string(), big));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded() {
        for kind in [Kind::Meta, Kind::Churn, Kind::Bulk] {
            let oracle = Oracle::build(kind, 5);
            let render = |seed| {
                let mut g = Gen::new(kind, seed, 0);
                (0..20)
                    .map(|_| format!("{:?}", g.next_cycle(&oracle)))
                    .collect::<String>()
            };
            assert_eq!(render(5), render(5), "{kind:?}");
            assert_ne!(render(5), render(6), "{kind:?}");
        }
    }

    #[test]
    fn meta_probes_are_about_one_percent() {
        let oracle = Oracle::build(Kind::Meta, 1);
        let mut g = Gen::new(Kind::Meta, 1, 0);
        let (mut rpcs, mut probes) = (0, 0);
        for _ in 0..3000 {
            for a in g.next_cycle(&oracle) {
                rpcs += a.rpcs();
                probes += u64::from(matches!(a, Action::Probe { .. }));
            }
        }
        let frac = probes as f64 / rpcs as f64;
        assert!((0.005..0.02).contains(&frac), "{frac}");
    }

    #[test]
    fn kinds_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
