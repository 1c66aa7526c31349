//! Seeded request generation. Every input the program under test sees —
//! integers to compose, object keys to read, users, tweet ids — comes from
//! here, drawn from the `--seed` the benchmark was started with.

use bytes::Bytes;
use cloudburst_apps::workloads::ZipfSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Objects in the `locality` data set.
pub const LOCALITY_OBJECTS: usize = 8_000;
/// Bytes per `locality` object.
pub const OBJECT_BYTES: usize = 8 * 1024;
/// KVS references per `locality` call.
pub const KEYS_PER_CALL: usize = 4;
/// Zipf exponent of `locality` key popularity.
pub const LOCALITY_ZIPF: f64 = 0.99;

/// Retwis users.
pub const RETWIS_USERS: usize = 200;
/// Followees per Retwis user.
pub const RETWIS_FOLLOWS: usize = 10;
/// Tweets seeded before measuring.
pub const RETWIS_TWEETS: usize = 1_000;
/// Zipf exponent of user popularity (the follow graph and the request mix,
/// as in the paper's Retwis set-up).
pub const RETWIS_ZIPF: f64 = 1.5;
/// Share of requests that post a tweet; the rest read a timeline.
pub const POST_FRACTION: f64 = 0.10;
/// Share of posted tweets that reply to a seeded tweet.
pub const REPLY_FRACTION: f64 = 0.5;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `square(increment(x))` as a two-function DAG, zero modelled latency.
    Compose,
    /// One function over four Zipf-drawn KVS references.
    Locality,
    /// Retwis under distributed session causal consistency.
    Retwis,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Self::Compose, Self::Locality, Self::Retwis];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Compose => "compose",
            Self::Locality => "locality",
            Self::Retwis => "retwis",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Call the composed DAG on `x`; the answer is `(x + 1)²`.
    Compose { x: i64 },
    /// Checksum these objects, in order.
    Locality { keys: [u32; KEYS_PER_CALL] },
    /// Render `user`'s timeline.
    Timeline { user: usize },
    /// `user` posts tweet `id`, optionally replying to a seeded tweet.
    Post {
        user: usize,
        id: String,
        reply_to: Option<String>,
    },
}

/// An endless, seeded request stream for one workload.
pub struct Generator {
    workload: Workload,
    rng: StdRng,
    zipf: Option<ZipfSampler>,
    posted: u64,
}

impl Generator {
    /// A stream for `workload` drawn from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let zipf = match workload {
            Workload::Compose => None,
            Workload::Locality => Some(ZipfSampler::new(LOCALITY_OBJECTS, LOCALITY_ZIPF)),
            Workload::Retwis => Some(ZipfSampler::new(RETWIS_USERS, RETWIS_ZIPF)),
        };
        Self {
            workload,
            rng: StdRng::seed_from_u64(seed ^ 0xB3AC_4E5E_ED00_0000),
            zipf,
            posted: 0,
        }
    }

    fn zipf(&mut self) -> usize {
        self.zipf
            .as_ref()
            .expect("locality and retwis streams carry a sampler")
            .sample(&mut self.rng)
    }
}

impl Iterator for Generator {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        Some(match self.workload {
            Workload::Compose => Request::Compose {
                x: self.rng.random_range(-1_000_000i64..1_000_000),
            },
            Workload::Locality => {
                // Four distinct keys: a repeated key would be served by
                // the same cache entry twice and skew the hit ratio.
                let mut keys = [0u32; KEYS_PER_CALL];
                let mut n = 0;
                while n < KEYS_PER_CALL {
                    let k = self.zipf() as u32;
                    if !keys[..n].contains(&k) {
                        keys[n] = k;
                        n += 1;
                    }
                }
                Request::Locality { keys }
            }
            Workload::Retwis => {
                let user = self.zipf();
                if self.rng.random::<f64>() < POST_FRACTION {
                    let id = format!("bench-{}", self.posted);
                    self.posted += 1;
                    let reply_to = (self.rng.random::<f64>() < REPLY_FRACTION)
                        .then(|| format!("seed-{}", self.rng.random_range(0..RETWIS_TWEETS)));
                    Request::Post { user, id, reply_to }
                } else {
                    Request::Timeline { user }
                }
            }
        })
    }
}

/// The contents of `locality` object `key`: 8 KiB of words derived from
/// the key, so an object read under the wrong key fails the checksum.
pub fn object_bytes(key: u32) -> Bytes {
    let mut out = Vec::with_capacity(OBJECT_BYTES);
    for i in 0..(OBJECT_BYTES / 8) as u64 {
        out.extend_from_slice(&splitmix64((u64::from(key) << 32) | i).to_le_bytes());
    }
    Bytes::from(out)
}

/// The hash of one `locality` object.
pub fn object_hash(data: &[u8]) -> u64 {
    data.chunks_exact(8).fold(0xCBF2_9CE4_8422_2325, |h, word| {
        let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        (h ^ w).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The checksum of a `locality` call: its objects' hashes combined in
/// argument order. The function computes it from the bytes it was handed;
/// the benchmark, from the hashes of the keys it asked for.
pub fn combine(hashes: impl IntoIterator<Item = u64>) -> u64 {
    hashes.into_iter().fold(0, |acc, h| acc.rotate_left(17) ^ h)
}

/// The name of the `locality` object `key` in the KVS.
pub fn object_key(key: u32) -> String {
    format!("obj/{key}")
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(workload: Workload, seed: u64, n: usize) -> Vec<Request> {
        Generator::new(workload, seed).take(n).collect()
    }

    #[test]
    fn same_seed_same_requests() {
        for w in Workload::ALL {
            assert_eq!(first(w, 7, 2_000), first(w, 7, 2_000), "{}", w.name());
        }
    }

    #[test]
    fn different_seed_different_requests() {
        for w in Workload::ALL {
            assert_ne!(first(w, 7, 2_000), first(w, 8, 2_000), "{}", w.name());
        }
    }

    #[test]
    fn retwis_stream_covers_every_field() {
        // Users, post ids and reply targets all come out of the stream, so
        // the seed tests above compare each of them.
        let reqs = first(Workload::Retwis, 3, 2_000);
        let posts: Vec<_> = reqs
            .iter()
            .filter_map(|r| match r {
                Request::Post { id, reply_to, .. } => Some((id, reply_to)),
                _ => None,
            })
            .collect();
        assert!(
            posts.len() > 100 && posts.len() < 300,
            "{} posts",
            posts.len()
        );
        assert!(posts.iter().any(|(_, r)| r.is_some()));
        assert!(posts.iter().any(|(_, r)| r.is_none()));
        let ids: std::collections::HashSet<_> = posts.iter().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), posts.len(), "post ids are unique");
    }

    #[test]
    fn locality_keys_are_distinct_and_in_range() {
        for r in first(Workload::Locality, 11, 1_000) {
            let Request::Locality { keys } = r else {
                panic!("locality stream produced {r:?}");
            };
            for (i, k) in keys.iter().enumerate() {
                assert!((*k as usize) < LOCALITY_OBJECTS);
                assert!(!keys[..i].contains(k));
            }
        }
    }

    #[test]
    fn objects_differ_by_key() {
        let a = object_bytes(1);
        assert_eq!(a.len(), OBJECT_BYTES);
        assert_eq!(a, object_bytes(1));
        assert_ne!(object_hash(&a), object_hash(&object_bytes(2)));
        assert_ne!(combine([1, 2]), combine([2, 1]), "argument order counts");
    }
}
